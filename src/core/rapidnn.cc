#include "core/rapidnn.hh"

#include <cmath>

#include "blob/blob.hh"
#include "common/logging.hh"
#include "nn/trainer.hh"
#include "telemetry/telemetry.hh"

namespace rapidnn::core {

RunReport
Rapidnn::measure(composer::ComposeResult compose,
                 const nn::Dataset &validation)
{
    RunReport report;
    report.compose = std::move(compose);
    _model = std::move(report.compose.model);
    report.memoryBytes = _model.memoryBytes();
    // The validation feature shape is the shape the deployment serves
    // at: the chip derives its layout at it, and exportBlob records it.
    if (_model.canonicalInputShape().empty() && validation.size() > 0)
        _model.setCanonicalInputShape(validation.featureShape());

    _chip = std::make_unique<rna::Chip>(_config.chip);
    _chip->configure(_model);
    // Top-level pipeline span; the per-sample chip_infer_batch spans
    // nest under it when tracing is on.
    RAPIDNN_TELEMETRY_SPAN("evaluate",
                           static_cast<int64_t>(validation.size()));
    report.acceleratorError = _chip->errorRate(validation, report.perf);
    return report;
}

std::unique_ptr<runtime::ServingEngine>
Rapidnn::serve(const runtime::ServingConfig &serving) const
{
    if (_model.layers().empty())
        fatal("Rapidnn::serve() needs a composed model; "
              "call run() or runOneShot() first");
    return std::make_unique<runtime::ServingEngine>(
        _model, _config.chip, serving);
}

void
Rapidnn::exportBlob(const std::string &path) const
{
    if (_model.layers().empty())
        fatal("Rapidnn::exportBlob() needs a composed model; "
              "call run() or runOneShot() first");
    blob::writeBlobFile(_model, path);
}

std::unique_ptr<runtime::ServingEngine>
Rapidnn::serveBlob(const std::string &path,
                   const rna::ChipConfig &chip,
                   const runtime::ServingConfig &serving)
{
    return std::make_unique<runtime::ServingEngine>(
        blob::ModelBlob::open(path), chip, serving);
}

RunReport
Rapidnn::run(nn::Network &net, const nn::Dataset &train,
             const nn::Dataset &validation)
{
    composer::Composer comp(_config.composer);
    composer::ComposeResult result;
    {
        RAPIDNN_TELEMETRY_SPAN("compose");
        result = comp.compose(net, train, validation);
    }
    return measure(std::move(result), validation);
}

RunReport
Rapidnn::runOneShot(nn::Network &net, const nn::Dataset &train,
                    const nn::Dataset &validation)
{
    composer::Composer comp(_config.composer);
    composer::ComposeResult result;
    result.baselineError = nn::Trainer::errorRate(net, validation);
    {
        RAPIDNN_TELEMETRY_SPAN("compose");
        result.model = comp.reinterpret(net, train);
    }
    result.clusteredError = result.model.errorRate(validation);
    result.deltaE = result.clusteredError - result.baselineError;
    return measure(std::move(result), validation);
}

namespace {

/** Table 2 hidden widths, scaled. */
size_t
scaled(size_t width, double scale)
{
    return std::max<size_t>(8, static_cast<size_t>(
        std::lround(static_cast<double>(width) * scale)));
}

} // namespace

std::string
benchmarkTopologyString(nn::Benchmark benchmark)
{
    switch (benchmark) {
      case nn::Benchmark::Mnist:
        return "IN:784, FC:512, FC:512, FC:10";
      case nn::Benchmark::Isolet:
        return "IN:617, FC:512, FC:512, FC:26";
      case nn::Benchmark::Har:
        return "IN:561, FC:512, FC:512, FC:19";
      case nn::Benchmark::Cifar10:
        return "IN:32x32x3, CV:32x3x3, PL:2x2, CV:64x3x3, CV:64x3x3, "
               "FC:512, FC:10";
      case nn::Benchmark::Cifar100:
        return "IN:32x32x3, CV:32x3x3, PL:2x2, CV:64x3x3, CV:64x3x3, "
               "FC:512, FC:100";
      case nn::Benchmark::ImageNet:
        return "VGG-style stand-in (see DESIGN.md)";
    }
    panic("unknown benchmark");
}

BenchmarkModel
buildBenchmarkModel(nn::Benchmark benchmark,
                    const BenchmarkOptions &options)
{
    BenchmarkModel bm{benchmark, nn::Network{}, nn::Dataset{},
                      nn::Dataset{}, 0.0, {}};
    nn::Dataset data =
        nn::makeBenchmarkDataset(benchmark, options.samples);
    auto [train, validation] = data.split(options.holdout);
    bm.train = std::move(train);
    bm.validation = std::move(validation);

    Rng rng(options.seed);
    const double s = options.widthScale;
    nn::Shape inputShape = bm.train.featureShape();

    switch (benchmark) {
      case nn::Benchmark::Mnist:
      case nn::Benchmark::Isolet:
      case nn::Benchmark::Har: {
        const size_t features = inputShape[0];
        bm.network = nn::buildMlp(
            {.inputs = features,
             .hidden = {scaled(512, s), scaled(512, s)},
             .outputs = bm.train.classes(),
             .hiddenAct = nn::ActKind::ReLU,
             .dropout = 0.0},
            rng);
        break;
      }
      case nn::Benchmark::Cifar10:
      case nn::Benchmark::Cifar100:
      case nn::Benchmark::ImageNet: {
        nn::CnnSpec spec;
        spec.channels = inputShape[0];
        spec.height = inputShape[1];
        spec.width = inputShape[2];
        // Table 2: CV:32, PL, CV:64, CV:64, FC:512 (scaled).
        spec.convChannels = {scaled(32, s), scaled(64, s),
                             scaled(64, s)};
        if (benchmark == nn::Benchmark::ImageNet)
            spec.convChannels.push_back(scaled(64, s));  // deeper
        spec.denseWidths = {scaled(512, s)};
        spec.outputs = bm.train.classes();
        bm.network = nn::buildCnn(spec, rng);
        break;
      }
    }

    nn::Trainer trainer({.epochs = options.trainEpochs, .batchSize = 32,
                         .learningRate = 0.05, .momentum = 0.9,
                         .shuffleSeed = options.seed});
    trainer.train(bm.network, bm.train);
    bm.baselineError =
        nn::Trainer::errorRate(bm.network, bm.validation);
    bm.shape = nn::shapeOfNetwork(bm.network, inputShape,
                                  nn::benchmarkName(benchmark));
    return bm;
}

} // namespace rapidnn::core
