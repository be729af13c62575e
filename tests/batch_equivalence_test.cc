/**
 * @file
 * The chip's randomized equivalence sweep: the production path
 * (Chip::inferBatch; infer() is a batch of one) against the
 * paper-faithful reference walk (ChipConfig::fastPath = false).
 *
 * Every lane's logits and PerfReport (latency, stage time, energy and
 * the full category breakdown) must equal the reference's bit for bit
 * for every SIMD variant the host runs, batch sizes 1 to 8 plus one
 * past the maxBatch arena hint (buffers must grow, not truncate), and
 * both NDCAM search modes. The models cover every layer family the
 * production path specializes: dense, conv with max or average pooling
 * and same or valid padding, recurrent (all three on the one tally),
 * and residual. Synthetic layers add awkward shapes and codebook
 * sizes: dense layers with a u = 300 input codebook on the tally (a
 * w = 300 weight codebook does not pack into 8-bit codes, and the
 * chip refuses it); conv layers with 1x1 to 5x5
 * kernels, same and valid padding, 5 to 17 output channels and a
 * u = 300 input codebook; recurrent layers of 7, 9 and 17 hidden
 * units. errorRate and the empty
 * batch are checked on their own, as is the reference walk batched
 * against itself. Beside the batch sweep, infer() (the single-sample
 * entry point) is checked sample by sample against the reference on
 * dense, conv and recurrent models trained from two further seeds: a
 * default chip (FastPathEquivalence) and every SIMD variant
 * (ChipKernelEquivalence). Models stay small so the reference side
 * stays cheap; the suite carries the runtime label, so the TSan preset
 * runs it.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "composer/composer.hh"
#include "nn/conv2d.hh"
#include "nn/dense.hh"
#include "nn/misc_layers.hh"
#include "nn/pooling.hh"
#include "nn/recurrent.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "rna/chip.hh"
#include "rna/kernels/kernels.hh"

namespace rapidnn::rna {
namespace {

using composer::Composer;
using composer::ComposerConfig;
using composer::ReinterpretedModel;
using simd::Variant;

/** The production chips' arena hint; the sweep's largest batch
 *  exceeds it. */
constexpr size_t kMaxBatch = 8;
/** Batches 1..8 plus one past kMaxBatch. */
constexpr size_t kBatchSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 11};
constexpr nvm::SearchMode kModes[] = {nvm::SearchMode::AbsoluteExact,
                                      nvm::SearchMode::CircuitStaged};

ReinterpretedModel
compose(nn::Network &net, const nn::Dataset &train)
{
    ComposerConfig config;
    config.weightClusters = 16;
    config.inputClusters = 16;
    return Composer(config).reinterpret(net, train);
}

struct Fixture
{
    nn::Dataset train;
    nn::Dataset validation;
    ReinterpretedModel model;
};

/** Split `all`, train `net` on the training part, compose it. */
std::unique_ptr<const Fixture>
makeFixture(nn::Dataset all, nn::Network net, size_t epochs)
{
    auto f = std::make_unique<Fixture>();
    auto [tr, va] = all.split(0.25);
    f->train = std::move(tr);
    f->validation = std::move(va);
    nn::Trainer({.epochs = epochs, .batchSize = 16, .learningRate = 0.05})
        .train(net, f->train);
    f->model = compose(net, f->train);
    return f;
}

/*
 * The dense, conv and recurrent fixtures are built once per task seed
 * (the network's initial weights use seed + 1), so the suites below
 * can check the same layer family on differently trained models. The
 * caches own their fixtures, so nothing leaks at exit.
 */

const Fixture &
denseFixture(uint64_t seed = 501)
{
    static std::map<uint64_t, std::unique_ptr<const Fixture>> cache;
    std::unique_ptr<const Fixture> &fx = cache[seed];
    if (!fx) {
        Rng rng(seed + 1);
        fx = makeFixture(
            nn::makeVectorTask({"bq-dense", 18, 4, 260, 0.35, 1.0, seed}),
            nn::buildMlp({.inputs = 18, .hidden = {20, 14}, .outputs = 4},
                         rng),
            4);
    }
    return *fx;
}

nn::Dataset
imageTask(const char *name, uint64_t seed)
{
    nn::ImageTaskSpec spec;
    spec.name = name;
    spec.side = 8;
    spec.classes = 3;
    spec.samples = 200;
    spec.seed = seed;
    return nn::makeImageTask(spec);
}

/** Same-padded conv layers with max pooling (clipped border windows). */
const Fixture &
convFixture(uint64_t seed = 503)
{
    static std::map<uint64_t, std::unique_ptr<const Fixture>> cache;
    std::unique_ptr<const Fixture> &fx = cache[seed];
    if (!fx) {
        Rng rng(seed + 1);
        nn::CnnSpec cnn;
        cnn.channels = 3;
        cnn.height = cnn.width = 8;
        cnn.convChannels = {5, 6};
        cnn.denseWidths = {20};
        cnn.outputs = 3;
        fx = makeFixture(imageTask("bq-conv", seed), nn::buildCnn(cnn, rng),
                         3);
    }
    return *fx;
}

/** A valid-padded conv layer (no clipped windows) with average
 *  pooling. */
const Fixture &
poolFixture()
{
    static const std::unique_ptr<const Fixture> fx = [] {
        Rng rng(510);
        nn::Network net;
        net.add(std::make_unique<nn::Conv2DLayer>(3, 4, 3,
                                                  nn::Padding::Valid, rng));
        net.add(std::make_unique<nn::ActivationLayer>(nn::ActKind::ReLU));
        net.add(std::make_unique<nn::AvgPool2DLayer>(2));
        net.add(std::make_unique<nn::FlattenLayer>());
        net.add(std::make_unique<nn::DenseLayer>(4 * 3 * 3, 3, rng));
        return makeFixture(imageTask("bq-pool", 509), std::move(net), 3);
    }();
    return *fx;
}

const Fixture &
recurrentFixture(uint64_t seed = 505)
{
    static std::map<uint64_t, std::unique_ptr<const Fixture>> cache;
    std::unique_ptr<const Fixture> &fx = cache[seed];
    if (!fx) {
        nn::SequenceTaskSpec spec;
        spec.name = "bq-seq";
        spec.features = 5;
        spec.steps = 7;
        spec.classes = 3;
        spec.samples = 240;
        spec.noise = 0.25;
        spec.seed = seed;
        Rng rng(seed + 1);
        nn::Network net;
        net.add(std::make_unique<nn::ElmanLayer>(5, 12, 7,
                                                 nn::ActKind::Tanh, rng));
        net.add(std::make_unique<nn::DenseLayer>(12, 3, rng));
        fx = makeFixture(nn::makeSequenceTask(spec), std::move(net), 4);
    }
    return *fx;
}

const Fixture &
residualFixture()
{
    static const std::unique_ptr<const Fixture> fx = [] {
        Rng rng(508);
        nn::Network net;
        net.add(std::make_unique<nn::DenseLayer>(16, 14, rng));
        net.add(std::make_unique<nn::ActivationLayer>(nn::ActKind::Tanh));
        std::vector<nn::LayerPtr> inner;
        inner.push_back(std::make_unique<nn::DenseLayer>(14, 14, rng));
        inner.push_back(
            std::make_unique<nn::ActivationLayer>(nn::ActKind::Tanh));
        net.add(std::make_unique<nn::ResidualLayer>(std::move(inner)));
        net.add(std::make_unique<nn::DenseLayer>(14, 4, rng));
        return makeFixture(
            nn::makeVectorTask({"bq-res", 16, 4, 320, 0.35, 1.0, 507}),
            std::move(net), 6);
    }();
    return *fx;
}

void
expectReportEqual(const PerfReport &want, const PerfReport &got,
                  const std::string &what)
{
    EXPECT_EQ(want.latency.ns(), got.latency.ns()) << what;
    EXPECT_EQ(want.stageTime.ns(), got.stageTime.ns()) << what;
    EXPECT_EQ(want.energy.j(), got.energy.j()) << what;
    ASSERT_EQ(want.breakdown.size(), got.breakdown.size()) << what;
    for (size_t c = 0; c < want.breakdown.size(); ++c) {
        EXPECT_EQ(want.breakdown[c].name, got.breakdown[c].name) << what;
        EXPECT_EQ(want.breakdown[c].time.ns(), got.breakdown[c].time.ns())
            << what << " " << want.breakdown[c].name;
        EXPECT_EQ(want.breakdown[c].energy.j(),
                  got.breakdown[c].energy.j())
            << what << " " << want.breakdown[c].name;
    }
}

/**
 * The sweep: per search mode, the reference chip's answer for every
 * input, then every variant's production chip over every batch size
 * (lanes are inputs[0..batch)). `inputs` must hold at least 11
 * samples.
 */
void
sweep(const ReinterpretedModel &model,
      const std::vector<nn::Tensor> &inputs, const std::string &label)
{
    ASSERT_GE(inputs.size(), kBatchSizes[std::size(kBatchSizes) - 1]);
    for (nvm::SearchMode mode : kModes) {
        ChipConfig refConfig;
        refConfig.fastPath = false;
        refConfig.searchMode = mode;
        Chip reference(refConfig);
        reference.configure(model);
        std::vector<std::vector<double>> want(inputs.size());
        std::vector<PerfReport> wantReports(inputs.size());
        for (size_t s = 0; s < inputs.size(); ++s)
            want[s] = reference.infer(inputs[s], wantReports[s]);

        for (Variant v : kernels::availableVariants()) {
            ChipConfig config;
            config.simd = v;
            config.searchMode = mode;
            config.maxBatch = kMaxBatch;
            Chip chip(config);
            chip.configure(model);
            const std::string tag = label + " " + simd::variantName(v)
                + (mode == nvm::SearchMode::AbsoluteExact ? " exact"
                                                          : " staged");
            for (size_t batch : kBatchSizes) {
                std::vector<PerfReport> reports(batch);
                const std::vector<std::vector<double>> got =
                    chip.inferBatch(
                        std::span<const nn::Tensor>(inputs.data(), batch),
                        std::span<PerfReport>(reports));
                ASSERT_EQ(got.size(), batch) << tag;
                for (size_t s = 0; s < batch; ++s) {
                    const std::string what = tag + " batch "
                        + std::to_string(batch) + " lane "
                        + std::to_string(s);
                    EXPECT_EQ(got[s], want[s]) << what;
                    expectReportEqual(wantReports[s], reports[s], what);
                }
            }
        }
    }
}

/** 11 validation samples (cycling when the split is smaller). */
std::vector<nn::Tensor>
inputsOf(const Fixture &fx)
{
    std::vector<nn::Tensor> inputs;
    for (size_t s = 0; s < 11; ++s)
        inputs.push_back(fx.validation.sample(s % fx.validation.size()).x);
    return inputs;
}

TEST(BatchEquivalence, DenseBitwise)
{
    sweep(denseFixture().model, inputsOf(denseFixture()), "dense");
}

TEST(BatchEquivalence, ConvBitwise)
{
    sweep(convFixture().model, inputsOf(convFixture()), "conv");
}

TEST(BatchEquivalence, PoolBitwise)
{
    sweep(poolFixture().model, inputsOf(poolFixture()), "pool");
}

TEST(BatchEquivalence, RecurrentBitwise)
{
    sweep(recurrentFixture().model, inputsOf(recurrentFixture()),
          "recurrent");
}

TEST(BatchEquivalence, ResidualBitwise)
{
    sweep(residualFixture().model, inputsOf(residualFixture()),
          "residual");
}

TEST(BatchEquivalence, ReferencePathBitwise)
{
    // The reference walk batched: each lane of a fastPath = false
    // chip's inferBatch must equal that chip's own infer() of the lane.
    ChipConfig config;
    config.fastPath = false;
    config.maxBatch = kMaxBatch;
    for (const Fixture *fx : {&denseFixture(), &convFixture(),
                              &recurrentFixture(), &residualFixture()}) {
        Chip chip(config);
        chip.configure(fx->model);
        const std::vector<nn::Tensor> inputs = inputsOf(*fx);
        std::vector<PerfReport> reports(inputs.size());
        const std::vector<std::vector<double>> got =
            chip.inferBatch(std::span<const nn::Tensor>(inputs),
                            std::span<PerfReport>(reports));
        ASSERT_EQ(got.size(), inputs.size());
        for (size_t s = 0; s < inputs.size(); ++s) {
            PerfReport want;
            const std::string what = "reference lane " + std::to_string(s);
            EXPECT_EQ(got[s], chip.infer(inputs[s], want)) << what;
            expectReportEqual(want, reports[s], what);
        }
    }
}

/**
 * infer(), the single-sample entry point, against the reference sample
 * by sample: one production chip per variant in `variants`, over the
 * first `samples` validation samples of `fx`.
 */
void
expectInferBitwise(const Fixture &fx, nvm::SearchMode mode,
                   const std::vector<Variant> &variants, size_t samples)
{
    ChipConfig refConfig;
    refConfig.fastPath = false;
    refConfig.searchMode = mode;
    Chip reference(refConfig);
    reference.configure(fx.model);
    for (Variant v : variants) {
        ChipConfig config;
        config.simd = v;
        config.searchMode = mode;
        Chip chip(config);
        chip.configure(fx.model);
        for (size_t s = 0; s < samples && s < fx.validation.size(); ++s) {
            const nn::Tensor &x = fx.validation.sample(s).x;
            PerfReport want, got;
            const std::string what = std::string(simd::variantName(v))
                + " sample " + std::to_string(s);
            EXPECT_EQ(reference.infer(x, want), chip.infer(x, got))
                << what;
            expectReportEqual(want, got, what);
        }
    }
}

/** A default production chip (SIMD variant resolved at configure). */
void
expectDefaultInferBitwise(const Fixture &fx, nvm::SearchMode mode,
                          size_t samples)
{
    expectInferBitwise(fx, mode, {Variant::Auto}, samples);
}

// The fast path as served: a default chip's infer(), on models trained
// from other seeds than the sweep's.

TEST(FastPathEquivalence, DenseBitwise)
{
    expectDefaultInferBitwise(denseFixture(71),
                              nvm::SearchMode::AbsoluteExact, 12);
}

TEST(FastPathEquivalence, ConvBitwise)
{
    expectDefaultInferBitwise(convFixture(73),
                              nvm::SearchMode::AbsoluteExact, 12);
}

TEST(FastPathEquivalence, RecurrentBitwise)
{
    expectDefaultInferBitwise(recurrentFixture(75),
                              nvm::SearchMode::AbsoluteExact, 12);
}

TEST(FastPathEquivalence, StagedSearchModeBitwise)
{
    expectDefaultInferBitwise(denseFixture(71),
                              nvm::SearchMode::CircuitStaged, 6);
    expectDefaultInferBitwise(convFixture(73),
                              nvm::SearchMode::CircuitStaged, 4);
}

// Every kernel variant's infer(), on a third set of trained models.

TEST(ChipKernelEquivalence, DenseBitwise)
{
    expectInferBitwise(denseFixture(301), nvm::SearchMode::AbsoluteExact,
                       kernels::availableVariants(), 8);
}

TEST(ChipKernelEquivalence, ConvBitwise)
{
    expectInferBitwise(convFixture(303), nvm::SearchMode::AbsoluteExact,
                       kernels::availableVariants(), 8);
}

TEST(ChipKernelEquivalence, RecurrentBitwise)
{
    expectInferBitwise(recurrentFixture(305),
                       nvm::SearchMode::AbsoluteExact,
                       kernels::availableVariants(), 8);
}

TEST(ChipKernelEquivalence, StagedSearchModeBitwise)
{
    expectInferBitwise(denseFixture(301), nvm::SearchMode::CircuitStaged,
                       kernels::availableVariants(), 4);
}

/** n evenly spaced values from lo to hi. */
std::vector<double>
spaced(size_t n, double lo, double hi)
{
    std::vector<double> v(n);
    for (size_t k = 0; k < n; ++k)
        v[k] = lo + (hi - lo) * double(k) / double(n - 1);
    return v;
}

/** A dense stack whose first layer gets exactly w weight and u input
 *  entries. */
struct DenseShape
{
    size_t inputs;
    std::vector<size_t> hidden;
    size_t w;
    size_t u;
};

/** The MLP of `shape` composed, its first layer rebuilt to hold
 *  exactly w weight and u input entries; `inputs` gets its sweep
 *  inputs. */
ReinterpretedModel
denseShapeModel(const DenseShape &shape, uint64_t seed,
                std::vector<nn::Tensor> &inputs)
{
    nn::Dataset all = nn::makeVectorTask(
        {"bq-tally", shape.inputs, 3, 120, 0.4, 1.0, seed});
    auto [train, validation] = all.split(0.25);
    Rng rng(seed + 1);
    nn::Network net = nn::buildMlp(
        {.inputs = shape.inputs, .hidden = shape.hidden, .outputs = 3},
        rng);
    nn::Trainer({.epochs = 1, .batchSize = 16, .learningRate = 0.05})
        .train(net, train);
    ComposerConfig cc;
    cc.weightClusters = std::min<size_t>(shape.w, 256);
    cc.inputClusters = std::min<size_t>(shape.u, 256);
    ReinterpretedModel model = Composer(cc).reinterpret(net, train);
    // Clustering may merge clusters, so give the first layer exactly
    // w weight and u input entries (random weight codes, an input
    // encoder and product table to match); both paths read the same
    // tables.
    composer::RLayer &first = model.layers()[0];
    EXPECT_EQ(first.kind, composer::RLayerKind::Dense);
    first.inputCodebook = quant::Codebook::fromSorted(
        Array<double>(spaced(shape.u, -2.5, 2.5)));
    model.inputEncoder() = quant::Encoder(first.inputCodebook);
    std::vector<double> values = spaced(shape.w, -1.0, 1.0);
    std::vector<uint16_t> codes(first.weightCodes[0].size());
    for (auto &c : codes)
        c = uint16_t(rng.uniformInt(0, int64_t(shape.w) - 1));
    std::vector<double> products(shape.w * shape.u);
    for (size_t k = 0; k < shape.w; ++k)
        for (size_t c = 0; c < shape.u; ++c)
            products[k * shape.u + c] =
                values[k] * first.inputCodebook.value(c);
    first.weightCodebooks[0] =
        quant::Codebook::fromSorted(Array<double>(std::move(values)));
    first.weightCodes[0] = Array<uint16_t>(std::move(codes));
    first.productTables[0] = Array<double>(std::move(products));

    // Two constant inputs: one input code fills the whole fan-in.
    inputs.clear();
    for (size_t s = 0; s < 9; ++s)
        inputs.push_back(validation.sample(s % validation.size()).x);
    nn::Tensor zeros(inputs[0].shape());
    nn::Tensor level(inputs[0].shape());
    for (size_t i = 0; i < level.numel(); ++i)
        level[i] = 0.7f;
    inputs.push_back(zeros);
    inputs.push_back(level);
    return model;
}

void
sweepDenseShape(const DenseShape &shape, uint64_t seed)
{
    std::vector<nn::Tensor> inputs;
    const ReinterpretedModel model = denseShapeModel(shape, seed, inputs);
    sweep(model, inputs,
          "dense w=" + std::to_string(shape.w) + " u="
              + std::to_string(shape.u));
}

TEST(ChipKernelEquivalence, DenseTallySweepMatchesReference)
{
    sweepDenseShape({19, {9, 1}, 64, 37}, 501);  // tail groups of 1
    sweepDenseShape({19, {17}, 65, 37}, 502);    // two mask words
    sweepDenseShape({40, {33}, 256, 37}, 503);   // four mask words
    sweepDenseShape({19, {9}, 64, 300}, 504);    // u beyond 8-bit codes
    sweepDenseShape({19, {70}, 64, 37}, 506);    // two passes, tail of 6
}

TEST(ChipKernelEquivalence, UnpackableWeightCodebookRefused)
{
    // 300 weight entries do not pack into the tally's 8-bit codes:
    // configure refuses the model on either walk.
    std::vector<nn::Tensor> inputs;
    const ReinterpretedModel model =
        denseShapeModel({19, {9}, 300, 16}, 505, inputs);
    for (bool fast : {true, false}) {
        ChipConfig config;
        config.fastPath = fast;
        EXPECT_EXIT(Chip(config).configure(model),
                    ::testing::ExitedWithCode(1),
                    "weight codebook of 300 entries exceeds 256");
    }
}

/** One conv layer over a 3-channel image, then a dense readout. */
struct ConvShape
{
    size_t side;
    size_t outC;
    size_t kernel;
    nn::Padding padding;
    size_t u;  //!< conv input codebook entries; 0 keeps the composed one
};

void
sweepConvShape(const ConvShape &shape, uint64_t seed)
{
    nn::ImageTaskSpec spec;
    spec.name = "bq-conv-tally";
    spec.side = shape.side;
    spec.classes = 3;
    spec.samples = 60;
    spec.seed = seed;
    auto [train, validation] = nn::makeImageTask(spec).split(0.25);
    Rng rng(seed + 1);
    const bool same = shape.padding == nn::Padding::Same;
    const size_t out = same ? shape.side : shape.side - shape.kernel + 1;
    nn::Network net;
    net.add(std::make_unique<nn::Conv2DLayer>(3, shape.outC, shape.kernel,
                                              shape.padding, rng));
    net.add(std::make_unique<nn::ActivationLayer>(nn::ActKind::ReLU));
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::DenseLayer>(shape.outC * out * out, 3,
                                             rng));
    nn::Trainer({.epochs = 1, .batchSize = 16, .learningRate = 0.05})
        .train(net, train);
    ReinterpretedModel model = compose(net, train);
    composer::RLayer &conv = model.layers()[0];
    ASSERT_EQ(conv.kind, composer::RLayerKind::Conv);
    if (shape.u > 0) {
        // An input codebook wider than 8-bit codes, with every
        // channel's product table to match.
        conv.inputCodebook = quant::Codebook::fromSorted(
            Array<double>(spaced(shape.u, -2.5, 2.5)));
        model.inputEncoder() = quant::Encoder(conv.inputCodebook);
        for (size_t oc = 0; oc < shape.outC; ++oc) {
            const quant::Codebook &wcb = conv.weightCodebooks[oc];
            std::vector<double> products(wcb.size() * shape.u);
            for (size_t k = 0; k < wcb.size(); ++k)
                for (size_t c = 0; c < shape.u; ++c)
                    products[k * shape.u + c] =
                        wcb.value(k) * conv.inputCodebook.value(c);
            conv.productTables[oc] = Array<double>(std::move(products));
        }
    }
    std::vector<nn::Tensor> inputs;
    for (size_t s = 0; s < 11; ++s)
        inputs.push_back(validation.sample(s % validation.size()).x);
    sweep(model, inputs,
          "conv " + std::to_string(shape.kernel) + "x"
              + std::to_string(shape.kernel) + (same ? " same" : " valid")
              + " outC=" + std::to_string(shape.outC)
              + " u=" + std::to_string(conv.inputEntries()));
}

TEST(ChipKernelEquivalence, ConvTallySweepMatchesReference)
{
    sweepConvShape({6, 5, 1, nn::Padding::Same, 0}, 511);
    sweepConvShape({6, 9, 5, nn::Padding::Same, 0}, 512);  // clipped
    sweepConvShape({7, 17, 5, nn::Padding::Valid, 0}, 513);
    sweepConvShape({5, 9, 1, nn::Padding::Valid, 0}, 514);
    sweepConvShape({6, 5, 3, nn::Padding::Same, 300}, 515);
    // Two passes per position, over clipped windows.
    sweepConvShape({6, 72, 3, nn::Padding::Same, 0}, 516);
}

void
sweepRecurrentShape(size_t hidden, uint64_t seed)
{
    nn::SequenceTaskSpec spec;
    spec.name = "bq-seq-tally";
    spec.features = 5;
    spec.steps = 4;
    spec.classes = 3;
    spec.samples = 80;
    spec.noise = 0.25;
    spec.seed = seed;
    Rng rng(seed + 1);
    nn::Network net;
    net.add(std::make_unique<nn::ElmanLayer>(5, hidden, 4,
                                             nn::ActKind::Tanh, rng));
    net.add(std::make_unique<nn::DenseLayer>(hidden, 3, rng));
    const std::unique_ptr<const Fixture> fx =
        makeFixture(nn::makeSequenceTask(spec), std::move(net), 1);
    sweep(fx->model, inputsOf(*fx),
          "recurrent hidden=" + std::to_string(hidden));
}

TEST(ChipKernelEquivalence, RecurrentTallySweepMatchesReference)
{
    sweepRecurrentShape(7, 521);
    sweepRecurrentShape(9, 522);
    sweepRecurrentShape(17, 523);
    // Nine groups in one whole-layer job: full plane blocks (64 or
    // 32 neurons) and a partial one.
    sweepRecurrentShape(70, 524);
}

TEST(FastPathEquivalence, ErrorRateIdentical)
{
    const Fixture &fx = convFixture();
    ChipConfig refConfig;
    refConfig.fastPath = false;
    Chip reference(refConfig);
    reference.configure(fx.model);
    Chip production{ChipConfig{}};
    production.configure(fx.model);

    PerfReport refAvg, avg;
    EXPECT_EQ(reference.errorRate(fx.validation, refAvg),
              production.errorRate(fx.validation, avg));
    expectReportEqual(refAvg, avg, "errorRate");
}

TEST(BatchEquivalence, EmptyBatchReturnsEmpty)
{
    ChipConfig config;
    config.maxBatch = kMaxBatch;
    Chip chip(config);
    chip.configure(denseFixture().model);
    std::vector<nn::Tensor> inputs;
    std::vector<PerfReport> reports;
    EXPECT_TRUE(chip.inferBatch(std::span<const nn::Tensor>(inputs),
                                std::span<PerfReport>(reports))
                    .empty());
}

} // namespace
} // namespace rapidnn::rna
