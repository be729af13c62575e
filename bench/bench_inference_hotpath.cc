/**
 * @file
 * Inference hot-path bench: host wall-clock samples/second through
 * Chip::infer for dense, conv and recurrent models, comparing the
 * paper-faithful reference walk (ChipConfig::fastPath = false) against
 * the production path (default; infer() is a batch of one).
 *
 * Both paths produce bitwise-identical results and PerfReports
 * (tests/batch_equivalence_test.cc pins this); this bench measures
 * only how fast the host simulates them. The acceptance gate is a
 * >= 3x single-thread speedup on the conv model. A second section runs
 * the batched serving engine with 4 replica workers under both flags.
 *
 * A third section measures the telemetry layer's overhead: the same
 * production loop with tracing enabled vs disabled (best-of-3 each to
 * suppress scheduler noise). Telemetry is compiled in for every run —
 * the "disabled" numbers above already carry its
 * one-relaxed-atomic-per-span cost — so this delta is the full price
 * of turning tracing + stage histograms on. Gate: <= 2% on conv.
 *
 * A fourth section sweeps Chip::inferBatch at batch 1/2/4/8 on a single
 * thread: each layer runs once for the whole batch, so per-output-
 * neuron work (weight-row loads, pair-key construction via
 * pairKeys8Lanes, counting-cycle hints, AM batch lookups) is shared by
 * the lanes. This section measures only that amortization.
 *
 * The SIMD variant in use (ChipConfig::simd, resolved from
 * RAPIDNN_SIMD or the host) is printed and recorded in the JSON
 * metadata; run with RAPIDNN_SIMD=scalar for the scalar-kernel rates.
 *
 * Results are also written to BENCH_inference_hotpath.json.
 */

#include <algorithm>
#include <chrono>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <span>
#include <vector>

#include "bench_util.hh"
#include "composer/composer.hh"
#include "nn/recurrent.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "rna/chip.hh"
#include "runtime/serving_engine.hh"
#include "telemetry/telemetry.hh"

namespace {

using namespace rapidnn;
using Clock = std::chrono::steady_clock;

struct BenchModel
{
    std::string name;
    composer::ReinterpretedModel model;
    nn::Dataset data;
    size_t iters;  //!< timed single-thread inferences
};

composer::ReinterpretedModel
compose(nn::Network &net, const nn::Dataset &train)
{
    composer::ComposerConfig config;
    config.weightClusters = 32;
    config.inputClusters = 32;
    composer::Composer composer(config);
    return composer.reinterpret(net, train);
}

BenchModel
denseModel()
{
    nn::Dataset all = nn::makeVectorTask(
        {"dense", 24, 4, 320, 0.35, 1.0, 61});
    auto [train, validation] = all.split(0.25);
    Rng rng(62);
    nn::Network net = nn::buildMlp(
        {.inputs = 24, .hidden = {32, 24}, .outputs = 4}, rng);
    nn::Trainer({.epochs = 3, .batchSize = 16, .learningRate = 0.05})
        .train(net, train);
    return {"dense", compose(net, train), std::move(validation), 200};
}

BenchModel
convModel()
{
    nn::ImageTaskSpec spec;
    spec.name = "conv";
    spec.side = 10;
    spec.classes = 3;
    spec.samples = 240;
    spec.seed = 305;
    nn::Dataset all = nn::makeImageTask(spec);
    auto [train, validation] = all.split(0.25);
    Rng rng(306);
    nn::CnnSpec cnn;
    cnn.channels = 3;
    cnn.height = cnn.width = 10;
    cnn.convChannels = {8, 8};
    cnn.denseWidths = {32};
    cnn.outputs = 3;
    nn::Network net = nn::buildCnn(cnn, rng);
    nn::Trainer({.epochs = 2, .batchSize = 16, .learningRate = 0.05})
        .train(net, train);
    return {"conv", compose(net, train), std::move(validation), 30};
}

BenchModel
recurrentModel()
{
    nn::SequenceTaskSpec spec;
    spec.name = "seq";
    spec.features = 6;
    spec.steps = 8;
    spec.classes = 4;
    spec.samples = 320;
    spec.noise = 0.25;
    spec.seed = 505;
    nn::Dataset all = nn::makeSequenceTask(spec);
    auto [train, validation] = all.split(0.25);
    Rng rng(506);
    nn::Network net;
    net.add(std::make_unique<nn::ElmanLayer>(6, 16, 8,
                                             nn::ActKind::Tanh, rng));
    net.add(std::make_unique<nn::DenseLayer>(16, 4, rng));
    nn::Trainer({.epochs = 3, .batchSize = 16, .learningRate = 0.05})
        .train(net, train);
    return {"recurrent", compose(net, train), std::move(validation),
            120};
}

/** Single-thread host samples/second through Chip::infer. */
double
samplesPerSec(const BenchModel &bm, bool fastPath)
{
    rna::ChipConfig config;
    config.fastPath = fastPath;
    rna::Chip chip(config);
    chip.configure(bm.model);

    rna::PerfReport report;
    for (size_t i = 0; i < 3; ++i)  // warmup (plans, caches)
        chip.infer(bm.data.sample(i % bm.data.size()).x, report);

    const auto t0 = Clock::now();
    for (size_t i = 0; i < bm.iters; ++i)
        chip.infer(bm.data.sample(i % bm.data.size()).x, report);
    const double sec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return static_cast<double>(bm.iters) / sec;
}

/** Best-of-N production samples/second (suppresses one-off
 *  stalls). */
double
bestSamplesPerSec(const BenchModel &bm, int reps)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r)
        best = std::max(best, samplesPerSec(bm, true));
    return best;
}

/** Single-thread host samples/second through Chip::inferBatch at a
 *  fixed batch size (arena sized for the largest swept batch). */
double
batchSamplesPerSec(const BenchModel &bm, size_t batch)
{
    rna::ChipConfig config;
    config.maxBatch = 8;
    rna::Chip chip(config);
    chip.configure(bm.model);

    std::vector<nn::Tensor> inputs;
    inputs.reserve(batch);
    for (size_t s = 0; s < batch; ++s)
        inputs.push_back(bm.data.sample(s % bm.data.size()).x);
    std::vector<rna::PerfReport> reports(batch);
    const std::span<const nn::Tensor> in(inputs);
    const std::span<rna::PerfReport> out(reports);

    for (size_t i = 0; i < 2; ++i)  // warmup (plans, batch arenas)
        chip.inferBatch(in, out);

    const size_t groups = std::max<size_t>(1, bm.iters / batch);
    const auto t0 = Clock::now();
    for (size_t g = 0; g < groups; ++g)
        chip.inferBatch(in, out);
    const double sec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return static_cast<double>(groups * batch) / sec;
}

double
bestBatchSamplesPerSec(const BenchModel &bm, size_t batch, int reps)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r)
        best = std::max(best, batchSamplesPerSec(bm, batch));
    return best;
}

/** Measured (wall-clock) serving throughput with 4 replica workers. */
double
servingRps(const BenchModel &bm, bool fastPath)
{
    const size_t requests = 2 * bm.iters;
    runtime::ServingConfig serving;
    serving.workers = 4;
    serving.maxBatch = 4;
    serving.maxLatencyUs = 200;
    serving.queueCapacity = 2 * requests;
    serving.dispatch = runtime::DispatchPolicy::RoundRobin;
    rna::ChipConfig chipConfig;
    chipConfig.fastPath = fastPath;
    runtime::ServingEngine engine(bm.model, chipConfig, serving);

    std::vector<std::future<runtime::InferResult>> futures;
    futures.reserve(requests);
    for (size_t i = 0; i < requests; ++i)
        futures.push_back(
            engine.submit(bm.data.sample(i % bm.data.size()).x));
    for (auto &future : futures)
        future.get();
    engine.drain();
    return engine.stats().throughputRps();
}

} // namespace

int
main()
{
    const bench::BenchScale scale = bench::BenchScale::fromEnv();
    bench::banner("Inference hot path: reference walk vs production "
                  "path",
                  scale, false);

    std::vector<BenchModel> models;
    models.push_back(denseModel());
    models.push_back(convModel());
    models.push_back(recurrentModel());

    std::cout << std::left << std::setw(11) << "model"
              << std::right << std::setw(13) << "ref sps"
              << std::setw(13) << "fast sps" << std::setw(10)
              << "speedup" << std::setw(13) << "serve ref"
              << std::setw(13) << "serve fast" << std::setw(10)
              << "speedup" << "\n";

    std::vector<std::pair<std::string, double>> metrics;
    double convSpeedup = 0.0;
    for (const BenchModel &bm : models) {
        const double refSps = samplesPerSec(bm, false);
        const double fastSps = samplesPerSec(bm, true);
        const double speedup = refSps > 0.0 ? fastSps / refSps : 0.0;
        const double serveRef = servingRps(bm, false);
        const double serveFast = servingRps(bm, true);
        const double serveSpeedup =
            serveRef > 0.0 ? serveFast / serveRef : 0.0;
        if (bm.name == "conv")
            convSpeedup = speedup;

        std::cout << std::left << std::setw(11) << bm.name
                  << std::right << std::fixed << std::setprecision(1)
                  << std::setw(13) << refSps << std::setw(13)
                  << fastSps << std::setw(10) << bench::times(speedup)
                  << std::setw(13) << serveRef << std::setw(13)
                  << serveFast << std::setw(10)
                  << bench::times(serveSpeedup) << "\n";

        metrics.emplace_back(bm.name + ".single_thread_sps_ref",
                             refSps);
        metrics.emplace_back(bm.name + ".single_thread_sps_fast",
                             fastSps);
        metrics.emplace_back(bm.name + ".single_thread_speedup",
                             speedup);
        metrics.emplace_back(bm.name + ".serving_rps_ref_4w",
                             serveRef);
        metrics.emplace_back(bm.name + ".serving_rps_fast_4w",
                             serveFast);
        metrics.emplace_back(bm.name + ".serving_speedup_4w",
                             serveSpeedup);
    }
    // Telemetry overhead: production path with tracing + stage
    // histograms on vs off, best-of-3 each.
    std::cout << "\n"
              << std::left << std::setw(11) << "model"
              << std::right << std::setw(13) << "telem off"
              << std::setw(13) << "telem on"
              << std::setw(12) << "overhead" << "\n";
    double convOverheadPct = 0.0;
    for (const BenchModel &bm : models) {
        const double offSps = bestSamplesPerSec(bm, 3);
        telemetry::Tracer::global().setEnabled(true);
        const double onSps = bestSamplesPerSec(bm, 3);
        telemetry::Tracer::global().setEnabled(false);
        const double overheadPct = offSps > 0.0
            ? (offSps - onSps) / offSps * 100.0 : 0.0;
        if (bm.name == "conv")
            convOverheadPct = overheadPct;

        std::cout << std::left << std::setw(11) << bm.name
                  << std::right << std::fixed << std::setprecision(1)
                  << std::setw(13) << offSps << std::setw(13) << onSps
                  << std::setprecision(2) << std::setw(11)
                  << overheadPct << "%\n";

        metrics.emplace_back(bm.name + ".single_thread_sps_telemetry",
                             onSps);
        metrics.emplace_back(bm.name + ".telemetry_overhead_pct",
                             overheadPct);
    }
    const simd::Variant resolved =
        rna::kernels::resolve(simd::Variant::Auto);
    std::cout << "\n-- SIMD kernels: cpu features ["
              << simd::featureString() << "], variant '"
              << simd::variantName(resolved) << "' --\n";
    // Batch scaling: Chip::inferBatch on one thread at batch 1/2/4/8
    // (maxBatch = 8 arena), best-of-3 each. The b8 speedup over b1 is
    // the cross-request amortization the serving engine's micro-batches
    // bank on.
    constexpr size_t kBatchSweep[] = {1, 2, 4, 8};
    std::cout << "\n-- batch scaling: Chip::inferBatch, 1 thread, "
                 "maxBatch=8 --\n"
              << std::left << std::setw(11) << "model";
    for (size_t b : kBatchSweep)
        std::cout << std::right << std::setw(12)
                  << ("b" + std::to_string(b) + " sps");
    std::cout << std::setw(10) << "b8/b1" << "\n";
    for (const BenchModel &bm : models) {
        double sps[std::size(kBatchSweep)] = {};
        std::cout << std::left << std::setw(11) << bm.name
                  << std::right << std::fixed << std::setprecision(1);
        for (size_t i = 0; i < std::size(kBatchSweep); ++i) {
            sps[i] = bestBatchSamplesPerSec(bm, kBatchSweep[i], 3);
            std::cout << std::setw(12) << sps[i];
            metrics.emplace_back(
                bm.name + ".batch_sps_b"
                    + std::to_string(kBatchSweep[i]),
                sps[i]);
        }
        const double scaling = sps[0] > 0.0
            ? sps[std::size(kBatchSweep) - 1] / sps[0] : 0.0;
        std::cout << std::setw(10) << bench::times(scaling) << "\n";
        metrics.emplace_back(bm.name + ".batch8_speedup", scaling);
    }
    bench::writeBenchJson("inference_hotpath", metrics,
                          /*batchLanes=*/8);

    // The scrape surface the runs above populated (stage histograms
    // fill only while tracing is on).
    std::cout << "\n-- telemetry dump (Prometheus text) --\n";
    telemetry::dumpAll(std::cout);

    const bool speedupPass = convSpeedup >= 3.0;
    const bool overheadPass = convOverheadPct <= 2.0;
    std::cout << "\nconv single-thread speedup over the reference: "
              << bench::times(convSpeedup)
              << (speedupPass ? "  PASS (>= 3.0x)" : "  FAIL (< 3.0x)")
              << "\nconv telemetry overhead: " << std::fixed
              << std::setprecision(2) << convOverheadPct << "%"
              << (overheadPass ? "  PASS (<= 2%)" : "  FAIL (> 2%)");
    std::cout << "\n";
    return speedupPass && overheadPass ? 0 : 1;
}
