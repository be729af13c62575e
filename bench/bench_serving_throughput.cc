/**
 * @file
 * Serving-throughput bench: drives the batched multi-threaded runtime
 * over Table 2 benchmark models and reports how deployment throughput
 * scales from 1 to 8 chip-replica workers.
 *
 * Two throughput columns are printed. "modeled" divides completed
 * requests by the busiest replica's simulated chip time — the paper's
 * replicated-accelerator deployment metric, independent of how many
 * host cores the simulator gets. "wall" is host-side requests/second,
 * which additionally depends on host parallelism. The ≥3x acceptance
 * target applies to the modeled deployment scaling.
 *
 * A second section measures served throughput with full batches: host
 * wall samples/sec through one worker at maxBatch = 8, best-of-N over
 * the submit -> drain window.
 *
 * --smoke (or RAPIDNN_SMOKE=1) shrinks the request counts and
 * disables the gate, for CI tier-1/tsan smoke runs.
 */

#include <cstring>
#include <iomanip>
#include <iostream>

#include "bench_util.hh"
#include "composer/composer.hh"
#include "runtime/serving_engine.hh"

namespace {

using namespace rapidnn;

struct ServeResult
{
    double modeledRps;
    double wallRps;
    double p50Us, p95Us, p99Us;
    double meanBatch;
};

ServeResult
serveOnce(const composer::ReinterpretedModel &model,
          const nn::Dataset &validation, size_t workers,
          size_t requests, size_t maxBatch)
{
    runtime::ServingConfig serving;
    serving.workers = workers;
    serving.maxBatch = maxBatch;
    serving.maxLatencyUs = 500;
    serving.queueCapacity = 2 * requests;
    // Round-robin sharding pins the request distribution to exactly
    // 1/N per replica, so the scaling measurement is deterministic
    // regardless of how the host schedules the worker threads.
    serving.dispatch = runtime::DispatchPolicy::RoundRobin;
    runtime::ServingEngine engine(model, rna::ChipConfig{}, serving);

    std::vector<std::future<runtime::InferResult>> futures;
    futures.reserve(requests);
    for (size_t i = 0; i < requests; ++i)
        futures.push_back(
            engine.submit(validation.sample(i % validation.size()).x));
    for (auto &future : futures)
        future.get();
    engine.drain();

    const runtime::ServerStats stats = engine.stats();
    return {stats.modeledThroughputRps(), stats.throughputRps(),
            stats.p50LatencyUs, stats.p95LatencyUs, stats.p99LatencyUs,
            stats.batchSizes.summary().mean()};
}

/**
 * Best-of-N wall samples/sec over the submit -> drain window: one
 * worker so replica scheduling can't mask the chip-level effect,
 * maxBatch = 8, and a warmup round so engine construction, workspace
 * arenas and conv plans are excluded from the timed window.
 */
double
bestServedSps(const composer::ReinterpretedModel &model,
              const nn::Dataset &validation, size_t requests, int reps)
{
    using Clock = std::chrono::steady_clock;

    runtime::ServingConfig serving;
    serving.workers = 1;
    serving.maxBatch = 8;
    serving.maxLatencyUs = 500;
    serving.queueCapacity = 2 * requests;
    serving.dispatch = runtime::DispatchPolicy::RoundRobin;
    runtime::ServingEngine engine(model, rna::ChipConfig{}, serving);

    std::vector<std::future<runtime::InferResult>> futures;
    futures.reserve(requests);
    double best = 0.0;
    for (int r = 0; r < reps + 1; ++r) {  // round 0 = warmup
        futures.clear();
        const auto t0 = Clock::now();
        for (size_t i = 0; i < requests; ++i)
            futures.push_back(engine.submit(
                validation.sample(i % validation.size()).x));
        for (auto &future : futures)
            future.get();
        engine.drain();
        const double sec =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (r > 0 && sec > 0.0)
            best = std::max(best,
                            static_cast<double>(requests) / sec);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    using bench::BenchScale;

    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    const char *smokeEnv = std::getenv("RAPIDNN_SMOKE");
    if (smokeEnv != nullptr && smokeEnv[0] == '1')
        smoke = true;

    const BenchScale scale = BenchScale::fromEnv();
    bench::banner("Serving throughput: batched multi-threaded runtime "
                  "over Table 2 models",
                  scale);
    if (smoke)
        std::cout << "smoke mode: reduced requests, gates off\n\n";

    // CIFAR-10 is in the default set (not just RAPIDNN_FULL) as the
    // conv workload; its stand-in builds in ~2s at the default scale.
    std::vector<nn::Benchmark> benchmarks = {
        nn::Benchmark::Mnist, nn::Benchmark::Isolet,
        nn::Benchmark::Har, nn::Benchmark::Cifar10};
    if (std::getenv("RAPIDNN_FULL") != nullptr &&
        std::getenv("RAPIDNN_FULL")[0] == '1')
        benchmarks.push_back(nn::Benchmark::Cifar100);

    struct ServeModel
    {
        std::string name;
        composer::ReinterpretedModel model;
        nn::Dataset validation;
    };
    std::vector<ServeModel> models;
    for (nn::Benchmark benchmark : benchmarks) {
        core::BenchmarkModel bm =
            core::buildBenchmarkModel(benchmark, scale.options());
        composer::Composer composer(composer::ComposerConfig{});
        models.push_back(
            {nn::benchmarkName(benchmark),
             composer.reinterpret(bm.network, bm.train),
             bench::cappedValidation(bm.validation, 64)});
    }

    const size_t requests = smoke ? 16 : 48;
    std::cout << std::left << std::setw(10) << "model"
              << std::right << std::setw(14) << "modeled@1"
              << std::setw(14) << "modeled@8" << std::setw(10)
              << "speedup" << std::setw(12) << "wall@8"
              << std::setw(10) << "p50 us" << std::setw(10)
              << "p99 us" << std::setw(10) << "batch" << "\n";

    bool scalingPass = true;
    std::vector<std::pair<std::string, double>> metrics;
    for (const ServeModel &sm : models) {
        // Replica-scaling measurement at batch size 1 (so the speedup
        // isolates replication), plus a batched 8-worker run for the
        // latency/batch columns.
        const ServeResult one =
            serveOnce(sm.model, sm.validation, 1, requests, 1);
        const ServeResult eightScaling =
            serveOnce(sm.model, sm.validation, 8, requests, 1);
        const ServeResult eight =
            serveOnce(sm.model, sm.validation, 8, requests, 8);
        const double speedup = one.modeledRps > 0.0
            ? eightScaling.modeledRps / one.modeledRps : 0.0;
        scalingPass = scalingPass && speedup >= 3.0;

        std::cout << std::left << std::setw(10) << sm.name
                  << std::right << std::fixed << std::setprecision(0)
                  << std::setw(14) << one.modeledRps << std::setw(14)
                  << eightScaling.modeledRps << std::setw(10)
                  << bench::times(speedup) << std::setw(12)
                  << eight.wallRps << std::setprecision(1)
                  << std::setw(10) << eight.p50Us << std::setw(10)
                  << eight.p99Us << std::setw(10) << eight.meanBatch
                  << "\n";

        metrics.emplace_back(sm.name + ".modeled_rps_1w",
                             one.modeledRps);
        metrics.emplace_back(sm.name + ".modeled_rps_8w",
                             eightScaling.modeledRps);
        metrics.emplace_back(sm.name + ".modeled_speedup_8w", speedup);
        metrics.emplace_back(sm.name + ".wall_rps_8w", eight.wallRps);
        metrics.emplace_back(sm.name + ".p50_us_8w", eight.p50Us);
        metrics.emplace_back(sm.name + ".p99_us_8w", eight.p99Us);
        metrics.emplace_back(sm.name + ".mean_batch_8w",
                             eight.meanBatch);
    }

    // Served throughput with full batches: one worker, maxBatch = 8,
    // host wall sps over the submit -> drain window, best-of-N.
    const int reps = smoke ? 1 : 5;
    std::cout << "\n-- served throughput: 1 worker, maxBatch=8 --\n"
              << std::left << std::setw(10) << "model" << std::right
              << std::setw(14) << "batched sps" << "\n";
    for (const ServeModel &sm : models) {
        const double batSps =
            bestServedSps(sm.model, sm.validation, requests, reps);
        std::cout << std::left << std::setw(10) << sm.name
                  << std::right << std::fixed << std::setprecision(0)
                  << std::setw(14) << batSps << "\n";
        metrics.emplace_back(sm.name + ".served_sps_batched_1w", batSps);
    }
    metrics.emplace_back("smoke", smoke ? 1.0 : 0.0);
    bench::writeBenchJson("serving_throughput", metrics,
                          /*batchLanes=*/8);

    if (smoke) {
        std::cout << "\nsmoke mode: acceptance gate skipped\n";
        return 0;
    }
    std::cout << "\nmodeled deployment speedup at 8 workers vs 1: "
              << (scalingPass ? "PASS (>= 3.0x on every model)"
                              : "FAIL (< 3.0x somewhere)")
              << "\n";
    return scalingPass ? 0 : 1;
}
