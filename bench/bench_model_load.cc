/**
 * @file
 * Model cold-start and replica-scaling bench for the .rnnb blob
 * format.
 *
 * Sections:
 *   1. Cold-start load: ModelBlob::open from a warm page cache.
 *   2. Replica instantiation: per-replica Chip::configure (deriving
 *      the packed rows, conv gather plans and counting cycles per
 *      replica) vs Chip::clone over the shared immutable context set.
 *      The acceptance gate is a >= 5x clone speedup.
 *   3. N-replica resident memory: RSS growth per added replica for
 *      heap-configured chips vs blob-backed clones.
 *   4. Steady-state serve-path allocation: global operator new bytes
 *      per Chip::infer after warmup (the workspace arena should leave
 *      only the escaping logits vector and O(layers) tiny shape
 *      descriptors).
 *
 * Results are written to BENCH_model_load.json. --smoke (or
 * RAPIDNN_SMOKE=1) shrinks iteration counts and disables the gate.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "blob/blob.hh"
#include "composer/composer.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "rna/chip.hh"

// ------------------------------------------------ allocation counter
//
// Counts every unaligned global allocation. The aligned overloads stay
// default (nothing on the serve path uses them); new/delete pairs stay
// matched either way.

namespace {
std::atomic<uint64_t> g_allocBytes{0};
std::atomic<uint64_t> g_allocCalls{0};
} // namespace

void *
operator new(size_t n)
{
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }

namespace {

using namespace rapidnn;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** VmRSS in bytes from /proc/self/status (0 if unavailable). */
size_t
residentBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            size_t kb = 0;
            std::sscanf(line.c_str(), "VmRSS: %zu kB", &kb);
            return kb * 1024;
        }
    }
    return 0;
}

struct BenchModel
{
    std::string name;
    composer::ReinterpretedModel model;
    nn::Dataset data;
};

BenchModel
mlpModel()
{
    nn::Dataset all = nn::makeVectorTask(
        {"load-mlp", 48, 6, 420, 0.35, 1.0, 921});
    auto [train, validation] = all.split(0.25);
    Rng rng(922);
    nn::Network net = nn::buildMlp(
        {.inputs = 48, .hidden = {96, 96}, .outputs = 6}, rng);
    nn::Trainer({.epochs = 2, .batchSize = 16, .learningRate = 0.05})
        .train(net, train);
    composer::ComposerConfig config;
    config.weightClusters = 32;
    config.inputClusters = 32;
    composer::Composer composer(config);
    composer::ReinterpretedModel model =
        composer.reinterpret(net, train);
    model.setCanonicalInputShape(train.featureShape());
    return {"mlp", std::move(model), std::move(validation)};
}

BenchModel
cnnModel()
{
    nn::ImageTaskSpec spec;
    spec.name = "load-cnn";
    spec.side = 12;
    spec.classes = 4;
    spec.samples = 260;
    spec.seed = 923;
    nn::Dataset all = nn::makeImageTask(spec);
    auto [train, validation] = all.split(0.25);
    Rng rng(924);
    nn::CnnSpec cnn;
    cnn.channels = 3;
    cnn.height = cnn.width = 12;
    cnn.convChannels = {10, 12};
    cnn.denseWidths = {48};
    cnn.outputs = 4;
    nn::Network net = nn::buildCnn(cnn, rng);
    nn::Trainer({.epochs = 2, .batchSize = 16, .learningRate = 0.05})
        .train(net, train);
    composer::ComposerConfig config;
    config.weightClusters = 32;
    config.inputClusters = 32;
    composer::Composer composer(config);
    composer::ReinterpretedModel model =
        composer.reinterpret(net, train);
    model.setCanonicalInputShape(train.featureShape());
    return {"cnn", std::move(model), std::move(validation)};
}

/** Best-of-N seconds for one repeated action. */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        best = std::min(best, secondsSince(t0));
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    const char *smokeEnv = std::getenv("RAPIDNN_SMOKE");
    if (smokeEnv != nullptr && smokeEnv[0] == '1')
        smoke = true;

    const bench::BenchScale scale = bench::BenchScale::fromEnv();
    bench::banner("Model cold-start and replica scaling: heap vs mmap "
                  "blob",
                  scale, false);
    if (smoke)
        std::cout << "(smoke mode: reduced iterations, gate off)\n\n";

    const int loadReps = smoke ? 3 : 12;
    const int cloneReps = smoke ? 3 : 10;
    const size_t replicaCount = smoke ? 2 : 8;
    const size_t inferIters = smoke ? 20 : 200;

    std::vector<BenchModel> models;
    models.push_back(mlpModel());
    models.push_back(cnnModel());

    std::vector<std::pair<std::string, double>> metrics;
    double worstCloneSpeedup = 1e30;

    for (const BenchModel &bm : models) {
        // Left in the working directory (gitignored) so CI can run
        // tools/inspect_blob.py --validate over a fresh blob.
        const std::string blobPath = "bench_" + bm.name + ".rnnb";
        blob::writeBlobFile(bm.model, blobPath);

        // 1. Cold-start load (warm page cache; best-of to drop one-off
        // stalls).
        const double blobLoadSec = bestSeconds(loadReps, [&] {
            auto blob = blob::ModelBlob::open(blobPath);
            volatile size_t sink = blob->model().layers().size();
            (void)sink;
        });

        // 2. Replica instantiation: per-replica configure vs clone of
        // a blob-backed prototype.
        auto blob = blob::ModelBlob::open(blobPath);
        const double configureSec = bestSeconds(cloneReps, [&] {
            rna::Chip chip{rna::ChipConfig{}};
            chip.configure(bm.model);
        });
        rna::Chip prototype{rna::ChipConfig{}};
        prototype.configure(blob->model());
        const double cloneSec = bestSeconds(cloneReps, [&] {
            rna::Chip replica = prototype.clone();
            (void)replica;
        });
        const double cloneSpeedup =
            cloneSec > 0.0 ? configureSec / cloneSec : 0.0;
        worstCloneSpeedup = std::min(worstCloneSpeedup, cloneSpeedup);

        // 3. RSS growth per replica: independently configured heap
        // chips vs clones sharing the blob mapping and context set.
        size_t heapGrowth = 0, blobGrowth = 0;
        {
            std::vector<rna::Chip> replicas;
            replicas.reserve(replicaCount);
            const size_t before = residentBytes();
            for (size_t i = 0; i < replicaCount; ++i) {
                rna::Chip chip{rna::ChipConfig{}};
                chip.configure(bm.model);
                replicas.push_back(std::move(chip));
            }
            const size_t after = residentBytes();
            heapGrowth = after > before ? after - before : 0;
        }
        {
            std::vector<rna::Chip> replicas;
            replicas.reserve(replicaCount);
            const size_t before = residentBytes();
            for (size_t i = 0; i < replicaCount; ++i)
                replicas.push_back(prototype.clone());
            const size_t after = residentBytes();
            blobGrowth = after > before ? after - before : 0;
        }

        // 4. Steady-state serve-path allocation per infer.
        rna::PerfReport report;
        for (size_t i = 0; i < 5; ++i) // warm the workspace pools
            prototype.infer(bm.data.sample(i % bm.data.size()).x,
                            report);
        const uint64_t bytes0 =
            g_allocBytes.load(std::memory_order_relaxed);
        const uint64_t calls0 =
            g_allocCalls.load(std::memory_order_relaxed);
        for (size_t i = 0; i < inferIters; ++i)
            prototype.infer(bm.data.sample(i % bm.data.size()).x,
                            report);
        const double allocBytesPerInfer =
            double(g_allocBytes.load(std::memory_order_relaxed)
                   - bytes0)
            / double(inferIters);
        const double allocCallsPerInfer =
            double(g_allocCalls.load(std::memory_order_relaxed)
                   - calls0)
            / double(inferIters);

        std::cout << "== " << bm.name << " ==\n" << std::fixed
                  << std::setprecision(1)
                  << "  blob load (mmap): " << blobLoadSec * 1e6
                  << " us\n"
                  << "  configure:        " << configureSec * 1e6
                  << " us\n"
                  << "  clone:            " << cloneSec * 1e6
                  << " us   (" << bench::times(cloneSpeedup) << ")\n"
                  << "  rss/" << replicaCount << " replicas: heap "
                  << double(heapGrowth) / 1024.0 << " KiB, blob "
                  << double(blobGrowth) / 1024.0 << " KiB\n"
                  << "  steady-state alloc/infer: "
                  << allocBytesPerInfer << " B in "
                  << allocCallsPerInfer << " calls\n"
                  << "  blob file: "
                  << double(blob->fileBytes()) / 1024.0 << " KiB\n\n";

        metrics.emplace_back(bm.name + ".blob_load_us",
                             blobLoadSec * 1e6);
        metrics.emplace_back(bm.name + ".configure_us",
                             configureSec * 1e6);
        metrics.emplace_back(bm.name + ".clone_us", cloneSec * 1e6);
        metrics.emplace_back(bm.name + ".replica_speedup",
                             cloneSpeedup);
        metrics.emplace_back(bm.name + ".heap_rss_per_replica_bytes",
                             double(heapGrowth) / replicaCount);
        metrics.emplace_back(bm.name + ".blob_rss_per_replica_bytes",
                             double(blobGrowth) / replicaCount);
        metrics.emplace_back(bm.name + ".alloc_bytes_per_infer",
                             allocBytesPerInfer);
        metrics.emplace_back(bm.name + ".alloc_calls_per_infer",
                             allocCallsPerInfer);
        metrics.emplace_back(bm.name + ".blob_file_bytes",
                             double(blob->fileBytes()));
    }

    // Smoke dumps shrink every workload; the flag keeps them apart
    // from full runs.
    metrics.emplace_back("smoke", smoke ? 1.0 : 0.0);
    bench::writeBenchJson("model_load", metrics);

    const bool pass = worstCloneSpeedup >= 5.0;
    std::cout << "\nworst replica-instantiation speedup: "
              << bench::times(worstCloneSpeedup)
              << (pass ? "  PASS (>= 5.0x)" : "  FAIL (< 5.0x)")
              << "\n";
    if (smoke)
        return 0;
    return pass ? 0 : 1;
}
