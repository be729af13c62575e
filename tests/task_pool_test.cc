/**
 * @file
 * The shared task pool (common/task_pool.hh) and the composer work it
 * runs. The pool's contract: every shard runs exactly once, lanes are
 * distinct within a run, nested runs cannot deadlock, and the
 * RAPIDNN_THREADS override parses and clamps. Work sharded over it
 * must not depend on the thread count: k-means, the tree codebook and
 * the whole composer pipeline are byte-identical at any count. Threaded,
 * so the runtime label puts it under the TSan preset.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "blob/blob.hh"
#include "common/rng.hh"
#include "common/task_pool.hh"
#include "composer/composer.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "quant/codebook.hh"
#include "quant/kmeans.hh"

namespace rapidnn {
namespace {

using composer::Composer;
using composer::ComposerConfig;
using composer::ReinterpretedModel;

TEST(TaskPool, RunsEveryShardExactlyOnce)
{
    TaskPool pool(3);
    for (const size_t shards : {size_t(1), size_t(7), size_t(64)}) {
        std::vector<std::atomic<int>> hits(shards);
        for (auto &h : hits)
            h.store(0);
        pool.run(shards, 4, [&](size_t shard, size_t lane) {
            ASSERT_LT(shard, shards);
            ASSERT_LT(lane, 4u);
            hits[shard].fetch_add(1);
        });
        for (size_t s = 0; s < shards; ++s)
            EXPECT_EQ(hits[s].load(), 1) << "shard " << s;
    }
}

TEST(TaskPool, LanesAreDistinctWithinARun)
{
    TaskPool pool(3);
    std::vector<std::atomic<int>> inUse(4);
    for (auto &l : inUse)
        l.store(0);
    std::atomic<bool> collision{false};
    pool.run(32, 4, [&](size_t, size_t lane) {
        if (inUse[lane].fetch_add(1) != 0)
            collision.store(true);
        std::this_thread::yield();
        inUse[lane].fetch_sub(1);
    });
    EXPECT_FALSE(collision.load());
}

TEST(TaskPool, MaxLanesOneStaysOnCaller)
{
    TaskPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    pool.run(8, 1, [&](size_t, size_t lane) {
        EXPECT_EQ(lane, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(TaskPool, ReentrantNestedRuns)
{
    // A shard that starts a nested run() must not deadlock: callers
    // always self-execute shards, helpers are optional accelerators.
    TaskPool pool(2);
    std::atomic<size_t> innerTotal{0};
    pool.run(4, 3, [&](size_t, size_t) {
        pool.run(4, 2, [&](size_t, size_t) {
            innerTotal.fetch_add(1);
        });
    });
    EXPECT_EQ(innerTotal.load(), 16u);
}

TEST(TaskPool, SharedPoolHasAtLeastTwoLanes)
{
    // Even on a one-core host the shared pool keeps one helper, so
    // threaded code paths get real cross-thread coverage.
    EXPECT_GE(TaskPool::shared().lanes(), 2u);
}

TEST(TaskPool, EnvThreadOverrideParsesAndClamps)
{
    const char *old = std::getenv("RAPIDNN_THREADS");
    const std::string saved = old != nullptr ? old : "";

    ::setenv("RAPIDNN_THREADS", "6", 1);
    EXPECT_EQ(TaskPool::envThreadOverride(), 6u);
    EXPECT_EQ(TaskPool::defaultThreads(), 6u);
    ::setenv("RAPIDNN_THREADS", "0", 1);
    EXPECT_EQ(TaskPool::envThreadOverride(), 0u);
    ::setenv("RAPIDNN_THREADS", "9999", 1);
    EXPECT_EQ(TaskPool::envThreadOverride(), 64u);
    ::setenv("RAPIDNN_THREADS", "junk", 1);
    EXPECT_EQ(TaskPool::envThreadOverride(), 0u);
    ::unsetenv("RAPIDNN_THREADS");
    EXPECT_EQ(TaskPool::envThreadOverride(), 0u);
    EXPECT_GE(TaskPool::defaultThreads(), 1u);

    if (old != nullptr)
        ::setenv("RAPIDNN_THREADS", saved.c_str(), 1);
}

TEST(IntraOpDeterminism, KMeansIdenticalAcrossThreads)
{
    Rng rng(87);
    std::vector<double> samples(6000);
    for (double &s : samples)
        s = rng.uniform(-2.0, 2.0);

    quant::KMeansConfig serial;
    serial.k = 16;
    serial.seed = 88;
    const quant::KMeansResult base = quant::kmeans1d(samples, serial);

    for (const size_t threads : {size_t(2), size_t(3), size_t(8)}) {
        quant::KMeansConfig config = serial;
        config.threads = threads;
        const quant::KMeansResult result =
            quant::kmeans1d(samples, config);
        EXPECT_EQ(base.centroids, result.centroids)
            << threads << " threads";
        EXPECT_EQ(base.assignment, result.assignment)
            << threads << " threads";
        EXPECT_EQ(base.wcss, result.wcss) << threads << " threads";
        EXPECT_EQ(base.iterations, result.iterations)
            << threads << " threads";
    }
}

TEST(IntraOpDeterminism, TreeCodebookIdenticalAcrossThreads)
{
    Rng rng(89);
    std::vector<double> samples(4000);
    for (double &s : samples)
        s = rng.gaussian(0.0, 1.0);

    const quant::TreeCodebook serial(samples, 6, 90);
    for (const size_t threads : {size_t(2), size_t(4)}) {
        const quant::TreeCodebook threaded(samples, 6, 90, threads);
        ASSERT_EQ(serial.depth(), threaded.depth());
        for (size_t lvl = 1; lvl <= serial.depth(); ++lvl)
            EXPECT_EQ(serial.level(lvl).values(),
                      threaded.level(lvl).values())
                << "level " << lvl << " at " << threads << " threads";
    }
}

TEST(IntraOpDeterminism, ComposedModelByteIdenticalAcrossThreads)
{
    // The full composer pipeline (input codebooks, weight projection,
    // codebook trees) must emit a byte-identical model blob at any
    // thread count.
    auto composeAt = [](size_t threads) {
        nn::Dataset all = nn::makeVectorTask(
            {"iop-composer", 12, 3, 220, 0.35, 1.0, 91});
        auto [train, validation] = all.split(0.25);
        (void)validation;
        Rng rng(92);
        nn::Network net = nn::buildMlp(
            {.inputs = 12, .hidden = {16, 10}, .outputs = 3}, rng);
        nn::Trainer({.epochs = 3, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, train);

        ComposerConfig config;
        config.weightClusters = 16;
        config.inputClusters = 16;
        config.threads = threads;
        Composer composer(config);
        composer.projectWeights(net);
        ReinterpretedModel model = composer.reinterpret(net, train);
        return blob::buildBlob(model);
    };

    const std::vector<uint8_t> serial = composeAt(1);
    EXPECT_EQ(serial, composeAt(2));
    EXPECT_EQ(serial, composeAt(8));
}

} // namespace
} // namespace rapidnn
