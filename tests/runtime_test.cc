/**
 * @file
 * Tests for the serving runtime: bounded-queue backpressure and close
 * semantics, micro-batch flush policy (size and deadline), graceful
 * shutdown with in-flight requests, per-worker PerfReport merging, and
 * the headline determinism guarantee — parallel serving produces
 * bitwise-identical logits to serial Chip::infer at any worker count —
 * and request validation at admission.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <stdexcept>
#include <thread>

#include "composer/composer.hh"
#include "core/rapidnn.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "runtime/batcher.hh"
#include "runtime/request_queue.hh"
#include "runtime/serving_engine.hh"

namespace rapidnn::runtime {
namespace {

using composer::Composer;
using composer::ComposerConfig;
using composer::ReinterpretedModel;

// -------------------------------------------------------- bounded queue

TEST(BoundedQueue, TryPushFailsWhenFull)
{
    BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    EXPECT_FALSE(queue.tryPush(3));
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.pop(), std::optional<int>(1));
    EXPECT_TRUE(queue.tryPush(3));
}

TEST(BoundedQueue, PushBlocksUntilPopMakesRoom)
{
    BoundedQueue<int> queue(1);
    ASSERT_TRUE(queue.push(1));

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        ASSERT_TRUE(queue.push(2));  // blocks: queue is full
        pushed.store(true);
    });

    // The producer must be stuck behind the full queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(pushed.load());

    EXPECT_EQ(queue.pop(), std::optional<int>(1));
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(queue.pop(), std::optional<int>(2));
}

TEST(BoundedQueue, CloseDrainsThenSignalsEndOfStream)
{
    BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.push(1));
    ASSERT_TRUE(queue.push(2));
    queue.close();

    EXPECT_FALSE(queue.push(3));     // refused after close
    EXPECT_FALSE(queue.tryPush(3));
    EXPECT_EQ(queue.pop(), std::optional<int>(1));  // drain continues
    EXPECT_EQ(queue.pop(), std::optional<int>(2));
    EXPECT_EQ(queue.pop(), std::nullopt);           // end of stream
}

TEST(BoundedQueue, CloseWakesBlockedConsumer)
{
    BoundedQueue<int> queue(4);
    std::thread consumer([&] {
        EXPECT_EQ(queue.pop(), std::nullopt);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    consumer.join();
}

// -------------------------------------------------------- micro batcher

TEST(MicroBatcher, FlushesAtMaxBatch)
{
    BoundedQueue<int> queue(32);
    MicroBatcher<int> batcher(queue, 4,
                              std::chrono::microseconds(500000));
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(queue.push(i));

    const auto start = std::chrono::steady_clock::now();
    std::vector<int> first = batcher.nextBatch();
    const auto elapsed = std::chrono::steady_clock::now() - start;

    // A full batch flushes immediately, well before the 500 ms
    // deadline.
    EXPECT_EQ(first.size(), 4u);
    EXPECT_LT(elapsed, std::chrono::milliseconds(400));

    queue.close();
    std::vector<int> rest = batcher.nextBatch();
    EXPECT_EQ(rest.size(), 2u);
    EXPECT_TRUE(batcher.nextBatch().empty());  // end of stream
}

TEST(MicroBatcher, FlushesPartialBatchAtDeadline)
{
    BoundedQueue<int> queue(32);
    const auto maxLatency = std::chrono::milliseconds(30);
    MicroBatcher<int> batcher(
        queue, 64,
        std::chrono::duration_cast<std::chrono::microseconds>(
            maxLatency));
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(queue.push(i));

    const auto start = std::chrono::steady_clock::now();
    std::vector<int> batch = batcher.nextBatch();
    const auto elapsed = std::chrono::steady_clock::now() - start;

    // Partial batch: held for the flush deadline, then released.
    EXPECT_EQ(batch.size(), 3u);
    EXPECT_GE(elapsed, std::chrono::milliseconds(25));
    EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// ----------------------------------------------------- perf report merge

TEST(PerfReport, MergeAccumulatesTotalsAndKeepsMaxStage)
{
    rna::PerfReport a;
    a.latency = Time::microseconds(10.0);
    a.stageTime = Time::microseconds(4.0);
    a.energy = Energy::microjoules(2.0);
    a.totalOps = 100;
    a.addCategory("activation", Time::microseconds(1.0),
                  Energy::microjoules(0.5));

    rna::PerfReport b;
    b.latency = Time::microseconds(6.0);
    b.stageTime = Time::microseconds(9.0);
    b.energy = Energy::microjoules(1.0);
    b.totalOps = 50;
    b.inferences = 3;
    b.addCategory("activation", Time::microseconds(2.0),
                  Energy::microjoules(0.25));
    b.addCategory("pooling", Time::microseconds(3.0),
                  Energy::microjoules(0.75));

    a.merge(b);
    EXPECT_DOUBLE_EQ(a.latency.us(), 16.0);
    EXPECT_DOUBLE_EQ(a.stageTime.us(), 9.0);
    EXPECT_DOUBLE_EQ(a.energy.uj(), 3.0);
    EXPECT_EQ(a.totalOps, 150u);
    EXPECT_EQ(a.inferences, 3u);  // a counted as 0 recorded samples
    EXPECT_DOUBLE_EQ(a.category("activation").time.us(), 3.0);
    EXPECT_DOUBLE_EQ(a.category("pooling").energy.uj(), 0.75);

    rna::PerfReport single;  // default single-inference report
    a.merge(single);
    EXPECT_EQ(a.inferences, 4u);
}

// ------------------------------------------------------------- fixture

struct ComposedMlp
{
    nn::Dataset train;
    nn::Dataset validation;
    nn::Network net;
    ReinterpretedModel model;

    ComposedMlp()
    {
        nn::Dataset all =
            nn::makeVectorTask({"toy", 16, 3, 260, 0.35, 1.0, 91});
        auto [tr, va] = all.split(0.25);
        train = std::move(tr);
        validation = std::move(va);
        Rng rng(92);
        net = nn::buildMlp({.inputs = 16, .hidden = {14, 10},
                            .outputs = 3}, rng);
        nn::Trainer trainer({.epochs = 8, .batchSize = 16,
                             .learningRate = 0.05});
        trainer.train(net, train);
        ComposerConfig config;
        config.weightClusters = 16;
        config.inputClusters = 16;
        Composer composer(config);
        model = composer.reinterpret(net, train);
    }
};

ComposedMlp &
composedMlp()
{
    static ComposedMlp instance;
    return instance;
}

// -------------------------------------------------------- serving engine

TEST(ServingEngine, ParallelMatchesSerialBitwise)
{
    auto &fx = composedMlp();
    const rna::ChipConfig chipConfig{};

    // Serial reference: one chip, samples in order.
    rna::Chip serial(chipConfig);
    serial.configure(fx.model);
    std::vector<std::vector<double>> expected;
    for (const auto &sample : fx.validation.samples()) {
        rna::PerfReport report;
        expected.push_back(serial.infer(sample.x, report));
    }

    for (size_t workers : {1u, 2u, 8u}) {
        ServingConfig serving;
        serving.workers = workers;
        serving.maxBatch = 4;
        serving.maxLatencyUs = 100;
        serving.queueCapacity = 16;
        ServingEngine engine(fx.model, chipConfig, serving);

        std::vector<std::future<InferResult>> futures;
        for (const auto &sample : fx.validation.samples())
            futures.push_back(engine.submit(sample.x));

        for (size_t i = 0; i < futures.size(); ++i) {
            InferResult result = futures[i].get();
            ASSERT_EQ(result.logits.size(), expected[i].size())
                << "workers=" << workers << " sample=" << i;
            for (size_t j = 0; j < expected[i].size(); ++j)
                EXPECT_EQ(result.logits[j], expected[i][j])
                    << "workers=" << workers << " sample=" << i
                    << " logit=" << j;
            EXPECT_GT(result.perf.latency.ns(), 0.0);
            EXPECT_GE(result.batchSize, 1u);
            EXPECT_LT(result.workerId, workers);
        }
        engine.drain();
        EXPECT_EQ(engine.stats().completed, futures.size());
    }
}

TEST(ServingEngine, ConcurrentInferOnOneChipIsBitwiseIdentical)
{
    // infer() is const and documented safe for concurrent calls on one
    // chip: the shared workspace is leased by one caller at a time and
    // losers fall back to private spares. Hammer a single chip from
    // several threads and require the serial answers.
    auto &fx = composedMlp();
    rna::Chip chip{rna::ChipConfig{}};
    chip.configure(fx.model);

    std::vector<std::vector<double>> expected;
    for (const auto &sample : fx.validation.samples()) {
        rna::PerfReport report;
        expected.push_back(chip.infer(sample.x, report));
    }

    const size_t threads = 4;
    std::vector<std::vector<std::vector<double>>> got(threads);
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (const auto &sample : fx.validation.samples()) {
                rna::PerfReport report;
                got[t].push_back(chip.infer(sample.x, report));
            }
        });
    for (auto &worker : pool)
        worker.join();

    for (size_t t = 0; t < threads; ++t) {
        ASSERT_EQ(got[t].size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i)
            for (size_t j = 0; j < expected[i].size(); ++j)
                EXPECT_EQ(got[t][i][j], expected[i][j])
                    << "thread=" << t << " sample=" << i;
    }
}

TEST(ServingEngine, GracefulShutdownCompletesInFlight)
{
    auto &fx = composedMlp();
    ServingConfig serving;
    serving.workers = 2;
    serving.maxBatch = 4;
    serving.maxLatencyUs = 1000;
    serving.queueCapacity = 32;
    ServingEngine engine(fx.model, rna::ChipConfig{}, serving);

    std::vector<std::future<InferResult>> futures;
    for (size_t i = 0; i < 12; ++i)
        futures.push_back(
            engine.submit(fx.validation.sample(i % 4).x));

    // Shut down immediately: everything accepted must still finish.
    engine.shutdown();
    for (auto &future : futures) {
        InferResult result = future.get();
        EXPECT_FALSE(result.logits.empty());
    }
    EXPECT_EQ(engine.stats().completed, futures.size());

    // Post-shutdown submissions fail with broken_promise.
    std::future<InferResult> late =
        engine.submit(fx.validation.sample(0).x);
    EXPECT_THROW(late.get(), std::future_error);
}

TEST(ServingEngine, StatsSnapshotIsConsistent)
{
    auto &fx = composedMlp();
    ServingConfig serving;
    serving.workers = 2;
    serving.maxBatch = 3;
    serving.maxLatencyUs = 200;
    serving.queueCapacity = 8;
    ServingEngine engine(fx.model, rna::ChipConfig{}, serving);

    const size_t attempts = 24;
    size_t accepted = 0;
    std::vector<std::future<InferResult>> futures;
    for (size_t i = 0; i < attempts; ++i) {
        auto future = engine.trySubmit(fx.validation.sample(i % 6).x);
        if (future) {
            futures.push_back(std::move(*future));
            ++accepted;
        }
    }
    for (auto &future : futures)
        future.get();
    engine.drain();

    ServerStats stats = engine.stats();
    EXPECT_EQ(stats.submitted, accepted);
    EXPECT_EQ(stats.rejected, attempts - accepted);
    EXPECT_EQ(stats.completed, accepted);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_EQ(stats.workers, 2u);

    // Batch-size histogram covers every executed batch, none larger
    // than maxBatch.
    uint64_t histTotal = 0;
    for (uint64_t count : stats.batchSizes.bins())
        histTotal += count;
    EXPECT_EQ(histTotal, stats.batches);
    EXPECT_LE(stats.batchSizes.summary().max(),
              double(serving.maxBatch));
    EXPECT_EQ(static_cast<uint64_t>(
                  stats.batchSizes.summary().sum()),
              accepted);

    // Percentiles are ordered and positive once work completed.
    EXPECT_GT(stats.p50LatencyUs, 0.0);
    EXPECT_LE(stats.p50LatencyUs, stats.p95LatencyUs);
    EXPECT_LE(stats.p95LatencyUs, stats.p99LatencyUs);
    EXPECT_GT(stats.modeledChipTime.ns(), 0.0);
    EXPECT_GT(stats.throughputRps(), 0.0);
    EXPECT_GT(stats.modeledThroughputRps(), 0.0);

    // The merged deployment report accounts for every inference.
    rna::PerfReport merged = engine.perfReport();
    EXPECT_EQ(merged.inferences, accepted);
    EXPECT_GT(merged.energy.j(), 0.0);
}

TEST(ServingEngine, ModeledThroughputScalesWithReplicas)
{
    // Which replica serves a request is up to the host scheduler, so
    // this checks the replica accounting rather than a split: with one
    // request per batch, a replica's modeled busy time is the sum of
    // its requests' chip latencies, the engine reports the busiest
    // replica, and the replicas together carry exactly the serial
    // chip's work.
    auto &fx = composedMlp();
    const size_t requests = 16;

    struct Served
    {
        double modeledSec;
        std::vector<double> perWorkerSec;
    };
    auto serve = [&](size_t workers) {
        ServingConfig serving;
        serving.workers = workers;
        serving.maxBatch = 1;  // isolate replica scaling from batching
        serving.maxLatencyUs = 50;
        serving.queueCapacity = requests;
        ServingEngine engine(fx.model, rna::ChipConfig{}, serving);
        std::vector<std::future<InferResult>> futures;
        for (size_t i = 0; i < requests; ++i)
            futures.push_back(
                engine.submit(fx.validation.sample(i % 8).x));
        // Summed in submission order, which is each replica's claim
        // order from the one shared queue.
        std::vector<Time> perWorker(workers);
        for (auto &future : futures) {
            const InferResult result = future.get();
            EXPECT_EQ(result.batchSize, 1u);
            perWorker.at(result.workerId) += result.perf.latency;
        }
        engine.drain();
        Served served{engine.stats().modeledChipTime.sec(), {}};
        for (const Time &t : perWorker)
            served.perWorkerSec.push_back(t.sec());
        return served;
    };

    const Served one = serve(1);
    const Served four = serve(4);
    EXPECT_GT(one.modeledSec, 0.0);
    EXPECT_DOUBLE_EQ(one.modeledSec, one.perWorkerSec[0]);
    EXPECT_DOUBLE_EQ(four.modeledSec,
                     *std::max_element(four.perWorkerSec.begin(),
                                       four.perWorkerSec.end()));
    double total = 0.0;
    for (double sec : four.perWorkerSec)
        total += sec;
    EXPECT_NEAR(total, one.modeledSec, 1e-9 * one.modeledSec);
}

TEST(ServingEngine, WallClockStartsAtFirstSubmit)
{
    // Time before the first submit (configure, clones, thread spawn,
    // idle) is not serving time: the rate covers first submit ->
    // snapshot only, so it is at least completed / that span.
    auto &fx = composedMlp();
    ServingConfig serving;
    serving.workers = 2;
    ServingEngine engine(fx.model, rna::ChipConfig{}, serving);
    EXPECT_EQ(engine.stats().wallSeconds, 0.0);
    EXPECT_EQ(engine.stats().throughputRps(), 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    constexpr size_t kRequests = 40;
    const auto firstSubmit = std::chrono::steady_clock::now();
    std::vector<std::future<InferResult>> futures;
    for (size_t i = 0; i < kRequests; ++i)
        futures.push_back(engine.submit(fx.validation.sample(i % 8).x));
    for (auto &future : futures)
        future.get();
    const ServerStats stats = engine.stats();
    const double span = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - firstSubmit).count();

    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_GT(stats.wallSeconds, 0.0);
    EXPECT_LE(stats.wallSeconds, span);
    EXPECT_GE(stats.throughputRps(), double(kRequests) / span);
}

/** Threads of this process, from /proc/self/task (0 if unreadable). */
size_t
processThreads()
{
    std::error_code ec;
    size_t n = 0;
    for (auto it = std::filesystem::directory_iterator("/proc/self/task",
                                                       ec);
         !ec && it != std::filesystem::directory_iterator();
         it.increment(ec))
        ++n;
    return n;
}

TEST(ServingEngine, DefaultEngineStartsOnlyItsWorkers)
{
    // A default engine never shards a request, so it must not start
    // the shared task pool's helper threads: its workers are the only
    // threads it adds.
    auto &fx = composedMlp();
    // Sanitizer runtimes may start a background thread of their own at
    // the first thread creation; let that happen before counting.
    std::thread([] {}).join();
    const size_t before = processThreads();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/task unavailable";
    ServingConfig serving;
    serving.workers = 2;
    ServingEngine engine(fx.model, rna::ChipConfig{}, serving);
    EXPECT_EQ(processThreads(), before + serving.workers);
    engine.submit(fx.validation.sample(0).x).get();
    EXPECT_EQ(processThreads(), before + serving.workers);
}

TEST(ServingEngine, InvalidRequestsFailCleanly)
{
    // A request of the wrong shape or with a non-finite value fails
    // its future with std::invalid_argument without entering a queue;
    // the engine keeps serving, and the next valid request gets the
    // serial chip's answer bit for bit.
    auto &fx = composedMlp();
    const nn::Tensor &valid = fx.validation.sample(0).x;
    rna::Chip serial{rna::ChipConfig{}};
    serial.configure(fx.model);
    rna::PerfReport report;
    const std::vector<double> expected = serial.infer(valid, report);

    ServingConfig serving;
    serving.workers = 1;
    ServingEngine engine(fx.model, rna::ChipConfig{}, serving);

    std::future<InferResult> shortRequest =
        engine.submit(nn::Tensor({3}));
    EXPECT_THROW(shortRequest.get(), std::invalid_argument);
    nn::Tensor nan = valid;
    nan[5] = std::numeric_limits<float>::quiet_NaN();
    std::optional<std::future<InferResult>> nanRequest =
        engine.trySubmit(std::move(nan));
    ASSERT_TRUE(nanRequest.has_value());
    EXPECT_THROW(nanRequest->get(), std::invalid_argument);
    nn::Tensor inf = valid;
    inf[0] = std::numeric_limits<float>::infinity();
    EXPECT_THROW(engine.submit(std::move(inf)).get(),
                 std::invalid_argument);

    EXPECT_EQ(engine.submit(valid).get().logits, expected);
    engine.drain();
    const ServerStats stats = engine.stats();
    EXPECT_EQ(stats.invalid, 3u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(ServingEngine, ModelWithoutInputShapeIsRefused)
{
    // Requests are validated against the model's canonical input
    // shape, so a model that records none cannot be served.
    ReinterpretedModel model = composedMlp().model;
    model.setCanonicalInputShape({});
    EXPECT_THROW(ServingEngine(model, rna::ChipConfig{}),
                 std::invalid_argument);
}

TEST(ServingEngine, ZeroWorkersIsRefused)
{
    // A caller's configuration error surfaces as an exception, not a
    // process abort.
    ServingConfig config;
    config.workers = 0;
    EXPECT_THROW(
        ServingEngine(composedMlp().model, rna::ChipConfig{}, config),
        std::invalid_argument);
}

TEST(Rapidnn, ServeEntryPoint)
{
    auto &fx = composedMlp();
    core::RapidnnConfig config;
    config.composer.weightClusters = 16;
    config.composer.inputClusters = 16;
    core::Rapidnn rapid(config);
    Rng rng(93);
    nn::Network net = nn::buildMlp({.inputs = 16, .hidden = {10},
                                    .outputs = 3}, rng);
    nn::Trainer trainer({.epochs = 6, .batchSize = 16,
                         .learningRate = 0.05});
    trainer.train(net, fx.train);
    core::RunReport report =
        rapid.runOneShot(net, fx.train, fx.validation);
    EXPECT_GE(report.acceleratorError, 0.0);

    ServingConfig serving;
    serving.workers = 2;
    auto engine = rapid.serve(serving);
    auto future = engine->submit(fx.validation.sample(0).x);
    InferResult result = future.get();
    EXPECT_FALSE(result.logits.empty());
    engine->shutdown();
    EXPECT_EQ(engine->stats().completed, 1u);
}

} // namespace
} // namespace rapidnn::runtime
