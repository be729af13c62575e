/**
 * @file
 * Tests for the telemetry layer: registry semantics under concurrency,
 * histogram bucketing and interpolated quantiles, span lifecycle and
 * ring-buffer wrap, golden-string Prometheus and Chrome-trace
 * rendering, the loopback scrape endpoint, and the
 * StatsCollector percentile regression (interpolated, never truncated).
 *
 * Labeled "runtime" so the whole file runs under the TSan preset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "runtime/server_stats.hh"
#include "telemetry/telemetry.hh"

namespace rapidnn::telemetry {
namespace {

// ------------------------------------------------------------ registry

TEST(Registry, CounterGaugeBasics)
{
    Registry reg;
    Counter &c = reg.counter("c_total", "help");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    // Idempotent registration returns the same object.
    EXPECT_EQ(&reg.counter("c_total", "help"), &c);
    // Distinct labels are a distinct series.
    EXPECT_NE(&reg.counter("c_total", "help", "k=\"v\""), &c);

    Gauge &g = reg.gauge("g", "help");
    g.set(7);
    g.add(-3);
    EXPECT_EQ(g.value(), 4);
}

TEST(Registry, HistogramBucketSemantics)
{
    Registry reg;
    Histogram &h = reg.histogram("h_seconds", "help", {1.0, 2.0, 5.0});
    // le semantics: equality lands in the bucket, above-the-top lands
    // in +Inf.
    h.observe(0.5);
    h.observe(1.0);
    h.observe(1.5);
    h.observe(5.0);
    h.observe(9.0);
    const std::vector<uint64_t> counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0
    EXPECT_EQ(counts[1], 1u);  // 1.5
    EXPECT_EQ(counts[2], 1u);  // 5.0
    EXPECT_EQ(counts[3], 1u);  // 9.0 -> +Inf
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 9.0);
    // Same bounds re-register fine and alias the same object.
    EXPECT_EQ(&reg.histogram("h_seconds", "help", {1.0, 2.0, 5.0}), &h);
}

TEST(Registry, ConcurrentWritersAreExact)
{
    Registry reg;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            // Re-resolve through the registry on every thread to
            // exercise the registration lock concurrently too.
            Counter &c = reg.counter("hammer_total", "help");
            Histogram &h =
                reg.histogram("hammer_seconds", "help", {1.0});
            for (int i = 0; i < kPerThread; ++i) {
                c.add(1);
                h.observe(0.5);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(reg.counter("hammer_total", "help").value(),
              uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(reg.histogram("hammer_seconds", "help", {1.0}).count(),
              uint64_t(kThreads) * kPerThread);
}

TEST(Registry, CallbacksSampleAtSnapshotAndUnregister)
{
    Registry reg;
    int depth = 3;
    {
        ScopedCallback cb(reg, "depth", "help", MetricKind::Gauge,
                          [&depth] { return double(depth); });
        std::vector<MetricSnapshot> snap = reg.snapshot();
        ASSERT_EQ(snap.size(), 1u);
        EXPECT_EQ(snap[0].name, "depth");
        EXPECT_DOUBLE_EQ(snap[0].value, 3.0);
        depth = 9;
        EXPECT_DOUBLE_EQ(reg.snapshot()[0].value, 9.0);
    }
    // ScopedCallback removed the series on scope exit.
    EXPECT_TRUE(reg.snapshot().empty());

    // Re-registering replaces the callback; the stale id is a no-op.
    const uint64_t first = reg.addCallback(
        "v", "help", MetricKind::Gauge, [] { return 1.0; });
    reg.addCallback("v", "help", MetricKind::Gauge, [] { return 2.0; });
    reg.removeCallback(first);
    ASSERT_EQ(reg.snapshot().size(), 1u);
    EXPECT_DOUBLE_EQ(reg.snapshot()[0].value, 2.0);
}

TEST(Registry, SnapshotOrdersByNameThenLabels)
{
    Registry reg;
    reg.counter("b_total", "help", "x=\"2\"");
    reg.counter("b_total", "help");
    reg.gauge("a", "help");
    std::vector<MetricSnapshot> snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a");
    EXPECT_EQ(snap[1].name, "b_total");
    EXPECT_EQ(snap[1].labels, "");
    EXPECT_EQ(snap[2].labels, "x=\"2\"");
}

// ------------------------------------------------- histogram quantiles

MetricSnapshot
histSnap(std::vector<double> bounds, std::vector<uint64_t> counts)
{
    MetricSnapshot snap;
    snap.kind = MetricKind::Histogram;
    snap.bounds = std::move(bounds);
    snap.counts = std::move(counts);
    return snap;
}

TEST(HistogramQuantile, InterpolatesInsideTheBucket)
{
    const MetricSnapshot h = histSnap({1.0, 2.0, 4.0}, {10, 10, 10, 0});
    // Rank 15 of 30 sits halfway through the (1, 2] bucket.
    EXPECT_DOUBLE_EQ(histogramQuantile(h, 0.5), 1.5);
    EXPECT_DOUBLE_EQ(histogramQuantile(h, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(h, 1.0), 4.0);
}

TEST(HistogramQuantile, InfBucketClampsToLargestFiniteBound)
{
    const MetricSnapshot h = histSnap({1.0, 2.0, 4.0}, {0, 0, 0, 5});
    EXPECT_DOUBLE_EQ(histogramQuantile(h, 0.5), 4.0);
}

TEST(HistogramQuantile, EmptyHistogramIsZero)
{
    const MetricSnapshot h = histSnap({1.0}, {0, 0});
    EXPECT_DOUBLE_EQ(histogramQuantile(h, 0.9), 0.0);
}

// --------------------------------------------------------------- spans

TEST(Tracer, DisabledSpansAreInert)
{
    Tracer tracer(8);
    {
        ScopedSpan span(tracer, "noop");
        EXPECT_EQ(span.id(), 0u);
    }
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, NestedSpansParentAutomatically)
{
    Tracer tracer(8);
    tracer.setEnabled(true);
    uint64_t outerId = 0;
    uint64_t innerId = 0;
    {
        ScopedSpan outer(tracer, "outer");
        outerId = outer.id();
        EXPECT_EQ(Tracer::currentSpan(), outerId);
        {
            ScopedSpan inner(tracer, "inner", 42);
            innerId = inner.id();
            EXPECT_EQ(Tracer::currentSpan(), innerId);
        }
        EXPECT_EQ(Tracer::currentSpan(), outerId);
    }
    EXPECT_EQ(Tracer::currentSpan(), 0u);

    // Inner completes (and records) first.
    const std::vector<SpanRecord> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].parent, outerId);
    EXPECT_EQ(spans[0].arg, 42);
    EXPECT_STREQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[1].id, outerId);
    EXPECT_NE(innerId, outerId);
}

TEST(Tracer, ParentOverrideBeatsTheThreadLocalChain)
{
    Tracer tracer(8);
    tracer.setEnabled(true);
    ScopedSpan outer(tracer, "outer");
    const uint64_t forced = tracer.nextId();
    {
        ScopedSpan inner(tracer, "inner", -1, forced);
    }
    EXPECT_EQ(tracer.snapshot()[0].parent, forced);
}

TEST(Tracer, SpanObservesDurationIntoHistogram)
{
    Tracer tracer(8);
    tracer.setEnabled(true);
    Histogram hist(std::vector<double>{1.0});  // seconds; all land <= 1
    {
        ScopedSpan span(tracer, "timed", -1, 0, &hist);
    }
    EXPECT_EQ(hist.count(), 1u);

    // Disabled: the histogram is untouched too.
    tracer.setEnabled(false);
    {
        ScopedSpan span(tracer, "timed", -1, 0, &hist);
    }
    EXPECT_EQ(hist.count(), 1u);
}

TEST(Tracer, RingWrapKeepsTheNewestSpans)
{
    Tracer tracer(4);
    tracer.setEnabled(true);
    for (uint64_t i = 0; i < 6; ++i)
        tracer.record("s" + std::to_string(i), i * 10, i * 10 + 5,
                      i + 1, 0);
    EXPECT_EQ(tracer.recorded(), 6u);
    const std::vector<SpanRecord> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 4u);  // capacity
    EXPECT_STREQ(spans.front().name, "s2");  // oldest surviving
    EXPECT_STREQ(spans.back().name, "s5");   // newest
    tracer.clear();
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, LongNamesTruncateSafely)
{
    SpanRecord record;
    record.setName("a_name_far_longer_than_the_fixed_buffer");
    EXPECT_EQ(std::string(record.name).size(),
              sizeof(record.name) - 1);
}

// ----------------------------------------------------- golden renders

TEST(Prometheus, GoldenRendering)
{
    Registry reg;
    reg.gauge("demo_depth", "Queue depth").set(7);
    Counter &c = reg.counter("demo_requests_total", "Requests served");
    c.add(3);
    reg.counter("demo_requests_total", "Requests served",
                "shard=\"a\"")
        .add(1);
    Histogram &h =
        reg.histogram("demo_seconds", "Request seconds", {0.001, 0.01});
    h.observe(0.0005);
    h.observe(0.005);
    h.observe(5.0);

    const std::string expected =
        "# HELP demo_depth Queue depth\n"
        "# TYPE demo_depth gauge\n"
        "demo_depth 7\n"
        "# HELP demo_requests_total Requests served\n"
        "# TYPE demo_requests_total counter\n"
        "demo_requests_total 3\n"
        "demo_requests_total{shard=\"a\"} 1\n"
        "# HELP demo_seconds Request seconds\n"
        "# TYPE demo_seconds histogram\n"
        "demo_seconds_bucket{le=\"0.001\"} 1\n"
        "demo_seconds_bucket{le=\"0.01\"} 2\n"
        "demo_seconds_bucket{le=\"+Inf\"} 3\n"
        "demo_seconds_sum 5.0055\n"
        "demo_seconds_count 3\n";
    EXPECT_EQ(renderPrometheus(reg), expected);
}

TEST(ChromeTrace, GoldenRendering)
{
    std::vector<SpanRecord> spans(2);
    spans[0].setName("alpha");
    spans[0].id = 1;
    spans[0].parent = 0;
    spans[0].startNs = 1000;
    spans[0].durNs = 2500;
    spans[0].tid = 1;
    spans[1].setName("beta");
    spans[1].id = 2;
    spans[1].parent = 1;
    spans[1].startNs = 2000;
    spans[1].durNs = 500;
    spans[1].tid = 2;
    spans[1].arg = 3;

    std::ostringstream out;
    writeChromeTrace(out, spans);
    const std::string expected =
        "{\"traceEvents\":[\n"
        "{\"name\":\"alpha\",\"cat\":\"rapidnn\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":1,\"ts\":1.000,\"dur\":2.500,"
        "\"args\":{\"id\":1,\"parent\":0}},\n"
        "{\"name\":\"beta\",\"cat\":\"rapidnn\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":2,\"ts\":2.000,\"dur\":0.500,"
        "\"args\":{\"id\":2,\"parent\":1,\"arg\":3}}\n"
        "],\"displayTimeUnit\":\"ms\"}\n";
    EXPECT_EQ(out.str(), expected);
}

TEST(ChromeTrace, EscapesSpanNames)
{
    std::vector<SpanRecord> spans(1);
    spans[0].setName("a\"b\\c");
    std::ostringstream out;
    writeChromeTrace(out, spans);
    EXPECT_NE(out.str().find("\"name\":\"a\\\"b\\\\c\""),
              std::string::npos);
}

// ------------------------------------------------------ TCP endpoint

TEST(MetricsServer, ServesRendererOutputOverLoopback)
{
    const std::string body = "# smoke\ntest_metric 1\n";
    MetricsServer server(0, [body] { return body; });
    ASSERT_TRUE(server.ok());
    ASSERT_NE(server.port(), 0);
    EXPECT_EQ(scrapeLocal(server.port()), body);
    // Sequential scrapes both succeed (one connection per response).
    EXPECT_EQ(scrapeLocal(server.port()), body);
}

TEST(MetricsServer, ScrapeOfClosedPortFailsCleanly)
{
    uint16_t port = 0;
    {
        MetricsServer server(0, [] { return std::string("x"); });
        ASSERT_TRUE(server.ok());
        port = server.port();
    }
    EXPECT_EQ(scrapeLocal(port), "");
}

// ------------------------------------- serving stats / percentiles

TEST(StatsCollector, PercentilesInterpolateNotTruncate)
{
    Registry reg;
    runtime::StatsCollector collector(8, reg);
    // Latencies 1..100us in submission order; the pinned values below
    // only hold with linear interpolation between order statistics
    // (truncating to a sample index would give 50 / 95 / 99).
    for (int i = 1; i <= 100; ++i)
        collector.recordRequest(double(i), double(i), double(i));
    runtime::ServerStats stats;
    collector.snapshotInto(stats);
    EXPECT_DOUBLE_EQ(stats.p50LatencyUs, 50.5);
    EXPECT_DOUBLE_EQ(stats.p95LatencyUs, 95.05);
    EXPECT_DOUBLE_EQ(stats.p99LatencyUs, 99.01);
    EXPECT_EQ(stats.completed, 100u);

    // The raw percentile() helper agrees on a tiny vector too.
    const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.75), 32.5);
}

TEST(StatsCollector, SnapshotCostAndMemoryStayFlat)
{
    // The percentiles cover a fixed window of recent latencies, so a
    // snapshot after 10^6 requests holds as many values and costs
    // about what one after a full window does (the old full-history
    // sort was ~100x dearer here).
    using Clock = std::chrono::steady_clock;
    Registry reg;
    runtime::StatsCollector collector(8, reg);
    auto feed = [&](size_t from, size_t to) {
        for (size_t i = from; i < to; ++i) {
            const double us = double(i % 997);
            collector.recordRequest(us, us, us);
        }
    };
    auto snapshotSeconds = [&] {
        std::vector<double> times;
        for (int rep = 0; rep < 5; ++rep) {
            runtime::ServerStats stats;
            const auto t0 = Clock::now();
            collector.snapshotInto(stats);
            times.push_back(
                std::chrono::duration<double>(Clock::now() - t0).count());
        }
        std::sort(times.begin(), times.end());
        return times[times.size() / 2];
    };

    const size_t window = runtime::StatsCollector::kLatencyWindow;
    feed(0, window);
    EXPECT_EQ(collector.retainedLatencies(), window);
    const double atWindow = snapshotSeconds();

    constexpr size_t kRequests = 1000000;
    feed(window, kRequests);
    EXPECT_EQ(collector.retainedLatencies(), window);
    const double atMillion = snapshotSeconds();
    EXPECT_LT(atMillion, 10.0 * atWindow + 0.002);

    // The window holds exactly the last `window` latencies.
    std::vector<double> recent;
    for (size_t i = kRequests - window; i < kRequests; ++i)
        recent.push_back(double(i % 997));
    runtime::ServerStats stats;
    collector.snapshotInto(stats);
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_DOUBLE_EQ(stats.p50LatencyUs, percentile(recent, 0.50));
    EXPECT_DOUBLE_EQ(stats.p95LatencyUs, percentile(recent, 0.95));
    EXPECT_DOUBLE_EQ(stats.p99LatencyUs, percentile(recent, 0.99));
}

TEST(StatsCollector, PercentileSelectionMatchesSortedInterpolation)
{
    // The selection-based percentile must equal interpolating the fully
    // sorted sample, also when called repeatedly on one vector.
    Rng rng(77);
    for (size_t n : {size_t(1), size_t(2), size_t(3), size_t(10),
                     size_t(101), size_t(1000)}) {
        std::vector<double> xs(n);
        for (auto &x : xs)
            x = double(rng.uniformInt(0, 50));  // ties included
        std::vector<double> sorted = xs;
        std::sort(sorted.begin(), sorted.end());
        for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
            const double pos = q * double(n - 1);
            const size_t lo = size_t(pos);
            const size_t hi = std::min(lo + 1, n - 1);
            const double want = sorted[lo]
                + (sorted[hi] - sorted[lo]) * (pos - double(lo));
            EXPECT_EQ(percentileInPlace(xs, q), want)
                << "n=" << n << " q=" << q;
        }
    }
    std::vector<double> empty;
    EXPECT_EQ(percentileInPlace(empty, 0.5), 0.0);
}

TEST(StatsCollector, RejectionsRenderByReason)
{
    Registry reg;
    runtime::StatsCollector collector(4, reg);
    collector.recordRejected();
    collector.recordInvalid();
    collector.recordInvalid();
    const std::string expected =
        "# HELP rapidnn_requests_rejected_total Requests refused at "
        "admission (queue_full: trySubmit found the queue full; "
        "invalid: wrong shape or a non-finite value)\n"
        "# TYPE rapidnn_requests_rejected_total counter\n"
        "rapidnn_requests_rejected_total{reason=\"invalid\"} 2\n"
        "rapidnn_requests_rejected_total{reason=\"queue_full\"} 1\n";
    EXPECT_NE(renderPrometheus(reg).find(expected), std::string::npos)
        << renderPrometheus(reg);
    runtime::ServerStats stats;
    collector.snapshotInto(stats);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.invalid, 2u);
}

TEST(StatsCollector, FeedsRegistryAndBaselinesPerEngine)
{
    Registry reg;
    runtime::StatsCollector first(4, reg);
    first.recordSubmitted();
    first.recordSubmitted();
    first.recordRejected();
    first.recordBatch(2);
    first.recordRequest(100.0, 50.0, 150.0);

    // The registry holds process-cumulative series...
    EXPECT_EQ(
        reg.counter("rapidnn_requests_submitted_total", "").value(),
        2u);
    EXPECT_EQ(reg.histogram("rapidnn_request_latency_seconds", "",
                            latencyBucketsSeconds())
                  .count(),
              1u);
    EXPECT_EQ(
        reg.histogram("rapidnn_batch_size", "", batchSizeBuckets())
            .count(),
        1u);

    // ...while a later collector on the same registry reports deltas
    // from its own construction-time baseline.
    runtime::StatsCollector second(4, reg);
    runtime::ServerStats stats;
    second.snapshotInto(stats);
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.batches, 0u);
    second.recordSubmitted();
    second.snapshotInto(stats);
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(
        reg.counter("rapidnn_requests_submitted_total", "").value(),
        3u);
}

} // namespace
} // namespace rapidnn::telemetry
