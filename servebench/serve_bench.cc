/**
 * @file
 * End-to-end serving benchmark over the Table-2 stand-ins.
 *
 * One run trains a float stand-in (input generation, outside every
 * metric), composes it, writes it as a .rnnb blob, serves it from the
 * mapped blob through runtime::ServingEngine and measures, in order:
 *
 *   setup      compose + blob write + blob open + engine start, several
 *              times; the last engine serves everything below;
 *   warm-up    closed loop over every held-out input, untimed;
 *   rounds     kRounds times: an open-loop Poisson segment at the fixed
 *              rate (latency from each request's due time to the moment
 *              its result is available), then closed-loop saturation
 *              windows with a fixed number of requests in flight;
 *   ladder     fixed rates upward until one misses the p99 limit or
 *              its backlog grows;
 *   traced     (--trace 1 only) direct Chip::inferBatch timings, then
 *              the program's own Tracer spans over a fixed-rate segment
 *              and saturated windows, for per-layer self times.
 *
 * Every served result is checked bitwise against a reference chip
 * (ChipConfig::fastPath = false) and its top-1 against the float
 * network. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 *
 * Usage: serve_bench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --scratch <dir>
 */

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "blob/blob.hh"
#include "common/simd.hh"
#include "common/stats.hh"
#include "common/task_pool.hh"
#include "composer/composer.hh"
#include "core/rapidnn.hh"
#include "rna/chip.hh"
#include "rna/kernels/kernels.hh"
#include "runtime/serving_engine.hh"
#include "telemetry/trace.hh"

namespace {

using namespace rapidnn;
using Clock = std::chrono::steady_clock;

constexpr size_t kWorkers = 2;
/** Rounds of (fixed-rate segment, saturation windows). */
constexpr size_t kRounds = 6;
/** Closed-loop requests in flight: four full batches, so both
 *  workers always find a full batch waiting. */
constexpr size_t kInFlight = 32;
/** Longest the collector blocks on the oldest request before it
 *  rescans the others for out-of-order completions. */
constexpr auto kPoll = std::chrono::microseconds(50);
/** Rise in median latency from a run's first quarter to its last
 *  that counts as a growing backlog: 3 % overload over a 1 s rung. */
constexpr double kGrowthLimitMs = 25.0;
/** Run length the per-workload request counts are written for. */
constexpr double kReferenceSeconds = 20.0;
/** Model layers profiled: the CIFAR-10 stand-in has nine. */
constexpr size_t kMaxLayers = 9;
const char *const kCategories[] = {"weighted_accum", "activation",
                                   "encoding", "pooling", "other"};

/** One workload: a Table-2 stand-in plus the load it is served at. */
struct Workload
{
    const char *name;
    nn::Benchmark benchmark;
    double widthScale;       //!< on the Table-2 hidden widths
    size_t samples;          //!< stand-in dataset; a quarter held out
    size_t epochs;           //!< float training epochs
    size_t setupReps;        //!< setup passes; setup_s is their median
    size_t warmRequests;
    double fixedRps;
    size_t fixedRequests;    //!< at kReferenceSeconds
    double p99LimitMs;
    std::vector<double> ladderRps;
    double ladderSeconds;    //!< per rung, at kReferenceSeconds
    size_t satWindows;       //!< a multiple of kRounds
    size_t satWindowRequests;
    double agreementFloor;   //!< served top-1 vs float top-1
};

/**
 * Fixed rates sit near a fifth of two-worker capacity and the p99
 * limits well above the tail a shared host sets on its own, so neither
 * amplifies the host's speed swings (servebench/README.md).
 */
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"mnist-serve", nn::Benchmark::Mnist, 1.0, 800, 2, 3,
         600, 200.0, 1200, 100.0,
         {500, 560, 620, 680, 750, 820, 900, 980, 1070, 1170, 1280, 1400,
          1550},
         1.0, 12, 600, 0.95},
        {"cifar10-serve", nn::Benchmark::Cifar10, 1.0, 400, 2, 5,
         200, 80.0, 1000, 300.0,
         {180, 200, 220, 240, 265, 290, 320, 350, 385, 425, 470},
         1.0, 12, 180, 0.92},
        {"har-light", nn::Benchmark::Har, 0.25, 800, 2, 7,
         3000, 400.0, 3200, 60.0,
         {2000, 2600, 3200, 3800, 4400, 5000, 5600, 6300, 7000, 7800, 8700,
          9700},
         0.5, 18, 2500, 0.92},
    };
    return all;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 0.5);
}

/**
 * Resident set size of this process, from its own status file, after
 * handing freed heap pages back, so what the allocator merely keeps
 * does not read as growth.
 */
double
residentMb()
{
    malloc_trim(0);
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

size_t
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoul(line.substr(8));
    return 0;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec)
             + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/** Sleep and timed waits on this thread overshoot by 1 us, not the
 *  default 50 us, so arrival times and completion stamps stay tight. */
void
tightenTimerSlack()
{
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Bitwise equality of everything a PerfReport models per sample. */
bool
samePerf(const rna::PerfReport &a, const rna::PerfReport &b)
{
    if (!sameBits(a.latency.sec(), b.latency.sec())
        || !sameBits(a.stageTime.sec(), b.stageTime.sec())
        || !sameBits(a.energy.j(), b.energy.j())
        || a.totalOps != b.totalOps
        || a.breakdown.size() != b.breakdown.size())
        return false;
    for (size_t i = 0; i < a.breakdown.size(); ++i) {
        const rna::CategoryCost &x = a.breakdown[i];
        const rna::CategoryCost &y = b.breakdown[i];
        if (x.name != y.name || !sameBits(x.time.sec(), y.time.sec())
            || !sameBits(x.energy.j(), y.energy.j()))
            return false;
    }
    return true;
}

size_t
argmax(const std::vector<double> &xs)
{
    return static_cast<size_t>(
        std::max_element(xs.begin(), xs.end()) - xs.begin());
}

/** What the reference path says one pool input must produce. */
struct Expected
{
    std::vector<double> logits;
    rna::PerfReport perf;
    size_t floatTop1 = 0;
};

/** Mean of a ServerStats Summary over the phases it is fed. */
struct MeanDelta
{
    double sum = 0.0;
    uint64_t count = 0;

    void
    add(const Summary &before, const Summary &after)
    {
        sum += after.sum() - before.sum();
        count += after.count() - before.count();
    }

    double mean() const { return count ? sum / count : 0.0; }
};

/** Per-request modeled cost, summed over one phase. */
struct ModeledSums
{
    size_t requests = 0;
    double latencyUs = 0.0;
    double energyUj = 0.0;
    std::map<std::string, std::pair<double, double>> categories;

    void
    add(const rna::PerfReport &perf)
    {
        ++requests;
        latencyUs += perf.latency.us();
        energyUj += perf.energy.uj();
        for (const rna::CategoryCost &cat : perf.breakdown) {
            auto &[ns, nj] = categories[cat.name];
            ns += cat.time.ns();
            nj += cat.energy.nj();
        }
    }
};

struct OpenLoopRun
{
    std::vector<double> latencyMs;  //!< due -> result available
    std::vector<double> lateMs;     //!< submit call - due
    double p99Ms = 0.0;
    /** How far the limits were met: the larger of p99 over the p99
     *  limit and the backlog's growth over kGrowthLimitMs. At most 1
     *  passes. */
    double score = 0.0;
};

struct ClosedLoopRun
{
    std::vector<double> windowSps;
    size_t requests = 0;
    double cpuSeconds = 0.0;
};

/** The engine under test plus everything its answers are checked by. */
class Harness
{
  public:
    Harness(runtime::ServingEngine &engine,
            const std::vector<nn::Tensor> &pool,
            const std::vector<Expected> &expected)
        : _engine(engine), _pool(pool), _expected(expected),
          _servedTop1(pool.size(), -1)
    {
    }

    uint64_t attempted() const { return _attempted; }
    uint64_t failed() const { return _failed; }
    uint64_t mismatched() const { return _mismatched; }

    /** Served top-1 agreement with the float network over every pool
     *  input; one never served counts as disagreeing. */
    double
    agreement() const
    {
        size_t agree = 0;
        for (size_t i = 0; i < _pool.size(); ++i)
            agree += _servedTop1[i] >= 0
                && static_cast<size_t>(_servedTop1[i])
                       == _expected[i].floatTop1;
        return static_cast<double>(agree) / _pool.size();
    }

    /**
     * Open loop: Poisson arrivals at `rps` from a generator thread,
     * which submits with the blocking submit(), so backpressure shows
     * as lateness. This thread collects completions as they happen, in
     * whatever order the workers finish them.
     */
    OpenLoopRun
    openLoop(double rps, size_t n, uint64_t seed, double p99LimitMs,
             ModeledSums *modeled)
    {
        Rng rng(seed);
        std::vector<size_t> inputs(n);
        std::vector<Clock::duration> offsets(n);
        double t = 0.0;
        for (size_t i = 0; i < n; ++i) {
            if (i > 0)
                t += -std::log(1.0 - rng.uniform()) / rps;
            offsets[i] = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(t));
            inputs[i] = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(_pool.size()) - 1));
        }

        struct Handoff
        {
            size_t index;
            std::future<runtime::InferResult> future;
        };
        std::mutex mutex;
        std::condition_variable ready;
        std::vector<Handoff> handoffs;

        OpenLoopRun run;
        run.latencyMs.assign(n, 0.0);
        run.lateMs.assign(n, 0.0);
        const Clock::time_point start =
            Clock::now() + std::chrono::milliseconds(2);
        std::vector<Clock::time_point> due(n);
        for (size_t i = 0; i < n; ++i)
            due[i] = start + offsets[i];

        std::thread generator([&] {
            tightenTimerSlack();
            for (size_t i = 0; i < n; ++i) {
                std::this_thread::sleep_until(due[i]);
                run.lateMs[i] = 1e3 * secondsBetween(due[i], Clock::now());
                std::future<runtime::InferResult> future =
                    _engine.submit(_pool[inputs[i]]);
                {
                    std::lock_guard lock(mutex);
                    handoffs.push_back({i, std::move(future)});
                }
                ready.notify_one();
            }
        });
        _attempted += n;

        std::vector<Handoff> pending;
        size_t done = 0;
        while (done < n) {
            {
                std::unique_lock lock(mutex);
                if (pending.empty())
                    ready.wait(lock, [&] { return !handoffs.empty(); });
                for (Handoff &h : handoffs)
                    pending.push_back(std::move(h));
                handoffs.clear();
            }
            bool progressed = false;
            for (auto it = pending.begin(); it != pending.end();) {
                if (it->future.wait_for(std::chrono::seconds(0))
                    != std::future_status::ready) {
                    ++it;
                    continue;
                }
                const Clock::time_point now = Clock::now();
                run.latencyMs[it->index] =
                    1e3 * secondsBetween(due[it->index], now);
                collect(it->future, inputs[it->index], modeled);
                it = pending.erase(it);
                ++done;
                progressed = true;
            }
            if (!progressed && !pending.empty())
                pending.front().future.wait_for(kPoll);
        }
        generator.join();

        run.p99Ms = percentile(run.latencyMs, 0.99);
        // A backlog that grows shows as requests late in the run
        // waiting longer than those early in it.
        const size_t quarter = std::max<size_t>(1, n / 4);
        const std::vector<double> head(run.latencyMs.begin(),
                                       run.latencyMs.begin() + quarter);
        const std::vector<double> tail(run.latencyMs.end() - quarter,
                                       run.latencyMs.end());
        const double growthMs = median(tail) - median(head);
        run.score = std::max(run.p99Ms / p99LimitMs,
                             growthMs / kGrowthLimitMs);
        return run;
    }

    /**
     * Closed loop: keep kInFlight requests in flight until `perWindow`
     * have completed; each window is timed from its first submit to
     * its last completion, and windows do not overlap. Inputs are drawn
     * with `seed`, or taken in pool order when `inOrder` is set.
     */
    ClosedLoopRun
    closedLoop(size_t windows, size_t perWindow, uint64_t seed,
               bool inOrder = false)
    {
        Rng rng(seed);
        ClosedLoopRun run;
        const double cpu0 = cpuSeconds();
        for (size_t w = 0; w < windows; ++w) {
            std::deque<std::pair<size_t, std::future<runtime::InferResult>>>
                inflight;
            size_t submitted = 0;
            const Clock::time_point first = Clock::now();
            for (size_t collected = 0; collected < perWindow;
                 ++collected) {
                while (submitted < perWindow
                       && inflight.size() < kInFlight) {
                    const auto input = inOrder
                        ? submitted % _pool.size()
                        : static_cast<size_t>(rng.uniformInt(
                              0, static_cast<int64_t>(_pool.size()) - 1));
                    inflight.emplace_back(input,
                                          _engine.submit(_pool[input]));
                    ++submitted;
                }
                // Waiting in submit order is exact for the window's
                // end: the last wait returns once every request is done.
                collect(inflight.front().second, inflight.front().first,
                        nullptr);
                inflight.pop_front();
            }
            const Clock::time_point last = Clock::now();
            run.windowSps.push_back(static_cast<double>(perWindow)
                                    / secondsBetween(first, last));
            run.requests += perWindow;
            _attempted += perWindow;
        }
        run.cpuSeconds = cpuSeconds() - cpu0;
        return run;
    }

  private:
    void
    collect(std::future<runtime::InferResult> &future, size_t input,
            ModeledSums *modeled)
    {
        runtime::InferResult result;
        try {
            result = future.get();
        } catch (const std::exception &e) {
            ++_failed;
            std::cerr << "request failed: " << e.what() << "\n";
            return;
        }
        const Expected &want = _expected[input];
        if (result.logits.size() != want.logits.size()
            || !std::equal(result.logits.begin(), result.logits.end(),
                           want.logits.begin(), sameBits)
            || !samePerf(result.perf, want.perf))
            ++_mismatched;
        if (_servedTop1[input] < 0)
            _servedTop1[input] = static_cast<int>(argmax(result.logits));
        if (modeled != nullptr)
            modeled->add(result.perf);
    }

    runtime::ServingEngine &_engine;
    const std::vector<nn::Tensor> &_pool;
    const std::vector<Expected> &_expected;
    std::vector<int> _servedTop1;
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
    uint64_t _mismatched = 0;
};

/**
 * The highest rate that meets the p99 limit without a growing backlog:
 * the last passing rate, refined by linear interpolation of the score
 * (OpenLoopRun::score) toward the first failing one, so the figure
 * moves smoothly instead of in rung steps. Points are (rate, score) in
 * rising rate order; the first is the fixed-rate phase.
 */
double
sustainedRate(const std::vector<std::pair<double, double>> &points)
{
    if (points.front().second > 1.0)
        return points.front().first / points.front().second;
    for (size_t i = 1; i < points.size(); ++i) {
        const auto [r1, s1] = points[i];
        if (s1 <= 1.0)
            continue;
        const auto [r0, s0] = points[i - 1];
        return r0 + (r1 - r0) * (1.0 - s0) / (s1 - s0);
    }
    return points.back().first;
}

/** Per-sample self times and batch formation from traced spans. */
struct TraceTotals
{
    double encodeNs = 0.0;
    std::vector<double> layerNs = std::vector<double>(kMaxLayers, 0.0);
    std::vector<double> batchFormMs;
};

/**
 * Fold one drained ring into `totals`. A span's self time is its
 * duration less the durations of the spans parented to it.
 */
void
absorbSpans(const std::vector<telemetry::SpanRecord> &spans,
            TraceTotals &totals)
{
    std::unordered_map<uint64_t, uint64_t> childNs;
    std::unordered_set<uint64_t> chipBatches;
    std::unordered_map<uint64_t, uint64_t> firstEnqueueNs;
    for (const telemetry::SpanRecord &s : spans) {
        if (s.parent != 0)
            childNs[s.parent] += s.durNs;
        if (std::strcmp(s.name, "chip_infer_batch") == 0)
            chipBatches.insert(s.id);
        if (std::strcmp(s.name, "queue_wait") == 0) {
            auto [it, fresh] = firstEnqueueNs.try_emplace(s.parent,
                                                          s.startNs);
            if (!fresh)
                it->second = std::min(it->second, s.startNs);
        }
    }
    for (const telemetry::SpanRecord &s : spans) {
        if (std::strcmp(s.name, "batch_form") == 0) {
            // What the batch's first request paid: from its enqueue
            // (or the worker's return to the batcher, if later) to
            // the claim. Idle time before any request arrived is not
            // formation.
            auto it = firstEnqueueNs.find(s.parent);
            if (it == firstEnqueueNs.end())
                continue;
            const uint64_t end = s.startNs + s.durNs;
            const uint64_t from = std::max(s.startNs, it->second);
            totals.batchFormMs.push_back(
                end > from ? static_cast<double>(end - from) * 1e-6 : 0.0);
            continue;
        }
        if (!chipBatches.count(s.parent))
            continue;
        const auto it = childNs.find(s.id);
        const double self = static_cast<double>(s.durNs)
            - (it == childNs.end() ? 0.0 : static_cast<double>(it->second));
        if (std::strcmp(s.name, "encoding") == 0)
            totals.encodeNs += self;
        else if (s.arg >= 0 && static_cast<size_t>(s.arg) < kMaxLayers)
            totals.layerNs[static_cast<size_t>(s.arg)] += self;
    }
}

/**
 * Take everything the tracer holds once the workers have recorded
 * their last span, and empty it. Fails if the ring wrapped.
 */
bool
drainTracer(TraceTotals &totals)
{
    telemetry::Tracer &tracer = telemetry::Tracer::global();
    // A worker records its "batch" span just after fulfilling the
    // batch's promises; wait until every batch_infer has its batch.
    std::vector<telemetry::SpanRecord> spans;
    for (int tries = 0; tries < 2000; ++tries) {
        spans = tracer.snapshot();
        size_t batches = 0;
        size_t infers = 0;
        for (const auto &s : spans) {
            batches += std::strcmp(s.name, "batch") == 0;
            infers += std::strcmp(s.name, "batch_infer") == 0;
        }
        if (batches == infers)
            break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const uint64_t recorded = tracer.recorded();
    tracer.clear();
    if (recorded != spans.size() || recorded > tracer.capacity()) {
        std::cerr << "trace ring wrapped: " << recorded
                  << " spans recorded, " << spans.size() << " kept\n";
        return false;
    }
    absorbSpans(spans, totals);
    return true;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = kReferenceSeconds;
    bool trace = false;
    std::string scratch = ".";
};

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--scratch")
            args.scratch = value;
        else
            return std::nullopt;
    }
    if (args.workload.empty() || args.seconds <= 0.0)
        return std::nullopt;
    return args;
}

/** One compose -> write -> open -> start pass, timed per stage. */
struct SetupPass
{
    composer::ReinterpretedModel model;
    std::shared_ptr<const blob::ModelBlob> blob;
    std::unique_ptr<runtime::ServingEngine> engine;
    double reinterpretS = 0.0;
    double writeS = 0.0;
    double openS = 0.0;
    double startS = 0.0;
    double rssBeforeOpenMb = 0.0;
    size_t threadsBeforeStart = 0;  //!< process threads, no engine
    size_t threadsAfterStart = 0;   //!< process threads, engine up

    double total() const { return reinterpretS + writeS + openS + startS; }
};

SetupPass
setUp(nn::Network &net, const nn::Dataset &train,
      const nn::Shape &inputShape, const std::string &blobPath)
{
    SetupPass pass;
    const Clock::time_point t0 = Clock::now();
    composer::Composer composer(composer::ComposerConfig{});
    pass.model = composer.reinterpret(net, train);
    pass.model.setCanonicalInputShape(inputShape);
    const Clock::time_point t1 = Clock::now();
    blob::writeBlobFile(pass.model, blobPath);
    const Clock::time_point t2 = Clock::now();
    pass.rssBeforeOpenMb = residentMb();
    const Clock::time_point t3 = Clock::now();
    pass.blob = blob::ModelBlob::open(blobPath);
    const Clock::time_point t4 = Clock::now();
    pass.threadsBeforeStart = threadCount();
    runtime::ServingConfig serving;
    serving.workers = kWorkers;
    pass.engine = std::make_unique<runtime::ServingEngine>(
        pass.blob, rna::ChipConfig{}, serving);
    const Clock::time_point t5 = Clock::now();
    pass.threadsAfterStart = threadCount();
    pass.reinterpretS = secondsBetween(t0, t1);
    pass.writeS = secondsBetween(t1, t2);
    pass.openS = secondsBetween(t3, t4);
    pass.startS = secondsBetween(t4, t5);
    return pass;
}

/** Median per-sample time of direct inferBatch calls on this thread. */
double
directInferUs(const rna::Chip &chip, const std::vector<nn::Tensor> &pool,
              size_t lanes)
{
    std::vector<nn::Tensor> inputs;
    for (size_t i = 0; i < lanes; ++i)
        inputs.push_back(pool[i % pool.size()]);
    std::vector<rna::PerfReport> reports(lanes);
    std::vector<double> rounds;
    for (int r = 0; r < 7; ++r) {
        size_t calls = 0;
        const Clock::time_point t0 = Clock::now();
        do {
            chip.inferBatch(std::span<const nn::Tensor>(inputs),
                            std::span<rna::PerfReport>(reports));
            ++calls;
        } while (secondsBetween(t0, Clock::now()) < 0.05);
        rounds.push_back(1e6 * secondsBetween(t0, Clock::now())
                         / static_cast<double>(calls * lanes));
    }
    return median(rounds);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Args> parsed = parseArgs(argc, argv);
    if (!parsed) {
        std::cerr << "usage: serve_bench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> --scratch <dir>\n";
        return 2;
    }
    const Args &args = *parsed;
    const Workload *found = nullptr;
    for (const Workload &w : workloads())
        if (args.workload == w.name)
            found = &w;
    if (found == nullptr) {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        return 2;
    }
    const Workload &wl = *found;
    tightenTimerSlack();
    const double scale = args.seconds / kReferenceSeconds;
    auto scaled = [&](size_t n, size_t floor) {
        return std::max(floor, static_cast<size_t>(std::lround(
                                   static_cast<double>(n) * scale)));
    };

    // ---- Input generation (outside every metric) --------------------
    const Clock::time_point trainStart = Clock::now();
    core::BenchmarkOptions options;
    options.samples = wl.samples;
    options.trainEpochs = wl.epochs;
    options.widthScale = wl.widthScale;
    core::BenchmarkModel bm = core::buildBenchmarkModel(wl.benchmark,
                                                        options);
    const double trainS = secondsBetween(trainStart, Clock::now());

    // Request inputs: the held-out split. --seed picks which of them
    // each request carries and when it is due.
    std::vector<nn::Tensor> pool;
    std::vector<Expected> expected(bm.validation.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        pool.push_back(bm.validation.sample(i).x);
        expected[i].floatTop1 =
            static_cast<size_t>(bm.network.predict(pool.back()));
    }

    // ---- Setup ------------------------------------------------------
    const std::string blobPath = args.scratch + "/" + wl.name + "."
        + std::to_string(::getpid()) + ".rnnb";
    const nn::Shape inputShape = bm.validation.featureShape();
    SetupPass serving;
    std::vector<double> setupS, reinterpretS, writeS, openS, startMs;
    size_t threadsBeforeStart = 0;
    size_t threadsAfterStart = 0;
    for (size_t rep = 0; rep < wl.setupReps; ++rep) {
        SetupPass pass = setUp(bm.network, bm.train, inputShape, blobPath);
        setupS.push_back(pass.total());
        reinterpretS.push_back(pass.reinterpretS);
        writeS.push_back(pass.writeS);
        openS.push_back(pass.openS);
        startMs.push_back(1e3 * pass.startS);
        if (rep == 0) {
            threadsBeforeStart = pass.threadsBeforeStart;
            threadsAfterStart = pass.threadsAfterStart;
            // The reference answers come from the first pass's heap
            // model, on the paper-faithful path, before the serving
            // pass sets its memory baseline.
            rna::ChipConfig refConfig;
            refConfig.fastPath = false;
            rna::Chip reference(refConfig);
            reference.configure(pass.model);
            TaskPool::shared().run(
                expected.size(), TaskPool::shared().lanes(),
                [&](size_t i, size_t) {
                    expected[i].logits =
                        reference.infer(pool[i], expected[i].perf);
                });
        }
        // Earlier passes shut their engines down here.
        if (rep + 1 == wl.setupReps)
            serving = std::move(pass);
    }
    runtime::ServingEngine &engine = *serving.engine;
    const size_t blobBytes = serving.blob->fileBytes();
    Harness harness(engine, pool, expected);

    // ---- Warm-up; fixed-rate segments interleaved with saturation ----
    // windows, so both sample the whole run; then the ladder.
    // The warm-up serves every pool input at least once, in order, so
    // the agreement check covers the whole held-out split.
    const double warmSps =
        harness.closedLoop(1, std::max(wl.warmRequests, pool.size()),
                           args.seed + 11, /*inOrder=*/true)
            .windowSps.front();
    const double warmEngineRps = engine.stats().throughputRps();

    MeanDelta queueWaitUs, serviceUs, batchFixed, batchSat;
    ModeledSums modeled;
    std::vector<double> fixedLatencyMs, fixedLateMs, roundP50Ms, windowSps;
    double satCpuS = 0.0;
    size_t satRequests = 0;
    const size_t fixedPerRound =
        scaled(wl.fixedRequests, 1000) / kRounds + 1;
    for (size_t r = 0; r < kRounds; ++r) {
        const runtime::ServerStats s0 = engine.stats();
        const OpenLoopRun segment =
            harness.openLoop(wl.fixedRps, fixedPerRound, args.seed + 21 + r,
                             wl.p99LimitMs, &modeled);
        const runtime::ServerStats s1 = engine.stats();
        const ClosedLoopRun sat = harness.closedLoop(
            wl.satWindows / kRounds, scaled(wl.satWindowRequests, 50),
            args.seed + 41 + r);
        const runtime::ServerStats s2 = engine.stats();
        queueWaitUs.add(s0.queueWaitUs, s1.queueWaitUs);
        serviceUs.add(s0.serviceUs, s1.serviceUs);
        batchFixed.add(s0.batchSizes.summary(), s1.batchSizes.summary());
        batchSat.add(s1.batchSizes.summary(), s2.batchSizes.summary());
        roundP50Ms.push_back(percentile(segment.latencyMs, 0.5));
        fixedLatencyMs.insert(fixedLatencyMs.end(),
                              segment.latencyMs.begin(),
                              segment.latencyMs.end());
        fixedLateMs.insert(fixedLateMs.end(), segment.lateMs.begin(),
                           segment.lateMs.end());
        windowSps.insert(windowSps.end(), sat.windowSps.begin(),
                         sat.windowSps.end());
        satCpuS += sat.cpuSeconds;
        satRequests += sat.requests;
    }
    const double p99Ms = percentile(fixedLatencyMs, 0.99);
    const double offlineSps = median(windowSps);
    // Read before the ladder: how many requests the ladder serves
    // depends on where it stops, and the engine keeps one double per
    // request served.
    const double rssMb = residentMb() - serving.rssBeforeOpenMb;

    std::vector<std::pair<double, double>> points = {
        {wl.fixedRps, p99Ms / wl.p99LimitMs}};
    std::cout << "ladder (p99 limit " << wl.p99LimitMs << " ms):";
    for (size_t k = 0; k < wl.ladderRps.size(); ++k) {
        const runtime::ServerStats s0 = engine.stats();
        const OpenLoopRun rung = harness.openLoop(
            wl.ladderRps[k],
            scaled(static_cast<size_t>(wl.ladderRps[k] * wl.ladderSeconds),
                   300),
            args.seed + 31 + k, wl.p99LimitMs, nullptr);
        const runtime::ServerStats s1 = engine.stats();
        MeanDelta batch, service;
        batch.add(s0.batchSizes.summary(), s1.batchSizes.summary());
        service.add(s0.serviceUs, s1.serviceUs);
        points.emplace_back(wl.ladderRps[k], rung.score);
        std::cout << "\n  " << wl.ladderRps[k] << "/s: p50 "
                  << percentile(rung.latencyMs, 0.5) << " ms, p99 "
                  << rung.p99Ms << " ms, score " << rung.score
                  << ", batch " << batch.mean() << ", service "
                  << service.mean() << " us, late p99 "
                  << percentile(rung.lateMs, 0.99) << " ms";
        if (rung.score > 1.0)
            break;
    }
    std::cout << "\nfixed-rate p50 per round (ms):";
    for (double v : roundP50Ms)
        std::cout << " " << v;
    std::cout << "\nsaturation windows (sample/s):";
    for (double v : windowSps)
        std::cout << " " << v;
    std::cout << "\n";
    const double sustained = sustainedRate(points);

    std::vector<Metric> endToEnd = {
        {"setup_s", median(setupS), "s"},
        {"p50_ms", median(roundP50Ms), "ms"},
        {"sustained_rps", sustained, "req/s"},
        {"offline_sps", offlineSps, "sample/s"},
        {"rss_mb", rssMb, "MB"},
        {"modeled_latency_us",
         modeled.latencyUs / static_cast<double>(modeled.requests), "us"},
        {"modeled_energy_uj",
         modeled.energyUj / static_cast<double>(modeled.requests), "uJ"},
    };

    std::vector<Metric> perLayer = {
        {"p99_ms", p99Ms, "ms"},
        {"composer.reinterpret_s", median(reinterpretS), "s"},
        {"blob.write_s", median(writeS), "s"},
        {"blob.open_s", median(openS), "s"},
        {"blob.file_mb", static_cast<double>(blobBytes) / (1024.0 * 1024.0),
         "MB"},
        {"runtime.start_ms", median(startMs), "ms"},
        {"runtime.queue_wait_ms", 1e-3 * queueWaitUs.mean(), "ms"},
        {"runtime.service_ms", 1e-3 * serviceUs.mean(), "ms"},
        {"runtime.batch_mean", batchFixed.mean(), "request"},
        {"runtime.batch_mean_sat", batchSat.mean(), "request"},
        {"host.cpu_ms_per_req",
         1e3 * satCpuS / static_cast<double>(satRequests), "ms"},
        {"gen.late_p99_ms", percentile(fixedLateMs, 0.99), "ms"},
    };
    for (const char *cat : kCategories) {
        const auto it = modeled.categories.find(cat);
        const double n = static_cast<double>(modeled.requests);
        const std::pair<double, double> sums =
            it == modeled.categories.end() ? std::pair{0.0, 0.0}
                                           : it->second;
        perLayer.push_back({std::string("modeled.") + cat + "_ns",
                            sums.first / n, "ns"});
        perLayer.push_back({std::string("modeled.") + cat + "_nj",
                            sums.second / n, "nJ"});
    }

    // ---- Traced tail: per-layer profile, after every end-to-end ------
    bool traceOk = true;
    if (args.trace) {
        rna::ChipConfig direct;
        direct.maxBatch = 8;
        rna::Chip chip(direct);
        chip.configure(serving.blob->model());
        perLayer.push_back({"rna.infer1_us", directInferUs(chip, pool, 1),
                            "us"});
        perLayer.push_back({"rna.infer8_us", directInferUs(chip, pool, 8),
                            "us"});

        telemetry::Tracer &tracer = telemetry::Tracer::global();
        tracer.clear();
        tracer.setEnabled(true);
        TraceTotals formation;
        harness.openLoop(wl.fixedRps, 250, args.seed + 51, wl.p99LimitMs,
                         nullptr);
        traceOk = drainTracer(formation) && traceOk;
        // Saturated windows, each traced one paired with an untraced one
        // just before it, so the overhead compares like with like. A
        // window stays well inside the span ring.
        TraceTotals layers;
        std::vector<double> plainSps, tracedSps;
        size_t tracedSamples = 0;
        const size_t tracedWindow =
            std::min<size_t>(scaled(wl.satWindowRequests, 50), 1500);
        for (size_t w = 0; w < 3; ++w) {
            tracer.setEnabled(false);
            plainSps.push_back(harness.closedLoop(1, tracedWindow,
                                                  args.seed + 61 + w)
                                   .windowSps.front());
            tracer.setEnabled(true);
            const ClosedLoopRun run =
                harness.closedLoop(1, tracedWindow, args.seed + 71 + w);
            tracedSps.push_back(run.windowSps.front());
            tracedSamples += run.requests;
            traceOk = drainTracer(layers) && traceOk;
        }
        tracer.setEnabled(false);

        const double n = static_cast<double>(tracedSamples);
        perLayer.push_back({"runtime.batch_form_ms",
                            median(formation.batchFormMs), "ms"});
        perLayer.push_back({"rna.encode_us", 1e-3 * layers.encodeNs / n,
                            "us"});
        for (size_t l = 0; l < kMaxLayers; ++l)
            perLayer.push_back({"rna.layer" + std::to_string(l) + "_us",
                                1e-3 * layers.layerNs[l] / n, "us"});
        perLayer.push_back(
            {"telemetry.trace_overhead_pct",
             100.0 * (1.0 - median(tracedSps) / median(plainSps)), "%"});
    }

    const Clock::time_point statsStart = Clock::now();
    const runtime::ServerStats lifetime = engine.stats();
    const double statsMs = 1e3 * secondsBetween(statsStart, Clock::now());
    engine.shutdown();
    std::remove(blobPath.c_str());

    // ---- Checks and report -------------------------------------------
    const double agreement = harness.agreement();
    const bool allCompleted = harness.failed() == 0;
    const bool bitwise = harness.mismatched() == 0;
    const bool agrees = agreement >= wl.agreementFloor;
    const bool correct = bitwise && agrees && allCompleted && traceOk;

    std::cout << "workload " << wl.name << " seed " << args.seed
              << " seconds " << args.seconds << " trace " << args.trace
              << "\n"
              << "host: nproc=" << std::thread::hardware_concurrency()
              << " simd=" << simd::variantName(rna::kernels::resolve(
                                 simd::Variant::Auto))
              << " build=" << SERVEBENCH_BUILD_TYPE
              << " workers=" << kWorkers
              << " threads=" << threadsBeforeStart << "->"
              << threadsAfterStart << " across the first engine start"
              << "\n"
              << "training (outside metrics): " << trainS << " s, float "
              << "error " << bm.baselineError << "\n"
              << "checks: bitwise-vs-reference "
              << (bitwise ? "ok" : "MISMATCH") << " ("
              << harness.mismatched() << " mismatched), top-1 agreement "
              << agreement << " (floor " << wl.agreementFloor << "), "
              << "completed " << (harness.attempted() - harness.failed())
              << "/" << harness.attempted()
              << (traceOk ? "" : ", trace ring WRAPPED") << "\n"
              << "warm-up: " << warmSps << " req/s first submit to last "
              << "completion; engine throughputRps() " << warmEngineRps
              << " req/s\n"
              << "engine: stats() took " << statsMs << " ms over "
              << lifetime.completed << " completed requests; lifetime "
              << "throughputRps() " << lifetime.throughputRps()
              << " req/s\n";
    for (const auto *list : {&endToEnd, &perLayer})
        for (const Metric &m : *list)
            std::cout << "  " << m.name << " = " << jsonNumber(m.value)
                      << " " << m.unit << "\n";

    const std::vector<Metric> &reported = args.trace ? perLayer : endToEnd;
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << harness.attempted()
         << ", \"failed\": " << harness.failed() << ", \"metrics\": {";
    for (size_t i = 0; i < reported.size(); ++i)
        json << (i ? ", " : "") << "\"" << reported[i].name
             << "\": {\"value\": " << jsonNumber(reported[i].value)
             << ", \"unit\": \"" << reported[i].unit << "\"}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
}
