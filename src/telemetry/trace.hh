/**
 * @file
 * Request tracing: a span abstraction (begin/end, parent links) with a
 * thread-safe ring-buffer sink and a Chrome trace_event JSON exporter
 * for flame-chart viewing (chrome://tracing, Perfetto).
 *
 * Tracing is off by default and zero-cost-when-disabled: a ScopedSpan
 * constructor checks one relaxed atomic and, when tracing is off, reads
 * no clock and touches no shared state.
 *
 * Wall-clock policy: the steady_clock reads live HERE, inside the
 * telemetry layer, and feed only observability data — never model
 * outputs. Code under src/rna/ must not read clocks directly
 * (tools/lint_determinism.py `wall-clock` rule); it traces through the
 * RAPIDNN_TELEMETRY_SPAN guard macros below, which keep the clock
 * access behind this file's API.
 */

#ifndef RAPIDNN_TELEMETRY_TRACE_HH
#define RAPIDNN_TELEMETRY_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/sync.hh"
#include "telemetry/metrics.hh"

namespace rapidnn::telemetry {

/** One completed span in the ring sink. */
struct SpanRecord
{
    /** Span name, truncated; fixed storage keeps the sink allocation-
     *  free once constructed. */
    char name[24] = {};
    uint64_t id = 0;
    uint64_t parent = 0;   //!< 0 = no parent
    uint64_t startNs = 0;  //!< steady time since tracer epoch
    uint64_t durNs = 0;
    uint32_t tid = 0;      //!< small sequential thread id
    int64_t arg = -1;      //!< optional numeric payload (-1 = none)

    void
    setName(std::string_view n)
    {
        const size_t len = std::min(n.size(), sizeof(name) - 1);
        std::memcpy(name, n.data(), len);
        name[len] = '\0';
    }
};

/**
 * The span sink: a fixed-capacity ring buffer of completed spans. When
 * the ring wraps, the oldest spans are overwritten — tracing a long run
 * keeps the most recent window, which is what a flame chart of "what is
 * the server doing right now" wants.
 */
class Tracer
{
  public:
    explicit Tracer(size_t capacity = kDefaultCapacity);

    /** The process-wide tracer used by the guard macros. */
    static Tracer &global();

    void
    setEnabled(bool on)
    {
        _enabled.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return _enabled.load(std::memory_order_relaxed);
    }

    /** Nanoseconds on the steady clock since the tracer epoch. */
    static uint64_t nowNs();

    /** Convert a steady_clock time_point to tracer-epoch nanoseconds. */
    static uint64_t toNs(std::chrono::steady_clock::time_point t);

    /** Fresh process-unique span id (never 0). */
    uint64_t
    nextId()
    {
        return _nextId.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Record a completed span with explicit timestamps — the path for
     * cross-thread spans (e.g. queue wait measured between producer
     * and worker) and for testing with synthetic times.
     */
    void record(std::string_view name, uint64_t startNs,
                uint64_t endNs, uint64_t id, uint64_t parent,
                int64_t arg = -1) RAPIDNN_EXCLUDES(_mutex);

    /** Spans currently buffered, oldest first. */
    std::vector<SpanRecord> snapshot() const RAPIDNN_EXCLUDES(_mutex);

    /** Total spans ever recorded (including overwritten ones). */
    uint64_t recorded() const RAPIDNN_EXCLUDES(_mutex);

    /** Drop all buffered spans (ids keep advancing). */
    void clear() RAPIDNN_EXCLUDES(_mutex);

    size_t capacity() const { return _capacity; }

    /**
     * Current thread's innermost live span id (0 outside any span).
     * ScopedSpan maintains this so nested spans parent automatically,
     * across call boundaries (e.g. engine request span -> chip layer
     * spans).
     */
    static uint64_t currentSpan();

  private:
    friend class ScopedSpan;
    static constexpr size_t kDefaultCapacity = 8192;

    static void setCurrentSpan(uint64_t id);

    std::atomic<bool> _enabled{false};
    std::atomic<uint64_t> _nextId{1};

    /** Ring size, fixed at construction; readable without _mutex. */
    const size_t _capacity;

    mutable Mutex _mutex;
    std::vector<SpanRecord> _ring RAPIDNN_GUARDED_BY(_mutex);
    uint64_t _total RAPIDNN_GUARDED_BY(_mutex) = 0;
};

/**
 * RAII span: starts at construction, records into the sink at scope
 * exit. When the tracer is disabled at construction the object is
 * inert (no clock read, no id, no sink access). Optionally observes
 * the measured duration (in seconds) into a registry histogram, so one
 * timing guard feeds both the flame chart and the scrape surface.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(Tracer &tracer, std::string_view name,
                        int64_t arg = -1, uint64_t parentOverride = 0,
                        Histogram *durationHistogram = nullptr);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 when tracing was disabled at construction). */
    uint64_t id() const { return _id; }

  private:
    Tracer *_tracer = nullptr;  //!< null = disabled at construction
    Histogram *_histogram = nullptr;
    char _name[24] = {};
    uint64_t _id = 0;
    uint64_t _parent = 0;
    uint64_t _prevCurrent = 0;
    uint64_t _startNs = 0;
    int64_t _arg = -1;
};

/**
 * Export spans as Chrome trace_event JSON (load via chrome://tracing
 * or https://ui.perfetto.dev). Complete ("ph":"X") events carry the
 * span id, parent id and numeric arg in "args".
 */
void writeChromeTrace(std::ostream &out,
                      const std::vector<SpanRecord> &spans);

/** writeChromeTrace over the global tracer's current buffer. */
void writeChromeTrace(std::ostream &out);

} // namespace rapidnn::telemetry

#define RAPIDNN_TELEMETRY_CONCAT2(a, b) a##b
#define RAPIDNN_TELEMETRY_CONCAT(a, b) RAPIDNN_TELEMETRY_CONCAT2(a, b)

/**
 * Telemetry guard macros — the sanctioned way for model/simulator code
 * (notably src/rna/) to measure wall time. The clock reads stay inside
 * telemetry::ScopedSpan; when tracing is disabled the expansion costs
 * one relaxed atomic load.
 *
 * RAPIDNN_TELEMETRY_SPAN(name[, arg]): span for the enclosing scope.
 * RAPIDNN_TELEMETRY_STAGE(name, hist): scope span that also observes
 * its duration into a registry histogram (may be null).
 */
#define RAPIDNN_TELEMETRY_SPAN(...)                                  \
    rapidnn::telemetry::ScopedSpan RAPIDNN_TELEMETRY_CONCAT(         \
        rapidnnTelemetrySpan_, __COUNTER__)(                         \
        rapidnn::telemetry::Tracer::global(), __VA_ARGS__)

#define RAPIDNN_TELEMETRY_STAGE(name, hist)                          \
    rapidnn::telemetry::ScopedSpan RAPIDNN_TELEMETRY_CONCAT(         \
        rapidnnTelemetrySpan_, __COUNTER__)(                         \
        rapidnn::telemetry::Tracer::global(), name, -1, 0, hist)

#endif // RAPIDNN_TELEMETRY_TRACE_HH
