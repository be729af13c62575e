/**
 * @file
 * Serving-runtime statistics: a thread-safe collector the workers feed
 * and an immutable ServerStats snapshot (throughput, latency
 * percentiles, queue depth, batch-size histogram).
 *
 * Since the telemetry layer landed, the collector's event counters and
 * distribution observations live in the process-wide
 * telemetry::Registry (the scrape surface): submitted / rejected /
 * completed / batches are registry counters, and latency, queue-wait
 * and batch-size observations also feed registry histograms. The
 * collector reads counters back as deltas against its construction
 * baseline, so per-engine ServerStats stay exact even though the
 * registry metrics are cumulative across sequential engines. Exact
 * percentile reporting (p50/p95/p99) keeps the latencies of the most
 * recent kLatencyWindow completed requests in a fixed ring under a
 * mutex and interpolates between order statistics of that window —
 * never truncating to a sample index (common/stats.hh percentile;
 * pinned by telemetry_test's regression vector). The ring bounds both
 * memory and snapshot cost however long the engine serves; the
 * lifetime latency distribution stays in the registry histogram.
 *
 * Two clocks coexist deliberately. *Host wall time* measures the
 * runtime itself (queue wait, service time, end-to-end latency of this
 * process). *Modeled chip time* accumulates the simulated RAPIDNN
 * latency each worker's chip replica would spend, so throughput
 * scaling across workers reflects the paper's replicated-accelerator
 * deployment rather than how many host cores the simulator happens to
 * run on.
 */

#ifndef RAPIDNN_RUNTIME_SERVER_STATS_HH
#define RAPIDNN_RUNTIME_SERVER_STATS_HH

#include <vector>

#include "common/stats.hh"
#include "common/sync.hh"
#include "common/units.hh"
#include "telemetry/telemetry.hh"

namespace rapidnn::runtime {

/** Point-in-time snapshot of a serving engine. */
struct ServerStats
{
    uint64_t submitted = 0;   //!< accepted into the queue
    uint64_t rejected = 0;    //!< refused by trySubmit (queue full)
    uint64_t invalid = 0;     //!< refused at admission: wrong shape or
                              //!< a non-finite value
    uint64_t completed = 0;   //!< results delivered
    uint64_t batches = 0;     //!< batches executed
    size_t queueDepth = 0;    //!< requests waiting at snapshot time
    size_t workers = 0;

    Summary queueWaitUs;      //!< host wall: admission -> claimed
    Summary serviceUs;        //!< host wall: claimed -> result ready
    Histogram batchSizes;     //!< requests per executed batch

    /** Host wall end-to-end percentiles over the most recent
     *  StatsCollector::kLatencyWindow completed requests
     *  (interpolated, never truncated). */
    double p50LatencyUs = 0.0;
    double p95LatencyUs = 0.0;
    double p99LatencyUs = 0.0;

    /** Seconds from the engine's first submit to the snapshot (0 before
     *  any submit): construction, replica clones, thread spawn and
     *  idle time before the first request are not counted. */
    double wallSeconds = 0.0;
    /** Busiest replica's accumulated simulated chip time. */
    Time modeledChipTime{};

    /** Host-side requests/second since the first submit. */
    double
    throughputRps() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(completed) / wallSeconds : 0.0;
    }

    /**
     * Modeled requests/second of the simulated deployment: completed
     * requests over the busiest chip replica's simulated busy time.
     * This is the number that scales with worker (replica) count.
     */
    double
    modeledThroughputRps() const
    {
        return modeledChipTime.sec() > 0.0
            ? static_cast<double>(completed) / modeledChipTime.sec()
            : 0.0;
    }
};

/**
 * Thread-safe accumulator behind ServerStats snapshots, built on the
 * telemetry registry. Counter updates are lock-free sharded atomics;
 * only the latency ring and the Summary/Histogram mirrors take the
 * mutex, and a snapshot holds it just long enough to copy them.
 */
class StatsCollector
{
  public:
    /** Completed requests whose latencies the percentiles cover. */
    static constexpr size_t kLatencyWindow = 8192;

    explicit StatsCollector(
        size_t maxBatch,
        telemetry::Registry &registry = telemetry::Registry::global())
        : _batchSizes(0.5, static_cast<double>(maxBatch) + 0.5,
                      maxBatch),
          _submitted(registry.counter(
              "rapidnn_requests_submitted_total",
              "Requests accepted into the admission queue")),
          _rejected(registry.counter("rapidnn_requests_rejected_total",
                                     kRejectedHelp,
                                     "reason=\"queue_full\"")),
          _invalid(registry.counter("rapidnn_requests_rejected_total",
                                    kRejectedHelp, "reason=\"invalid\"")),
          _completed(registry.counter(
              "rapidnn_requests_completed_total",
              "Requests whose results were delivered")),
          _batches(registry.counter("rapidnn_batches_total",
                                    "Micro-batches executed")),
          _latencySeconds(registry.histogram(
              "rapidnn_request_latency_seconds",
              "Host wall end-to-end request latency",
              telemetry::latencyBucketsSeconds())),
          _queueWaitSeconds(registry.histogram(
              "rapidnn_queue_wait_seconds",
              "Host wall time from admission to batch claim",
              telemetry::latencyBucketsSeconds())),
          _batchSizeHist(registry.histogram(
              "rapidnn_batch_size", "Requests per executed batch",
              telemetry::batchSizeBuckets())),
          _laneUtilization(registry.histogram(
              "rapidnn_batch_lane_utilization",
              "Filled batch lanes as a fraction of the configured "
              "maxBatch",
              telemetry::utilizationBuckets())),
          _maxBatch(std::max<size_t>(1, maxBatch)),
          _submitted0(_submitted.value()),
          _rejected0(_rejected.value()),
          _invalid0(_invalid.value()),
          _completed0(_completed.value()),
          _batches0(_batches.value())
    {
    }

    void recordSubmitted() { _submitted.add(1); }

    void recordRejected() { _rejected.add(1); }

    void recordInvalid() { _invalid.add(1); }

    void
    recordBatch(size_t batchSize) RAPIDNN_EXCLUDES(_mutex)
    {
        _batches.add(1);
        _batchSizeHist.observe(static_cast<double>(batchSize));
        _laneUtilization.observe(static_cast<double>(batchSize)
                                 / static_cast<double>(_maxBatch));
        MutexLock lock(_mutex);
        _batchSizes.add(static_cast<double>(batchSize));
    }

    void
    recordRequest(double queueWaitUs, double serviceUs,
                  double latencyUs) RAPIDNN_EXCLUDES(_mutex)
    {
        _completed.add(1);
        _latencySeconds.observe(latencyUs * 1e-6);
        _queueWaitSeconds.observe(queueWaitUs * 1e-6);
        MutexLock lock(_mutex);
        _queueWaitUs.add(queueWaitUs);
        _serviceUs.add(serviceUs);
        if (_latenciesUs.size() < kLatencyWindow) {
            _latenciesUs.push_back(latencyUs);
        } else {
            _latenciesUs[_latencyNext] = latencyUs;
            _latencyNext = (_latencyNext + 1) % kLatencyWindow;
        }
    }

    /** Fill the collector-owned fields of a snapshot. */
    void
    snapshotInto(ServerStats &stats) const RAPIDNN_EXCLUDES(_mutex)
    {
        stats.submitted = _submitted.value() - _submitted0;
        stats.rejected = _rejected.value() - _rejected0;
        stats.invalid = _invalid.value() - _invalid0;
        stats.completed = _completed.value() - _completed0;
        stats.batches = _batches.value() - _batches0;
        std::vector<double> window;
        {
            MutexLock lock(_mutex);
            stats.queueWaitUs = _queueWaitUs;
            stats.serviceUs = _serviceUs;
            stats.batchSizes = _batchSizes;
            window = _latenciesUs;
        }
        // Order statistics are taken outside the lock, so workers'
        // recordRequest() calls never wait on a snapshot's selection.
        stats.p50LatencyUs = percentileInPlace(window, 0.50);
        stats.p95LatencyUs = percentileInPlace(window, 0.95);
        stats.p99LatencyUs = percentileInPlace(window, 0.99);
    }

    /** Latencies currently held for the percentiles (at most
     *  kLatencyWindow). */
    size_t
    retainedLatencies() const RAPIDNN_EXCLUDES(_mutex)
    {
        MutexLock lock(_mutex);
        return _latenciesUs.size();
    }

  private:
    static constexpr const char *kRejectedHelp =
        "Requests refused at admission (queue_full: trySubmit found "
        "the queue full; invalid: wrong shape or a non-finite value)";

    mutable Mutex _mutex;
    /** Exact-percentile mirrors of the registry histograms; the
     *  registry's sharded atomics handle the hot-path counts, these
     *  locked copies keep p50/p95/p99 exact. */
    Summary _queueWaitUs RAPIDNN_GUARDED_BY(_mutex);
    Summary _serviceUs RAPIDNN_GUARDED_BY(_mutex);
    Histogram _batchSizes RAPIDNN_GUARDED_BY(_mutex);
    /** Ring of the most recent kLatencyWindow latencies; once full,
     *  _latencyNext is the oldest slot, overwritten next. */
    std::vector<double> _latenciesUs RAPIDNN_GUARDED_BY(_mutex);
    size_t _latencyNext RAPIDNN_GUARDED_BY(_mutex) = 0;

    telemetry::Counter &_submitted;
    telemetry::Counter &_rejected;
    telemetry::Counter &_invalid;
    telemetry::Counter &_completed;
    telemetry::Counter &_batches;
    telemetry::Histogram &_latencySeconds;
    telemetry::Histogram &_queueWaitSeconds;
    telemetry::Histogram &_batchSizeHist;
    telemetry::Histogram &_laneUtilization;
    /** Lane-utilization denominator (the engine's maxBatch bound). */
    const size_t _maxBatch;
    /** Registry counters are process-cumulative; per-engine stats are
     *  deltas against these construction-time baselines. */
    const uint64_t _submitted0;
    const uint64_t _rejected0;
    const uint64_t _invalid0;
    const uint64_t _completed0;
    const uint64_t _batches0;
};

} // namespace rapidnn::runtime

#endif // RAPIDNN_RUNTIME_SERVER_STATS_HH
