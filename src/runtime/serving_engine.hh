/**
 * @file
 * The batched multi-threaded serving engine: asynchronous inference
 * requests flow through a bounded admission queue into a micro-batcher
 * and onto a pool of worker threads, each owning an rna::Chip replica
 * configured from one shared, read-only reinterpreted model. This is
 * the software analogue of the paper's block-level parallelism: a
 * deployment replicates RNA chips and schedules independent requests
 * across them, so serving throughput scales with replicas while each
 * request keeps single-chip latency.
 *
 * Each micro-batch runs as one Chip::inferBatch call on the worker's
 * replica. Determinism guarantee: inferBatch is const and replicas
 * share no mutable state, so for a fixed request set the logits are
 * bitwise identical to serial single-chip inference regardless of
 * worker count, batch boundaries, or scheduling order.
 *
 * Requests are validated at admission: an input whose shape differs
 * from the model's canonical input shape, or that holds a NaN or
 * infinity, is refused with std::invalid_argument before it reaches a
 * queue, and counted as rapidnn_requests_rejected_total{reason=
 * "invalid"}.
 */

#ifndef RAPIDNN_RUNTIME_SERVING_ENGINE_HH
#define RAPIDNN_RUNTIME_SERVING_ENGINE_HH

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hh"

#include "blob/blob.hh"
#include "composer/reinterpreted_model.hh"
#include "nn/tensor.hh"
#include "rna/chip.hh"
#include "rna/perf_report.hh"
#include "runtime/batcher.hh"
#include "runtime/request_queue.hh"
#include "runtime/server_stats.hh"
#include "telemetry/telemetry.hh"

namespace rapidnn::runtime {

/** Serving-engine knobs. */
struct ServingConfig
{
    size_t workers = 2;          //!< chip replicas / worker threads
    /** Flush a batch at this size (also the replicas'
     *  ChipConfig::maxBatch arena hint)... */
    size_t maxBatch = 8;
    uint64_t maxLatencyUs = 200; //!< ...or this long after its first
                                 //!< request, whichever comes first
    size_t queueCapacity = 64;   //!< admission-queue bound (backpressure)
    /**
     * Loopback TCP port for the Prometheus scrape endpoint. 0 (the
     * default) disables the endpoint entirely; the registry still
     * accumulates and can be dumped via telemetry::dumpAll. A failed
     * bind logs a warning but never refuses to serve inference.
     */
    uint16_t metricsPort = 0;
};

/** What a completed request resolves to. */
struct InferResult
{
    std::vector<double> logits;  //!< bit-identical to serial Chip::infer
    rna::PerfReport perf;        //!< simulated chip cost of this sample
    size_t batchSize = 0;        //!< size of the batch it rode in
    size_t workerId = 0;         //!< replica that served it
};

class ServingEngine
{
  public:
    /**
     * Spin up the worker pool. The model must outlive the engine; it
     * is shared read-only by every replica. Throws
     * std::invalid_argument if the model records no canonical input
     * shape (the composer and the blob loader always set one).
     */
    ServingEngine(const composer::ReinterpretedModel &model,
                  const rna::ChipConfig &chipConfig,
                  const ServingConfig &config = {});

    /**
     * Serve straight from a memory-mapped model blob. Every replica's
     * Arrays view the one shared mapping (page-cache-backed, zero
     * per-replica copies); the engine holds the blob alive for its
     * own lifetime, so callers may drop their reference.
     */
    ServingEngine(std::shared_ptr<const blob::ModelBlob> blob,
                  const rna::ChipConfig &chipConfig,
                  const ServingConfig &config = {});

    /** Graceful: drains in-flight work, then joins the pool. */
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Enqueue a request, blocking while the queue is full
     * (backpressure). After shutdown() the returned future fails with
     * std::future_error (broken_promise). An invalid request (shape
     * other than the model's canonical input shape, or a non-finite
     * value) is not admitted: the future fails with
     * std::invalid_argument.
     */
    std::future<InferResult> submit(nn::Tensor input);

    /** Non-blocking admission; nullopt when the queue is full. An
     *  invalid request returns a future failed with
     *  std::invalid_argument, as submit() does. */
    std::optional<std::future<InferResult>> trySubmit(nn::Tensor input);

    /** Block until every accepted request has completed. */
    void drain() RAPIDNN_EXCLUDES(_inflightMutex);

    /**
     * Graceful shutdown: refuse new requests, finish everything
     * already accepted, join the workers. Idempotent.
     */
    void shutdown();

    /** Point-in-time statistics snapshot. */
    ServerStats stats() const RAPIDNN_EXCLUDES(_perfMutex);

    /** Per-worker PerfReports merged into one deployment roll-up. */
    rna::PerfReport perfReport() const RAPIDNN_EXCLUDES(_perfMutex);

    const ServingConfig &config() const { return _config; }

    /** Resolved scrape-endpoint port; 0 when disabled or bind failed. */
    uint16_t metricsPort() const;

  private:
    struct Request
    {
        nn::Tensor input;
        std::promise<InferResult> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    struct Worker
    {
        explicit Worker(rna::Chip replica) : chip(std::move(replica)) {}

        rna::Chip chip;
        /** perf/busyChipTime are guarded by the engine's _perfMutex —
         *  a cross-object guard the static analysis cannot express;
         *  enforced by TSan and review (DESIGN.md §11). */
        rna::PerfReport perf;  //!< merged sample reports (_perfMutex)
        Time busyChipTime{};   //!< simulated busy time (_perfMutex)
        std::thread thread;
    };

    void workerMain(size_t index);
    /** Empty when `input` may be served, else why it may not. */
    std::string invalidReason(const nn::Tensor &input) const;
    std::future<InferResult> admit(Request request, bool &accepted,
                                   bool blocking)
        RAPIDNN_EXCLUDES(_inflightMutex);

    ServingConfig _config;
    /** The model's canonical input shape, which every request must
     *  match. */
    nn::Shape _inputShape;
    /** Keeps a blob-backed model's mapping alive (null for heap
     *  models, which the caller owns). */
    std::shared_ptr<const blob::ModelBlob> _blob;
    /** One admission queue; every worker claims its batches here. */
    BoundedQueue<Request> _queue;
    MicroBatcher<Request> _batcher;
    StatsCollector _stats;
    std::vector<std::unique_ptr<Worker>> _workers;
    /** steady_clock ticks of the first submit/trySubmit (0 = none
     *  yet): where ServerStats::wallSeconds starts. */
    std::atomic<int64_t> _firstSubmitTicks{0};

    /** Guards per-worker perf accounting (batch granularity). */
    mutable Mutex _perfMutex;

    /** accepted/finished counters for drain(). */
    mutable Mutex _inflightMutex;
    CondVar _inflightCv;
    uint64_t _accepted RAPIDNN_GUARDED_BY(_inflightMutex) = 0;
    uint64_t _finished RAPIDNN_GUARDED_BY(_inflightMutex) = 0;

    std::atomic<bool> _shutdown{false};

    /** Snapshot-time gauges sampling this engine (queue depth,
     *  workers). Declared after the queue/workers they read so they
     *  unregister first on destruction. */
    std::vector<telemetry::ScopedCallback> _gauges;
    /** Optional scrape endpoint; declared last so it stops first. */
    std::unique_ptr<telemetry::MetricsServer> _metricsServer;
};

} // namespace rapidnn::runtime

#endif // RAPIDNN_RUNTIME_SERVING_ENGINE_HH
