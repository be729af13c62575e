#include "runtime/serving_engine.hh"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <stdexcept>

namespace rapidnn::runtime {

namespace {

double
elapsedUs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** Null-checks a blob before the delegating constructor runs. */
const composer::ReinterpretedModel &
modelOf(const std::shared_ptr<const blob::ModelBlob> &blob)
{
    if (blob == nullptr)
        fatal("ServingEngine: null model blob");
    return blob->model();
}

/** A future that already failed with std::invalid_argument(why). */
std::future<InferResult>
invalidRequest(const std::string &why)
{
    std::promise<InferResult> promise;
    promise.set_exception(
        std::make_exception_ptr(std::invalid_argument(why)));
    return promise.get_future();
}

} // namespace

ServingEngine::ServingEngine(std::shared_ptr<const blob::ModelBlob> blob,
                             const rna::ChipConfig &chipConfig,
                             const ServingConfig &config)
    : ServingEngine(modelOf(blob), chipConfig, config)
{
    _blob = std::move(blob);
}

ServingEngine::ServingEngine(const composer::ReinterpretedModel &model,
                             const rna::ChipConfig &chipConfig,
                             const ServingConfig &config)
    : _config(config),
      _inputShape(model.canonicalInputShape()),
      _queue(std::max<size_t>(1, config.queueCapacity)),
      _batcher(_queue, std::max<size_t>(1, config.maxBatch),
               std::chrono::microseconds(config.maxLatencyUs)),
      _stats(std::max<size_t>(1, config.maxBatch))
{
    if (_config.workers == 0)
        throw std::invalid_argument(
            "ServingEngine: needs at least one worker");
    if (_inputShape.empty())
        throw std::invalid_argument(
            "ServingEngine: model records no canonical input shape");

    // One configured prototype, cloned per worker: every replica reads
    // the same const model, none shares mutable state. The engine's
    // micro-batch bound doubles as the chip's batch-arena sizing hint
    // so inferBatch never grows buffers mid-serve.
    rna::ChipConfig replicaConfig = chipConfig;
    replicaConfig.maxBatch = std::max(
        replicaConfig.maxBatch, std::max<size_t>(1, config.maxBatch));
    rna::Chip prototype(replicaConfig);
    prototype.configure(model);
    _workers.reserve(_config.workers);
    for (size_t i = 0; i < _config.workers; ++i)
        _workers.push_back(std::make_unique<Worker>(prototype.clone()));
    for (size_t i = 0; i < _config.workers; ++i)
        _workers[i]->thread =
            std::thread([this, i] { workerMain(i); });

    // Telemetry: sample this engine's queue depth and replica count at
    // scrape time, and (optionally) open the scrape endpoint. The
    // gauges capture `this`; their ScopedCallback members unregister
    // before the queue they read is destroyed.
    telemetry::Registry &registry = telemetry::Registry::global();
    _gauges.emplace_back(
        registry, "rapidnn_queue_depth",
        "Requests waiting in the admission queue",
        telemetry::MetricKind::Gauge,
        [this] { return static_cast<double>(_queue.size()); });
    _gauges.emplace_back(
        registry, "rapidnn_serving_workers",
        "Worker threads (chip replicas) in the serving engine",
        telemetry::MetricKind::Gauge,
        [this] { return static_cast<double>(_workers.size()); });
    if (_config.metricsPort != 0) {
        _metricsServer = std::make_unique<telemetry::MetricsServer>(
            _config.metricsPort, [] {
                std::ostringstream body;
                telemetry::dumpAll(body);
                return body.str();
            });
        if (_metricsServer->ok())
            inform("metrics endpoint on 127.0.0.1:",
                   _metricsServer->port(), "/metrics");
        else
            warn("metrics endpoint bind failed on port ",
                 _config.metricsPort, "; serving without it");
    }

    inform("serving engine up: ", _config.workers, " workers, batch<=",
           _config.maxBatch, ", flush<=", _config.maxLatencyUs,
           "us, queue<=", _queue.capacity());
}

uint16_t
ServingEngine::metricsPort() const
{
    return _metricsServer && _metricsServer->ok()
        ? _metricsServer->port() : 0;
}

ServingEngine::~ServingEngine()
{
    shutdown();
}

std::future<InferResult>
ServingEngine::admit(Request request, bool &accepted, bool blocking)
{
    std::future<InferResult> future = request.promise.get_future();
    // The throughput window opens at the first admission attempt.
    if (_firstSubmitTicks.load(std::memory_order_relaxed) == 0) {
        int64_t none = 0;
        _firstSubmitTicks.compare_exchange_strong(
            none, request.enqueued.time_since_epoch().count(),
            std::memory_order_relaxed);
    }
    {
        // Pre-count so drain() can never observe finished > accepted;
        // rolled back when admission fails.
        MutexLock lock(_inflightMutex);
        ++_accepted;
    }
    accepted = blocking ? _queue.push(std::move(request))
                        : _queue.tryPush(std::move(request));
    if (accepted) {
        _stats.recordSubmitted();
    } else {
        MutexLock lock(_inflightMutex);
        --_accepted;
    }
    return future;
}

std::string
ServingEngine::invalidReason(const nn::Tensor &input) const
{
    if (input.shape() != _inputShape)
        return "request shape " + nn::shapeToString(input.shape())
             + " != model input shape " + nn::shapeToString(_inputShape);
    for (size_t i = 0; i < input.numel(); ++i)
        if (!std::isfinite(input[i]))
            return "request value " + std::to_string(i)
                 + " is not finite";
    return {};
}

std::future<InferResult>
ServingEngine::submit(nn::Tensor input)
{
    if (std::string why = invalidReason(input); !why.empty()) {
        _stats.recordInvalid();
        return invalidRequest(why);
    }
    Request request{std::move(input), {},
                    std::chrono::steady_clock::now()};
    bool accepted = false;
    // When the queue is closed the promise dies unfulfilled and the
    // future reports broken_promise, as documented.
    return admit(std::move(request), accepted, /*blocking=*/true);
}

std::optional<std::future<InferResult>>
ServingEngine::trySubmit(nn::Tensor input)
{
    if (std::string why = invalidReason(input); !why.empty()) {
        _stats.recordInvalid();
        return invalidRequest(why);
    }
    Request request{std::move(input), {},
                    std::chrono::steady_clock::now()};
    bool accepted = false;
    std::future<InferResult> future =
        admit(std::move(request), accepted, /*blocking=*/false);
    if (!accepted) {
        _stats.recordRejected();
        return std::nullopt;
    }
    return future;
}

void
ServingEngine::workerMain(size_t index)
{
    Worker &worker = *_workers[index];
    telemetry::Tracer &tracer = telemetry::Tracer::global();
    for (;;) {
        const uint64_t formStartNs =
            tracer.enabled() ? telemetry::Tracer::nowNs() : 0;
        std::vector<Request> batch = _batcher.nextBatch();
        if (batch.empty())
            return;  // queue closed and drained
        const auto claimed = std::chrono::steady_clock::now();
        _stats.recordBatch(batch.size());

        // Trace the batch lifecycle. The batch span id is minted up
        // front so formation, queue-wait and per-request spans can
        // parent to it; the span itself is recorded once the batch
        // completes. Queue waits are cross-thread intervals (producer
        // enqueue -> this worker's claim), so they use explicit
        // timestamps rather than a scoped guard.
        const bool tracing = tracer.enabled();
        const uint64_t batchSpanId = tracing ? tracer.nextId() : 0;
        const uint64_t claimedNs =
            tracing ? telemetry::Tracer::toNs(claimed) : 0;
        if (tracing) {
            // Batch formation: this worker waiting on the batcher for
            // a flush (size or deadline). Skipped when tracing turned
            // on mid-wait (no start timestamp).
            if (formStartNs != 0)
                tracer.record("batch_form", formStartNs, claimedNs,
                              tracer.nextId(), batchSpanId);
            for (const Request &request : batch)
                tracer.record(
                    "queue_wait",
                    telemetry::Tracer::toNs(request.enqueued),
                    claimedNs, tracer.nextId(), batchSpanId);
        }

        // Run the whole batch first: one inferBatch call runs every
        // layer once for the whole batch and emits per-lane
        // PerfReports...
        std::vector<nn::Tensor> inputs;
        inputs.reserve(batch.size());
        for (Request &request : batch)
            inputs.push_back(std::move(request.input));
        std::vector<rna::PerfReport> perfs(batch.size());
        std::vector<std::vector<double>> logits;
        {
            // Batched span, parented to the batch; the chip's own
            // per-layer stage spans nest under it. arg = worker.
            telemetry::ScopedSpan inferSpan(
                tracer, "batch_infer", static_cast<int64_t>(index),
                batchSpanId);
            logits = worker.chip.inferBatch(
                std::span<const nn::Tensor>(inputs),
                std::span<rna::PerfReport>(perfs));
        }
        std::vector<InferResult> results(batch.size());
        Time batchChipTime{};
        rna::PerfReport batchPerf;
        for (size_t i = 0; i < batch.size(); ++i) {
            InferResult &result = results[i];
            result.logits = std::move(logits[i]);
            result.perf = std::move(perfs[i]);
            result.perf.inferences = 1;
            result.batchSize = batch.size();
            result.workerId = index;

            // Pipelined replica accounting: the batch's first sample
            // pays full chip latency, later samples stream behind it
            // at the slowest-stage interval (paper Section 4.3).
            batchChipTime += i == 0 ? result.perf.latency
                                    : result.perf.stageTime;
            batchPerf.merge(result.perf);
        }

        // ...then commit the worker's accounting BEFORE fulfilling any
        // promise, so once drain() observes finished == accepted the
        // perfReport()/stats() roll-ups are complete.
        {
            MutexLock lock(_perfMutex);
            worker.busyChipTime += batchChipTime;
            worker.perf.merge(batchPerf);
        }
        for (size_t i = 0; i < batch.size(); ++i) {
            const auto done = std::chrono::steady_clock::now();
            _stats.recordRequest(
                elapsedUs(batch[i].enqueued, claimed),
                elapsedUs(claimed, done),
                elapsedUs(batch[i].enqueued, done));
            batch[i].promise.set_value(std::move(results[i]));
            {
                MutexLock lock(_inflightMutex);
                ++_finished;
            }
            _inflightCv.notifyAll();
        }
        if (tracing)
            tracer.record("batch", claimedNs,
                          telemetry::Tracer::nowNs(), batchSpanId,
                          /*parent=*/0,
                          static_cast<int64_t>(batch.size()));
    }
}

void
ServingEngine::drain()
{
    MutexLock lock(_inflightMutex);
    while (_finished < _accepted)
        _inflightCv.wait(_inflightMutex);
}

void
ServingEngine::shutdown()
{
    bool expected = false;
    if (_shutdown.compare_exchange_strong(expected, true)) {
        // close() refuses new work; workers drain what was accepted
        // and exit on end-of-stream.
        _queue.close();
    }
    for (auto &worker : _workers)
        if (worker->thread.joinable())
            worker->thread.join();
}

ServerStats
ServingEngine::stats() const
{
    ServerStats stats;
    _stats.snapshotInto(stats);
    stats.queueDepth = _queue.size();
    stats.workers = _workers.size();
    const int64_t first =
        _firstSubmitTicks.load(std::memory_order_relaxed);
    if (first != 0) {
        const std::chrono::steady_clock::time_point start{
            std::chrono::steady_clock::duration(first)};
        stats.wallSeconds =
            elapsedUs(start, std::chrono::steady_clock::now()) * 1e-6;
    }
    MutexLock lock(_perfMutex);
    for (const auto &worker : _workers)
        stats.modeledChipTime =
            std::max(stats.modeledChipTime, worker->busyChipTime);
    return stats;
}

rna::PerfReport
ServingEngine::perfReport() const
{
    rna::PerfReport merged;
    MutexLock lock(_perfMutex);
    for (const auto &worker : _workers)
        if (worker->perf.inferences > 0)
            merged.merge(worker->perf);
    return merged;
}

} // namespace rapidnn::runtime
