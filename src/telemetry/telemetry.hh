/**
 * @file
 * Umbrella entry points for the telemetry layer: one include for the
 * registry, tracing, and exposition pieces, plus the glue helpers used
 * by benches, examples and the serving engine (dumpAll, task-pool
 * metric registration, and the standard bucket layouts shared between
 * producers so scrape output stays mergeable).
 */

#ifndef RAPIDNN_TELEMETRY_TELEMETRY_HH
#define RAPIDNN_TELEMETRY_TELEMETRY_HH

#include <ostream>
#include <vector>

#include "telemetry/metrics.hh"
#include "telemetry/metrics_server.hh"
#include "telemetry/prometheus.hh"
#include "telemetry/trace.hh"

namespace rapidnn::telemetry {

/**
 * Standard histogram bucket layouts. Producers registering the same
 * metric family must agree on bounds (Registry asserts this), so the
 * layouts live here rather than at the call sites.
 */

/** Request-scale latencies: 25us .. 1s. */
std::vector<double> latencyBucketsSeconds();

/** Layer/stage-scale timings: 1us .. 100ms. */
std::vector<double> stageBucketsSeconds();

/** Batch-size buckets: 1, 2, 4, ... 64. */
std::vector<double> batchSizeBuckets();

/** Fraction-of-capacity buckets (eighths of [0, 1]), e.g. for batch
 *  lane utilization = filled lanes / configured maxBatch. */
std::vector<double> utilizationBuckets();

/**
 * Render everything the process knows into `out` as Prometheus text —
 * the one-call dump used by benches and serving_demo at exit, and the
 * same body the TCP endpoint serves.
 */
void dumpAll(std::ostream &out);

} // namespace rapidnn::telemetry

#endif // RAPIDNN_TELEMETRY_TELEMETRY_HH
