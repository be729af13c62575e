/**
 * @file
 * Serving-runtime walkthrough: compose a small model, stand up the
 * batched multi-threaded engine via Rapidnn::serve(), fire a burst of
 * asynchronous requests at it plus one malformed request (refused at
 * admission), and read back the ServerStats snapshot and the merged
 * deployment PerfReport.
 *
 * Telemetry hooks (both optional, off by default):
 *  - RAPIDNN_METRICS_PORT=<port>: serve Prometheus metrics on
 *    127.0.0.1:<port>/metrics (0 picks an ephemeral port), enable
 *    request tracing, and self-scrape the endpoint at the end so the
 *    scrape output lands in stdout (CI smoke-checks it).
 *  - RAPIDNN_TRACE=<path>: write the traced spans as Chrome
 *    trace_event JSON (load in chrome://tracing or Perfetto).
 */

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/rapidnn.hh"
#include "nn/trainer.hh"
#include "runtime/serving_engine.hh"
#include "telemetry/telemetry.hh"

int
main()
{
    using namespace rapidnn;

    // Telemetry switches (see file comment). Tracing goes on before
    // composition so the compose/evaluate pipeline spans land in the
    // trace alongside the serving lifecycle.
    const char *metricsPortEnv = std::getenv("RAPIDNN_METRICS_PORT");
    const char *tracePath = std::getenv("RAPIDNN_TRACE");
    if (metricsPortEnv != nullptr || tracePath != nullptr)
        telemetry::Tracer::global().setEnabled(true);

    // A quick composed deployment (same flow as examples/quickstart).
    nn::Dataset data =
        nn::makeVectorTask({"serve-demo", 24, 4, 420, 0.35, 1.0, 11});
    auto [train, validation] = data.split(0.25);
    Rng rng(12);
    nn::Network net = nn::buildMlp({.inputs = 24, .hidden = {32, 24},
                                    .outputs = 4}, rng);
    nn::Trainer trainer({.epochs = 12, .batchSize = 16,
                         .learningRate = 0.05});
    trainer.train(net, train);

    core::RapidnnConfig config;
    config.composer.weightClusters = 16;
    config.composer.inputClusters = 16;
    core::Rapidnn rapid(config);
    core::RunReport report = rapid.runOneShot(net, train, validation);
    std::cout << "composed model error: " << report.acceleratorError
              << "\n";

    // Serve a burst of async requests across 4 chip replicas.
    runtime::ServingConfig serving;
    serving.workers = 4;
    serving.maxBatch = 8;
    serving.maxLatencyUs = 300;
    serving.queueCapacity = 32;

    if (metricsPortEnv != nullptr)
        serving.metricsPort = static_cast<uint16_t>(
            std::atoi(metricsPortEnv));
    auto engine = rapid.serve(serving);

    // RAPIDNN_METRICS_PORT=0 asks for an ephemeral port, which the
    // engine treats as "disabled" — stand up a demo-owned endpoint
    // instead so CI can smoke-scrape without a fixed port.
    std::unique_ptr<telemetry::MetricsServer> ephemeral;
    uint16_t scrapePort = engine->metricsPort();
    if (metricsPortEnv != nullptr && scrapePort == 0) {
        ephemeral = std::make_unique<telemetry::MetricsServer>(
            0, [] {
                std::ostringstream body;
                telemetry::dumpAll(body);
                return body.str();
            });
        scrapePort = ephemeral->ok() ? ephemeral->port() : 0;
    }

    std::vector<std::future<runtime::InferResult>> futures;
    size_t rejected = 0;
    for (size_t i = 0; i < 64; ++i) {
        // trySubmit shows backpressure handling; fall back to the
        // blocking submit when the queue is momentarily full.
        auto future =
            engine->trySubmit(validation.sample(i % validation.size()).x);
        if (future) {
            futures.push_back(std::move(*future));
        } else {
            ++rejected;
            futures.push_back(engine->submit(
                validation.sample(i % validation.size()).x));
        }
    }

    // A request of the wrong shape is refused at admission: its future
    // fails with std::invalid_argument and no worker ever sees it.
    try {
        engine->submit(nn::Tensor({3})).get();
    } catch (const std::invalid_argument &e) {
        std::cout << "malformed request refused: " << e.what() << "\n";
    }

    size_t correct = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
        runtime::InferResult result = futures[i].get();
        const auto &sample = validation.sample(i % validation.size());
        const size_t best = static_cast<size_t>(
            std::max_element(result.logits.begin(),
                             result.logits.end())
            - result.logits.begin());
        correct += static_cast<int>(best) == sample.label ? 1 : 0;
    }
    engine->drain();

    const runtime::ServerStats stats = engine->stats();
    const rna::PerfReport perf = engine->perfReport();
    std::cout << std::fixed << std::setprecision(1)
              << "served " << stats.completed << " requests ("
              << correct << " correct), " << rejected
              << " hit backpressure first\n"
              << "batches: " << stats.batches << " (mean size "
              << stats.batchSizes.summary().mean() << ")\n"
              << "host latency us: p50 " << stats.p50LatencyUs
              << "  p95 " << stats.p95LatencyUs << "  p99 "
              << stats.p99LatencyUs << "\n"
              << "host throughput: " << stats.throughputRps()
              << " req/s\n"
              << "modeled deployment throughput ("
              << stats.workers << " replicas): "
              << stats.modeledThroughputRps() << " req/s\n"
              << std::setprecision(3) << "modeled energy/inference: "
              << perf.energy.uj() / double(perf.inferences)
              << " uJ\n";

    // Self-scrape the live endpoint so the Prometheus rendering lands
    // in stdout (CI greps it; humans can `curl` the same URL while the
    // demo runs).
    if (scrapePort != 0) {
        const std::string body = telemetry::scrapeLocal(scrapePort);
        std::cout << "\n-- scraped 127.0.0.1:" << scrapePort
                  << "/metrics (" << body.size() << " bytes) --\n"
                  << body;
    }

    if (tracePath != nullptr) {
        std::ofstream out(tracePath);
        telemetry::writeChromeTrace(out);
        std::cout << "wrote Chrome trace ("
                  << telemetry::Tracer::global().snapshot().size()
                  << " spans) to " << tracePath << "\n";
    }
    return 0;
}
