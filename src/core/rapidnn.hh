/**
 * @file
 * The top-level RAPIDNN API: trains (or accepts) a float model, runs
 * the DNN composer, configures the simulated accelerator, and reports
 * accuracy / performance / energy. This is the entry point examples
 * and benches use; everything underneath is reachable for fine-grained
 * control.
 */

#ifndef RAPIDNN_CORE_RAPIDNN_HH
#define RAPIDNN_CORE_RAPIDNN_HH

#include <memory>
#include <optional>

#include "baselines/accelerator_model.hh"
#include "composer/composer.hh"
#include "nn/synthetic.hh"
#include "nn/topology.hh"
#include "rna/chip.hh"
#include "rna/perf_model.hh"
#include "runtime/serving_engine.hh"

namespace rapidnn::core {

/** End-to-end configuration of a RAPIDNN deployment. */
struct RapidnnConfig
{
    composer::ComposerConfig composer;
    rna::ChipConfig chip;
};

/** Everything a full run produces. */
struct RunReport
{
    composer::ComposeResult compose;   //!< accuracy + retraining history
    rna::PerfReport perf;              //!< accelerator timing/energy
    double acceleratorError = 0.0;     //!< error measured on the chip sim
    size_t memoryBytes = 0;            //!< accelerator table storage

    double deltaE() const { return compose.deltaE; }
};

/**
 * A composed RAPIDNN deployment: owns the reinterpreted model and the
 * chip simulator configured with it.
 */
class Rapidnn
{
  public:
    explicit Rapidnn(RapidnnConfig config) : _config(config) {}

    /**
     * Full pipeline: compose the trained network (retraining it in
     * place), configure the chip, and measure error + performance over
     * the evaluation set.
     */
    RunReport run(nn::Network &net, const nn::Dataset &train,
                  const nn::Dataset &validation);

    /**
     * One-shot reinterpretation without the retraining loop (used by
     * configuration sweeps where speed matters more than the last few
     * tenths of accuracy).
     */
    RunReport runOneShot(nn::Network &net, const nn::Dataset &train,
                         const nn::Dataset &validation);

    /** The chip simulator (valid after run/runOneShot). */
    rna::Chip &chip() { return *_chip; }

    /**
     * Start a batched multi-threaded serving engine over the composed
     * model (valid after run/runOneShot). The engine reads this
     * deployment's model in place, so the Rapidnn object must outlive
     * it.
     */
    std::unique_ptr<runtime::ServingEngine>
    serve(const runtime::ServingConfig &serving = {}) const;

    /**
     * Write the composed model (valid after run/runOneShot) as a
     * single-file .rnnb blob: every weight block, codebook, product
     * and activation table packed aligned so serveBlob and
     * blob::ModelBlob::open can map it back zero-copy.
     */
    void exportBlob(const std::string &path) const;

    /**
     * Serve straight from a .rnnb blob file without composing: maps
     * the file, validates it, and spins up a worker pool whose
     * replicas all view the one shared mapping.
     */
    static std::unique_ptr<runtime::ServingEngine>
    serveBlob(const std::string &path, const rna::ChipConfig &chip,
              const runtime::ServingConfig &serving = {});

    /** The composed model (valid after run/runOneShot). */
    const composer::ReinterpretedModel &model() const { return _model; }

    const RapidnnConfig &config() const { return _config; }

  private:
    RapidnnConfig _config;
    composer::ReinterpretedModel _model;
    std::unique_ptr<rna::Chip> _chip;

    RunReport measure(composer::ComposeResult compose,
                      const nn::Dataset &validation);
};

/**
 * Builders for the paper's six benchmark models (Table 2 topologies at
 * the reduced stand-in scale documented in DESIGN.md).
 */
struct BenchmarkModel
{
    nn::Benchmark benchmark;
    nn::Network network;
    nn::Dataset train;
    nn::Dataset validation;
    double baselineError = 0.0;  //!< float error after training
    nn::NetworkShape shape;      //!< for the performance models
};

/** Options controlling stand-in training scale. */
struct BenchmarkOptions
{
    size_t samples = 0;        //!< 0 = per-benchmark default
    size_t trainEpochs = 8;
    double holdout = 0.25;
    /** Scale factor on hidden widths (1.0 = the paper's Table 2). */
    double widthScale = 1.0;
    uint64_t seed = 77;
};

/** Train a float stand-in for one of the paper's six benchmarks. */
BenchmarkModel buildBenchmarkModel(nn::Benchmark benchmark,
                                   const BenchmarkOptions &options = {});

/** The Table 2 topology for a benchmark (before width scaling). */
std::string benchmarkTopologyString(nn::Benchmark benchmark);

} // namespace rapidnn::core

#endif // RAPIDNN_CORE_RAPIDNN_HH
