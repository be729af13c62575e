/**
 * @file
 * Analytic RAPIDNN performance/energy model over layer shapes.
 *
 * The functional chip simulator (rna/chip.hh) executes real
 * reinterpreted models; that is intractable for the published ImageNet
 * topologies (billions of MACs per inference), which the paper's
 * Figures 15/16 and Table 4 need. This model computes the same
 * quantities from layer shapes using closed-form versions of the
 * per-neuron schedules; tests validate it against the functional
 * simulator on small networks.
 */

#ifndef RAPIDNN_RNA_PERF_MODEL_HH
#define RAPIDNN_RNA_PERF_MODEL_HH

#include "nn/topology.hh"
#include "rna/chip.hh"
#include "rna/perf_report.hh"

namespace rapidnn::rna {

/** Codebook configuration the analytic model assumes. */
struct PerfModelConfig
{
    size_t weightEntries = 64;   //!< w
    size_t inputEntries = 64;    //!< u
    size_t activationRows = 64;  //!< q
    size_t accumulatorBits = 32; //!< N
};

/**
 * Closed-form RAPIDNN model: per-layer neuron schedules aggregated
 * with layer pipelining, mirroring Chip::infer. Each layer's waves come
 * from the controller's plan of the shape (Controller::plan), the rule
 * the chip charges.
 */
class RnaPerfModel
{
  public:
    RnaPerfModel(ChipConfig chip, PerfModelConfig model)
        : _chip(chip), _model(model)
    {
    }

    /** Estimate one inference of a network shape. */
    PerfReport estimate(const nn::NetworkShape &shape) const;

    /** Per-neuron cycle estimate for a given fan-in (test hook). */
    uint64_t neuronCycles(size_t fanIn) const;

    /** Steady-state initiation interval of an RNA streaming neurons of
     *  a given fan-in (throughput, not latency). */
    uint64_t neuronInterval(size_t fanIn) const;

    /** Per-neuron energy estimate for a given fan-in (test hook). */
    Energy neuronEnergy(size_t fanIn) const;

    /** Throughput density in GOPS/mm^2 at peak utilization
     *  (Section 5.5 / Table 4). */
    double gopsPerMm2(const nn::NetworkShape &shape) const;

    /** Power efficiency in GOPS/W (Section 5.5). */
    double gopsPerWatt(const nn::NetworkShape &shape) const;

    const ChipConfig &chip() const { return _chip; }
    const PerfModelConfig &model() const { return _model; }

    /**
     * Analytic accelerator table storage for a network shape at this
     * codebook configuration: encoded weights at log2(w) bits plus
     * product/activation/encoding tables per distinct RNA table set
     * (the Figure 12 "memory usage" metric at paper scale).
     */
    size_t memoryBytes(const nn::NetworkShape &shape) const;

  private:
    ChipConfig _chip;
    PerfModelConfig _model;

    /** Expected addend count entering the adder tree. */
    size_t expectedAddends(size_t fanIn) const;

    /** Unrounded initiation interval of an RNA streaming neurons of a
     *  given fan-in: its slowest overlapped phase. */
    double interval(size_t fanIn) const;
};

} // namespace rapidnn::rna

#endif // RAPIDNN_RNA_PERF_MODEL_HH
