/**
 * @file
 * The RAPIDNN chip model: tiles of RNA blocks plus broadcast buffers
 * and a controller that maps reinterpreted layers onto them (paper
 * Section 4.3, Figure 9, Table 1).
 *
 * The simulator runs batches of samples through the per-neuron RNA
 * engines layer by layer, scheduling neurons onto the available RNA
 * blocks in waves and pipelining layers across tiles. It produces both
 * the functional output (identical to the software reinterpreted model,
 * which tests assert) and a cycle/energy report per sample.
 */

#ifndef RAPIDNN_RNA_CHIP_HH
#define RAPIDNN_RNA_CHIP_HH

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "composer/reinterpreted_model.hh"
#include "rna/perf_report.hh"
#include "rna/rna_block.hh"
#include "rna/workspace.hh"

namespace rapidnn::rna {

/** Chip-level configuration. */
struct ChipConfig
{
    nvm::CostModel cost;
    size_t chips = 1;          //!< 1-chip or 8-chip deployments (Fig 15)
    /** Fraction of same-layer neurons sharing one RNA block
     *  (Section 5.6, Table 4). Shared neurons serialize. */
    double rnaSharing = 0.0;
    nvm::SearchMode searchMode = nvm::SearchMode::AbsoluteExact;
    /**
     * true (default) runs the one production path, inferBatch's
     * batched layer walk; false runs the paper-faithful reference walk
     * instead: every neuron gathers its own weight and input codes into
     * fresh vectors and runs RnaLayerContext::evaluate(). Both give
     * bitwise-identical logits and PerfReports
     * (tests/batch_equivalence_test.cc sweeps them against each
     * other); the reference is the oracle servebench and the tests
     * check production against. A compute layer whose codebooks exceed
     * 256 entries does not pack into 8-bit codes and runs the reference
     * evaluator on the production path too.
     */
    bool fastPath = true;
    /**
     * SIMD kernel table the production path dispatches through. Auto
     * (default) picks the best variant the build and host support,
     * overridable via the RAPIDNN_SIMD environment variable; Scalar is
     * the portable bitwise oracle of the vector variants. Results are
     * bitwise identical for every value, so this is a pure speed knob.
     */
    simd::Variant simd = simd::Variant::Auto;
    /**
     * Arena-sizing hint for inferBatch(): the number of batch lanes
     * the workspace's batch-strided buffers are sized for at
     * configure() time (the serving engine passes its
     * ServingConfig::maxBatch through here). Larger batches still
     * work — the buffers grow on first use. A pure capacity knob:
     * results are identical at any value.
     */
    size_t maxBatch = 1;

    size_t totalRnas() const
    {
        return cost.rnasPerTile * cost.tilesPerChip * chips;
    }
};

/** Area roll-up of one RNA block (Figure 14 inner ring). */
struct RnaAreaBreakdown
{
    Area crossbar{};
    Area counter{};
    Area activationAm{};
    Area encodingAm{};
    Area other{};

    Area
    total() const
    {
        return crossbar + counter + activationAm + encodingAm + other;
    }
};

/** Area roll-up of the whole chip (Figure 14 outer ring, Table 1). */
struct ChipAreaBreakdown
{
    Area rna{};        //!< all RNA blocks
    Area memory{};     //!< data blocks (input/output crossbar storage)
    Area buffer{};
    Area controller{};
    Area other{};

    Area
    total() const
    {
        return rna + memory + buffer + controller + other;
    }
};

/**
 * The chip simulator.
 */
class Chip
{
  public:
    explicit Chip(ChipConfig config) : _config(config) {}

    /**
     * Configure the chip with a reinterpreted model. Keeps a reference;
     * the model must outlive the chip.
     */
    void configure(const composer::ReinterpretedModel &model);

    /**
     * Run one sample: inferBatch() over a batch of one. Returns raw
     * logits (bit-identical to the software reinterpreted model) and
     * fills the report. Const and free of shared mutable state:
     * concurrent calls on one chip (or on clones) produce
     * bitwise-identical results to serial calls.
     */
    std::vector<double> infer(const nn::Tensor &x,
                              PerfReport &report) const;

    /**
     * Run a batch of samples through the chip, executing each layer
     * once for the whole batch so work that does not depend on the
     * sample (weight-row loads, counting cycles, AM batch lookups) is
     * shared by the batch lanes. This is the one
     * production path; infer() is a batch of one. Logits, codes and
     * the per-lane PerfReports are bitwise identical to the reference
     * walk (fastPath = false) at any batch size and SIMD variant.
     * `reports` must hold at least inputs.size() entries; returns one
     * logits vector per input, in order.
     */
    std::vector<std::vector<double>>
    inferBatch(std::span<const nn::Tensor> inputs,
               std::span<PerfReport> reports) const;

    /** Classification error rate with cost accounting folded into one
     *  averaged report. */
    double errorRate(const nn::Dataset &data, PerfReport &avgReport) const;

    /**
     * A fresh chip with the same configuration, wired to the same
     * (shared, read-only) reinterpreted model — one replica per
     * serving-runtime worker. The replica shares the configured chip's
     * immutable layer contexts (product tables, AM blocks, packed
     * weights) and only builds its own mutable workspace, so replica
     * instantiation is O(workspace), not O(model).
     */
    Chip clone() const;

    /** Per-RNA area breakdown (Figure 14). */
    RnaAreaBreakdown rnaArea() const;

    /** Whole-chip area breakdown (Figure 14, Table 1). */
    ChipAreaBreakdown chipArea() const;

    /** Peak chip power (Table 1 roll-up). */
    Power chipPower() const;

    const ChipConfig &config() const { return _config; }

  private:
    /**
     * The immutable per-model hardware state: one context per compute
     * layer (including layers nested inside residual blocks), keyed by
     * the RLayer's address. Built once by configure() and shared
     * read-only across clone() replicas — contexts are never mutated
     * after construction, so replicas need no copies.
     */
    struct ContextSet
    {
        std::vector<std::unique_ptr<RnaLayerContext>> contexts;
        std::map<const composer::RLayer *, size_t> byLayer;
    };

    ChipConfig _config;
    const composer::ReinterpretedModel *_model = nullptr;
    /** Resolved kernel dispatch table; set once by configure(),
     *  shared by clones. */
    const simd::KernelOps *_kops = nullptr;
    std::shared_ptr<const ContextSet> _contexts;
    /** Shared inference workspace, built at configure time and leased
     *  per infer() call (concurrent callers fall back to spares). */
    mutable std::unique_ptr<Workspace> _workspace;

    void configureLayers(ContextSet &set,
                         const std::vector<composer::RLayer> &layers);

    /** Build this chip's private workspace from the shared contexts
     *  (pool seeding, conv plans, batch arenas). */
    void buildWorkspace();

    /**
     * The reference walk of one layer for one sample (fastPath =
     * false, and compute layers whose codebooks do not pack), plus the
     * pool and flatten layers, which runLayerBatch() hands over one
     * lane at a time.
     */
    void runLayer(const composer::RLayer &layer,
                  const composer::EncodedTensor &in, bool lastCompute,
                  Workspace &ws, LayerRun &run) const;

    /**
     * The dense layer's production path: groups each lane's fan-in by
     * input code, runs the tally over the layer's 8-neuron groups,
     * batches the activation and encoding lookups, and reduces each
     * lane's costs in serial neuron order. runs[L] matches the
     * reference walk of ins[L], bit for bit. Requires ctx.hasTally(),
     * as do the two below.
     */
    void runDenseTally(const composer::RLayer &layer,
                       const RnaLayerContext &ctx,
                       std::span<const composer::EncodedTensor> ins,
                       bool lastCompute, Workspace &ws,
                       LayerRun *runs) const;

    /**
     * The conv layer's production path: per output position and lane,
     * the window grouped by input code once and every output channel
     * tallied over it; then the dense path's batched lookups and
     * serial cost reduction.
     */
    void runConvTally(const composer::RLayer &layer,
                      const RnaLayerContext &ctx,
                      std::span<const composer::EncodedTensor> ins,
                      bool lastCompute, Workspace &ws,
                      LayerRun *runs) const;

    /**
     * The recurrent layer's production path: per lane and step, x_t
     * and the previous state grouped by code and tallied over the x
     * and feedback rows, each hidden neuron finished in the reference
     * order.
     */
    void runRecurrentTally(const composer::RLayer &layer,
                           const RnaLayerContext &ctx,
                           std::span<const composer::EncodedTensor> ins,
                           bool lastCompute, Workspace &ws,
                           LayerRun *runs) const;

    /**
     * Run one layer for a whole batch, filling runs[L] with exactly
     * what the reference walk of ins[L] produces. Dense, conv and
     * recurrent layers the tally serves take their production path; a
     * batch whose lanes differ in shape runs as batches of one;
     * everything else (the reference walk, pools, flatten) runs
     * runLayer() per lane in lane order.
     */
    void runLayerBatch(const composer::RLayer &layer,
                       std::span<const composer::EncodedTensor> ins,
                       bool lastCompute, Workspace &ws,
                       std::span<LayerRun> runs) const;

    /** inferBatch() into caller-owned logits, so infer() allocates
     *  only the vector it returns. */
    void runBatch(std::span<const nn::Tensor> inputs,
                  std::span<PerfReport> reports,
                  std::span<std::vector<double>> logits) const;

    /** Input-encoding cost of one sample (CAM search per element plus
     *  the data-block stream-out). */
    nvm::OpCost inputEncodeCost(size_t numel) const;

    /** Fold one layer's run into a sample tally: totals, latency,
     *  worst stage and the inter-layer broadcast-buffer traffic. */
    void tallyLayerRun(InferTally &t, const LayerRun &run,
                       const composer::RLayer &layer,
                       bool isLastCompute) const;

    /** Turn a finished tally into the PerfReport: write-back cost,
     *  active energies, occupancy leakage and the category split. */
    void finalizeReport(InferTally &t, size_t logitCount,
                        PerfReport &report) const;
};

} // namespace rapidnn::rna

#endif // RAPIDNN_RNA_CHIP_HH
