/**
 * @file
 * The RAPIDNN chip model: tiles of RNA blocks plus broadcast buffers
 * and a controller that maps reinterpreted layers onto them (paper
 * Section 4.3, Figure 9, Table 1).
 *
 * The simulator runs a reinterpreted model sample-by-sample through the
 * per-neuron RNA engines, scheduling neurons onto the available RNA
 * blocks in waves and pipelining layers across tiles. It produces both
 * the functional output (identical to the software reinterpreted model,
 * which tests assert) and a cycle/energy report.
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
     * Use the zero-allocation fused-lookup inference path. Results are
     * bitwise-identical either way (values, codes, PerfReport —
     * tests/fastpath_equivalence_test.cc pins this); false keeps the
     * original allocating reference path, kept as the comparison
     * baseline for benchmarks and the equivalence guard.
     */
    bool fastPath = true;
    /**
     * Intra-op parallelism: task-pool lanes one infer() call may use
     * to run a layer's neuron shards concurrently (the host analogue
     * of the chip's parallel RNA blocks). The shard grid is fixed and
     * thread-count independent, every lane gets private scratch, and
     * all floating-point reductions run serially in neuron order — so
     * logits, codes, OpCost and PerfReport are bitwise identical at
     * any value (tests/intraop_determinism_test.cc pins this).
     * 1 (default) keeps the serial fast path. Only the fast path
     * shards; the reference path (fastPath = false) stays serial as
     * the comparison baseline.
     */
    size_t numThreads = 1;
    /**
     * SIMD kernel dispatch for the fast path's inner loops. Auto
     * (default) picks the best variant the build and host support
     * (overridable via the RAPIDNN_SIMD environment variable); Off
     * disables the kernel layer entirely, keeping the scalar reference
     * loops. Results are bitwise identical for every value — variant
     * selection is a pure speed knob (tests/kernel_equivalence_test.cc
     * pins this).
     */
    simd::Variant simd = simd::Variant::Auto;
    /**
     * Arena-sizing hint for inferBatch(): the number of batch lanes
     * the workspace's batch-strided buffers are sized for at
     * configure() time (the serving engine passes its
     * ServingConfig::maxBatch through here). Larger batches still
     * work — the buffers grow on first use; 1 (default) keeps the
     * batch arenas unallocated. A pure capacity knob: results are
     * identical at any value.
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
     * Run one sample. Returns raw logits (bit-identical to the software
     * reinterpreted model) and fills the report. Const and free of
     * shared mutable state: concurrent calls on one chip (or on
     * clones) produce bitwise-identical results to serial calls.
     */
    std::vector<double> infer(const nn::Tensor &x,
                              PerfReport &report) const;

    /**
     * infer() with a per-call intra-op thread budget: 0 uses
     * ChipConfig::numThreads, any other value overrides it for this
     * call only. The serving engine uses this to borrow pool lanes
     * when its admission queue is shallow. Results are bitwise
     * identical at any budget.
     */
    std::vector<double> infer(const nn::Tensor &x, PerfReport &report,
                              size_t numThreadsOverride) const;

    /**
     * Run a batch of samples through the chip, executing each layer
     * once for the whole batch so per-output-neuron work (weight-code
     * loads, fused pair-key construction, counting-cycle hints, AM
     * batch lookups) is amortized across the batch lanes (the dense
     * tally reads each weight-row slice once for all lanes;
     * KernelOps::pairKeys8Lanes builds every conv and recurrent lane's
     * keys from one weight load). Logits, codes and the per-lane
     * PerfReports are bitwise identical to inputs.size() sequential infer() calls
     * at any thread count and SIMD variant
     * (tests/batch_equivalence_test.cc pins this). `reports` must
     * hold at least inputs.size() entries; returns one logits vector
     * per input, in order.
     */
    std::vector<std::vector<double>>
    inferBatch(std::span<const nn::Tensor> inputs,
               std::span<PerfReport> reports,
               size_t numThreadsOverride = 0) const;

    /** Classification error rate with cost accounting folded into one
     *  averaged report. */
    double errorRate(const nn::Dataset &data, PerfReport &avgReport) const;

    /**
     * A fresh chip with the same configuration, wired to the same
     * (shared, read-only) reinterpreted model — one replica per
     * serving-runtime worker. The replica shares the configured chip's
     * immutable layer contexts (product tables, AM blocks, transposed
     * columns) and only builds its own mutable workspace, so replica
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
    /** Resolved kernel dispatch table (nullptr = scalar reference
     *  loops); set once by configure(), shared by clones. */
    const simd::KernelOps *_kops = nullptr;
    std::shared_ptr<const ContextSet> _contexts;
    /** Shared inference workspace, built at configure time and leased
     *  per infer() call (concurrent callers fall back to spares). */
    mutable std::unique_ptr<Workspace> _workspace;

    struct LayerRun
    {
        composer::EncodedTensor output;
        std::vector<double> raw;
        NeuronCost cost;        //!< summed over all neurons
        uint64_t stageCycles;   //!< wall cycles with RNA parallelism
    };

    /**
     * Per-sample accounting accumulated across the layer walk. infer()
     * keeps one, inferBatch() keeps one per lane; both feed the same
     * tally/finalize helpers so the per-lane PerfReports of a batch
     * are bitwise identical to sequential infer() reports.
     */
    struct InferTally
    {
        uint64_t latencyCycles = 0;
        uint64_t worstStage = 0;
        Energy totalEnergy{};
        NeuronCost totals;
        uint64_t bufferCycles = 0;
        Energy bufferEnergy{};
        nvm::OpCost inputEncode;
    };

    void configureLayers(ContextSet &set,
                         const std::vector<composer::RLayer> &layers);

    /** Build this chip's private workspace from the shared contexts
     *  (pool seeding, conv plans, lane scratch). */
    void buildWorkspace();

    /** @param threads intra-op lane budget for this call (>= 1). */
    LayerRun runLayer(const composer::RLayer &layer,
                      const composer::EncodedTensor &in,
                      bool lastCompute, Workspace &ws,
                      size_t threads) const;

    /**
     * The dense kernel path, for one sample (runLayer) or a batch
     * (runLayerBatch): groups each lane's fan-in by input code, runs
     * the dense tally over the layer's 8-neuron groups (sharded over
     * the fixed intra-op grid when threads > 1), batches the
     * activation and encoding lookups, and reduces each lane's costs
     * in serial neuron order. runs[L] matches what the per-neuron fast
     * path produces for inputs[L], bit for bit. Requires
     * ctx.hasDenseRows().
     */
    void runDenseTally(const composer::RLayer &layer,
                       const RnaLayerContext &ctx,
                       const uint16_t *const *inputs, size_t lanes,
                       bool lastCompute, Workspace &ws, size_t threads,
                       LayerRun *runs) const;

    /**
     * Run one layer for a whole batch, filling runs[L] with exactly
     * what runLayer(layer, ins[L], ...) would produce. Dense, conv and
     * recurrent layers with a packed kernel context take the batched
     * kernel path (shared weight-column work, per-lane key stripes);
     * everything else falls back to per-lane runLayer calls in lane
     * order, which is trivially identical.
     */
    void runLayerBatch(const composer::RLayer &layer,
                       const std::vector<composer::EncodedTensor> &ins,
                       bool lastCompute, Workspace &ws, size_t threads,
                       std::vector<LayerRun> &runs) const;

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
