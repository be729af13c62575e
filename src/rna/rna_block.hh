/**
 * @file
 * One RNA block: the hardware unit that executes one reinterpreted
 * neuron (paper Figure 7). Combines the weighted-accumulation engine
 * with the two AM blocks (activation function and encoding/pooling).
 */

#ifndef RAPIDNN_RNA_RNA_BLOCK_HH
#define RAPIDNN_RNA_RNA_BLOCK_HH

#include <memory>
#include <optional>

#include "composer/reinterpreted_model.hh"
#include "nvm/am_block.hh"
#include "rna/accumulation.hh"
#include "rna/workspace.hh"

namespace rapidnn::rna {

// NeuronCost (the per-phase cost breakdown of one neuron evaluation,
// Figure 13) is defined in rna/workspace.hh, which this header
// includes: the workspace's LayerRun sums one per layer.

/** Output of one neuron evaluation. */
struct NeuronResult
{
    double rawValue = 0.0;    //!< post-activation real value
    uint16_t code = 0;        //!< encoded value (when an encoder exists)
    bool encoded = false;
    NeuronCost cost;
};

/**
 * The per-layer hardware context shared by all RNA blocks computing
 * neurons of the same reinterpreted layer: the accumulation engine per
 * weight codebook, the activation AM and the encoding AM.
 */
class RnaLayerContext
{
  public:
    /**
     * Build the context for a compute layer.
     * @param layer reinterpreted Dense/Conv/Recurrent layer.
     * @param model circuit-cost anchors.
     * @param mode NDCAM search behaviour.
     * @param kops kernel table of the production path; without one the
     *        context serves only the reference evaluate() calls.
     */
    RnaLayerContext(const composer::RLayer &layer,
                    const nvm::CostModel &model,
                    nvm::SearchMode mode = nvm::SearchMode::AbsoluteExact,
                    const simd::KernelOps *kops = nullptr);

    /**
     * Evaluate one neuron: the paper-faithful reference evaluator that
     * the production path is checked against.
     * @param channel weight-codebook index (0 for dense layers).
     * @param weightCodes the neuron's encoded weights.
     * @param inputCodes encoded inputs, parallel to weightCodes.
     * @param bias the neuron's bias.
     */
    NeuronResult evaluate(size_t channel,
                          const std::vector<uint16_t> &weightCodes,
                          const std::vector<uint16_t> &inputCodes,
                          double bias) const;

    /**
     * Max-pool a window of encoded values by loading them into the
     * encoding/pooling AM and issuing one MAX search (Section 4.2.1).
     */
    static uint16_t poolMax(const std::vector<uint16_t> &codes,
                            const nvm::CostModel &model,
                            nvm::OpCost &cost);

    /**
     * The production twin of poolMax(): charges the identical load +
     * MAX-search cost without materializing an Ndcam, and resolves the
     * same winner through the kernel table's max reduction (codes are
     * order-preserving values).
     */
    static uint16_t poolMaxFast(const uint16_t *codes, size_t count,
                                const nvm::CostModel &model,
                                nvm::OpCost &cost,
                                const simd::KernelOps &ops);

    /**
     * One unrolled step of a recurrent neuron: accumulate the x-path
     * products plus the feedback-path products (the previous step's
     * encoded output from the input FIFO), apply the activation table,
     * and encode the new hidden state into the state codebook.
     * Only valid on Recurrent layers.
     */
    NeuronResult evaluateRecurrentStep(
        const std::vector<uint16_t> &xWeightCodes,
        const std::vector<uint16_t> &xCodes,
        const std::vector<uint16_t> &hWeightCodes,
        const std::vector<uint16_t> &hCodes, double bias) const;

    /**
     * The rest of a recurrent step once both operand paths are
     * accumulated: the costs and values add (both paths share one
     * adder tree), then the activation lookup and the state encoding.
     */
    NeuronResult finishRecurrentStep(const AccumResult &x,
                                     const AccumResult &h) const;

    /** Encode a raw value into the recurrent state codebook. */
    uint16_t encodeState(double value, nvm::OpCost &cost) const;

    // ------------------------------------------------------------------
    // Production path: the tally (KernelOps::tally). Only usable when
    // hasTally(); every result is bitwise identical to the reference
    // evaluators above (tests/batch_equivalence_test.cc).
    // ------------------------------------------------------------------

    /**
     * True when the tally serves this layer: a kernel table was given
     * and composer::tallyPacks(layer) holds, so the packed weight rows
     * exist. Input codes are grouped rather than narrowed, so the input
     * codebooks may be any size.
     */
    bool hasTally() const { return _hasTally; }

    /** Neurons per packed row (outCount padded to 8). */
    size_t tallyStride() const { return _stride; }

    /**
     * Run the tally for one batch lane over the 8-neuron groups
     * [groupBegin, groupEnd) of the forward path, or of the recurrent
     * feedback path when `statePath`: writes the product sum, non-zero
     * cell count and CSD-term count of every neuron in those groups,
     * neuron groupBegin * 8 + k at index k. `inputs` is the lane's
     * fan-in grouped by input code, its `order` holding weight rows.
     */
    void tally(const InputBuckets &inputs, size_t groupBegin,
               size_t groupEnd, int64_t *sums, uint32_t *distinct,
               uint32_t *addends, bool statePath = false) const;

    /**
     * Neuron j's AccumResult from its tally outputs over `fanIn` edges
     * whose deepest weight buffer holds `countingCycles` codes:
     * bitwise-identical to the reference accumulation of the neuron
     * (channel j's engine on a conv layer; the feedback path, without
     * bias, when `statePath`).
     */
    AccumResult tallyResult(size_t j, int64_t sum, uint32_t distinct,
                            uint32_t addends, size_t fanIn,
                            uint32_t countingCycles, AccumScratch &sc,
                            bool statePath = false) const;

    /** Neuron j's counting cycles over its full fan-in (hoisted at
     *  configure time; dense and recurrent layers). */
    uint32_t
    countingCycles(size_t j, bool statePath = false) const
    {
        return (statePath ? _stateTally : _tally).counting[j];
    }

    /**
     * Counting cycles of every output channel over every window of a
     * conv gather plan: [position * outCount + channel].
     */
    std::vector<uint32_t>
    windowCountingCycles(const ConvGatherPlan &plan) const;

    bool hasActivation() const { return _activationAm.has_value(); }
    bool hasEncoder() const { return _encodingAm.has_value(); }

    /** The constant analytic cost one activation lookup charges. */
    const nvm::OpCost &activationQueryCost() const
    {
        return _activationQueryCost;
    }

    /** The constant analytic cost one encoding lookup charges. */
    const nvm::OpCost &encodingQueryCost() const
    {
        return _encodingQueryCost;
    }

    /**
     * Batched activation over a contiguous value range: out[i] = the
     * activation AM's payload for in[i] (identity copy when the layer
     * has no activation table). Functional-only — the caller charges
     * activationQueryCost() per neuron. in == out is allowed.
     * keyScratch/rowScratch are caller-sized to n.
     */
    void activateBatch(const double *in, double *out, size_t n,
                       uint32_t *keyScratch, uint32_t *rowScratch) const;

    /**
     * Batched output encoding: codes[i] = the encoding-AM row of
     * in[i]. Functional-only — the caller charges encodingQueryCost()
     * per neuron. Requires hasEncoder().
     */
    void encodeBatch(const double *in, size_t n, uint32_t *keyScratch,
                     uint32_t *rowScratch, uint16_t *codes) const;

    const composer::RLayer &layer() const { return _layer; }

    /** Crossbar rows this layer's product tables occupy. */
    size_t productRows() const;

  private:
    const composer::RLayer &_layer;
    nvm::CostModel _model;
    std::vector<AccumulationEngine> _engines;  //!< one per codebook
    std::optional<nvm::AmBlock> _activationAm;
    std::optional<nvm::AmBlock> _encodingAm;
    /** Feedback-path engine and state-encoding AM (recurrent only). */
    std::optional<AccumulationEngine> _stateEngine;
    std::optional<nvm::AmBlock> _stateEncodingAm;
    /** Kernel dispatch table (nullptr = reference evaluator only). */
    const simd::KernelOps *_kops = nullptr;

    /** One weight matrix the tally reads. */
    struct TallyRows
    {
        /** [rows][_stride] packed weight codes: a view of the blob's
         *  section when present, otherwise derived at configure. */
        Array<uint8_t> rows;
        /** Conv only: every channel's padded product table, end to
         *  end (dense and recurrent read their engine's table). */
        std::vector<int64_t> ownProducts;
        const int64_t *products = nullptr;
        std::vector<uint64_t> base;  //!< [_stride] table start per neuron
        uint32_t shift = 0;
        uint32_t maskWords = 0;
        /** [outCount] deepest weight buffer over the full fan-in;
         *  empty on a conv layer. */
        std::vector<uint32_t> counting;
    };
    void buildTally(TallyRows &t, bool statePath);

    bool _hasTally = false;
    size_t _stride = 0;
    TallyRows _tally;       //!< forward path
    TallyRows _stateTally;  //!< recurrent feedback path
    size_t _maxWeightEntries = 0;  //!< widest weight codebook
    /** Constant analytic per-lookup costs, precomputed so the batch
     *  paths charge without re-deriving them per neuron. */
    nvm::OpCost _activationQueryCost;
    nvm::OpCost _encodingQueryCost;
};

} // namespace rapidnn::rna

#endif // RAPIDNN_RNA_RNA_BLOCK_HH
