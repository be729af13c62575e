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
// includes: the workspace stores one per neuron and batch lane for the
// batched recurrent reduction.

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

    /** Encode a raw value into the recurrent state codebook. */
    uint16_t encodeState(double value, nvm::OpCost &cost) const;

    // ------------------------------------------------------------------
    // Production path. Only usable when the context was built with a
    // kernel table and its codebooks pack; every result is bitwise
    // identical to evaluate() (tests/batch_equivalence_test.cc).
    // ------------------------------------------------------------------

    /** True when every forward-path codebook fits 8-bit packed codes
     *  (weight + input codebooks <= 256 entries). */
    bool packed() const { return _packed; }

    /** True when the recurrent feedback path also packs (state
     *  codebook <= 256 entries); implies packed(). */
    bool packedRecurrent() const { return _packedRec; }

    /**
     * True when the dense tally serves this layer: a dense layer with
     * a kernel table and a weight codebook of at most 256 entries (the
     * packed input-major rows exist). Input codes are grouped rather
     * than narrowed, so the input codebook may be any size.
     */
    bool hasDenseRows() const { return !_denseRows8.empty(); }

    /** Neurons per packed dense row (outCount padded to 8). */
    size_t denseRowStride() const { return _denseRowStride; }

    /**
     * Run the dense tally (KernelOps::denseTally) for one batch lane
     * over the 8-neuron groups [groupBegin, groupEnd): writes the
     * product sum, non-zero cell count and CSD-term count of every
     * neuron in those groups, neuron groupBegin * 8 + k at index k.
     * `inputs` is the lane's fan-in grouped by input code. Requires
     * hasDenseRows().
     */
    void denseTally(const InputBuckets &inputs, size_t groupBegin,
                    size_t groupEnd, int64_t *sums, uint32_t *distinct,
                    uint32_t *addends) const;

    /** Neuron j's AccumResult from its denseTally outputs;
     *  bitwise-identical to the neuron's evaluate() accumulation. */
    AccumResult
    denseResult(size_t j, int64_t sum, uint32_t distinct,
                uint32_t addends, AccumScratch &sc) const
    {
        return _engines[0].denseResult(sum, distinct, addends,
                                       _denseCounting[j], _layer.inCount,
                                       _layer.bias[j], sc);
    }

    /** Packed contiguous per-channel conv weight codes (full windows
     *  feed these straight to pairKeys8Lanes). Valid when packed(). */
    const uint8_t *
    convChannel8(size_t oc) const
    {
        return _convChannel8[oc].data();
    }

    /** Neuron-major packed input-path weight codes of hidden unit h.
     *  Valid when packedRecurrent(). */
    const uint8_t *
    recurrentXColumn8(size_t h) const
    {
        return _recXColumns8.data() + h * _layer.inCount;
    }

    /** Neuron-major packed feedback-path weight codes of hidden unit
     *  h. Valid when packedRecurrent(). */
    const uint8_t *
    recurrentHColumn8(size_t h) const
    {
        return _recHColumns8.data() + h * _layer.outCount;
    }

    /**
     * Batched-lanes accumulation for conv windows: one call
     * accumulates every batch lane of one output neuron from the
     * lane-strided key stripes pairKeys8Lanes wrote (lane L at keys +
     * L * keyStride), filling results[0..lanes). Bitwise-identical per
     * lane to evaluate()'s accumulation over the lane's codes; the
     * per-neuron constants (counting cycles, bias, counting energy)
     * are computed once and shared across the lanes. `sc` must have
     * been sized by prepareWorkspace; `countingCycles` is the hoisted
     * hint for the weight window, or nullptr to recompute.
     */
    void accumulatePrekeyedLanes(size_t channel, const uint16_t *keys,
                                 size_t keyStride, size_t lanes,
                                 size_t fanIn, double bias,
                                 AccumScratch &sc,
                                 const uint32_t *countingCycles,
                                 AccumResult *results) const;

    /**
     * Counting cycles for a packed conv weight window of `channel`:
     * the hoisted hint when w8 is the channel's full window, otherwise
     * (a clipped window gathered into scratch) recomputed
     * allocation-free through `sc`. The conv path derives this once per
     * (position, channel) and shares it across every lane.
     */
    uint32_t packedCountingCycles(size_t channel, const uint8_t *w8,
                                  size_t fanIn, AccumScratch &sc) const;

    /** Pair-key shift of channel's engine: key = (w << shift) | u. */
    uint32_t
    keyShiftFor(size_t channel) const
    {
        return _engines[channel].keyShift();
    }

    /** Pair-key shift of the recurrent feedback-path engine. */
    uint32_t
    stateKeyShift() const
    {
        return _stateEngine->keyShift();
    }

    /** Hoisted counting-cycle hints per recurrent weight column.
     *  Valid when packedRecurrent(). */
    const uint32_t *
    recXCountingHint(size_t h) const
    {
        return &_recXCounting[h];
    }

    const uint32_t *
    recHCountingHint(size_t h) const
    {
        return &_recHCounting[h];
    }

    /**
     * One recurrent step of one hidden neuron over pair keys the
     * caller built for both operand paths (one weight-column load per
     * pairKeys8Lanes call serving every batch lane). Bitwise-identical
     * to evaluateRecurrentStep() over the originating codes.
     */
    NeuronResult evaluateRecurrentStepPrekeyed(
        const uint16_t *xKeys, size_t features, const uint16_t *hKeys,
        size_t hidden, double bias, AccumScratch &scratch,
        const uint32_t *xCounting, const uint32_t *hCounting) const;

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

    /** Pre-size a workspace's buffers for this layer (configure time),
     *  so steady-state inference never grows them. */
    void prepareWorkspace(Workspace &ws) const;

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
    bool _packed = false;     //!< forward path packs to uint8 codes
    bool _packedRec = false;  //!< feedback path also packs
    /** Packed (uint8) weight codes: views of blob-precomputed sections
     *  when present, otherwise owned copies derived at configure time.
     *  Dense layers keep only the tally's input-major rows
     *  ([i * _denseRowStride + j], padding neurons at code 0). */
    Array<uint8_t> _denseRows8;
    size_t _denseRowStride = 0;
    std::vector<Array<uint8_t>> _convChannel8;  //!< per out-channel
    Array<uint8_t> _recXColumns8;
    Array<uint8_t> _recHColumns8;
    /** Constant analytic per-lookup costs, precomputed so the batch
     *  paths charge without re-deriving them per neuron. */
    nvm::OpCost _activationQueryCost;
    nvm::OpCost _encodingQueryCost;
    /** Precomputed AccumulationEngine::weightCountingCycles() per
     *  canonical weight array (packed contexts only): dense/recurrent
     *  per neuron column, conv per output channel's full window. */
    std::vector<uint32_t> _denseCounting;
    std::vector<uint32_t> _convCounting;
    std::vector<uint32_t> _recXCounting;
    std::vector<uint32_t> _recHCounting;
};

} // namespace rapidnn::rna

#endif // RAPIDNN_RNA_RNA_BLOCK_HH
