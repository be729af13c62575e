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

/** Neurons per packed tally row: outCount rounded up to the tally's
 *  8-neuron group. */
inline size_t
tallyRowStride(size_t outCount)
{
    return (outCount + 7) / 8 * 8;
}

/**
 * A shared product table as the tally's byte planes
 * (simd::TallyJob::planes): for input code u and byte b, the 64 *
 * maskWords bytes at bytes[(u * planeBytes + b) * 64 * maskWords] hold
 * byte b of P[w][u] - min for every weight code w, zero past the
 * codebook. planeBytes is the fewest bytes that hold max - min, 1 to 8;
 * maskWords is the tally's, ceil(w / 64). Dense layers and both
 * recurrent paths carry one; a conv layer's channels each have their
 * own table and keep the per-neuron gather.
 */
struct ProductPlanes
{
    simd::AlignedVec<uint8_t> bytes;
    uint32_t planeBytes = 0;
    int64_t min = 0;

    /** Point a tally job at these planes. */
    void
    attach(simd::TallyJob &job) const
    {
        job.planes = bytes.data();
        job.planeBytes = planeBytes;
        job.planeMin = min;
    }
};

/** The byte planes of one engine's product table. */
ProductPlanes buildProductPlanes(const AccumulationEngine &engine);

/**
 * im2col-style gather plan of one compute layer at its input shape:
 * flat index maps from each output position's window into the layer's
 * packed weight rows and into the input tensor. A dense (or recurrent)
 * layer has one position whose window is the whole fan-in, edge i
 * reading row i and input i. A conv layer has one position per output
 * pixel, same-padding boundary clipping folded in, and its slot order
 * is channel, then valid ky, then valid kx: the order of the reference
 * gather loops.
 */
struct GatherPlan
{
    /** Prefix offsets into the index maps: the window of output
     *  position p spans slots [start[p], start[p + 1]). */
    std::vector<uint32_t> start;
    std::vector<uint32_t> weightIdx;  //!< slot -> packed weight row
    std::vector<uint32_t> inputIdx;   //!< slot -> input tensor code

    size_t positions() const { return start.size() - 1; }
};

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
     * Build the context for a compute layer, deriving everything the
     * production path reads: the gather plan, the packed tally rows and
     * their counting cycles.
     * @param layer reinterpreted Dense/Conv/Recurrent layer.
     * @param inShape the layer's input shape at the chip's canonical
     *        input shape (the gather plan is built for it).
     * @param model circuit-cost anchors.
     * @param mode NDCAM search behaviour.
     * @param kops kernel table of the production path; without one the
     *        context serves only the reference evaluate() calls.
     */
    RnaLayerContext(const composer::RLayer &layer,
                    const nn::Shape &inShape,
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
     * same winner as a plain max (codes are order-preserving values).
     */
    static uint16_t poolMaxFast(const uint16_t *codes, size_t count,
                                const nvm::CostModel &model,
                                nvm::OpCost &cost);

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
    // the context was built with a kernel table; every result is
    // bitwise identical to the reference evaluators above
    // (tests/batch_equivalence_test.cc). Weight codes pack into 8 bits;
    // input codes are grouped rather than narrowed, so the input
    // codebooks may be any size.
    // ------------------------------------------------------------------

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

    /**
     * Counting cycles of neuron j at gather-plan position p, at index
     * p * outCount + j, hoisted at configure time: the deepest weight
     * buffer over the position's window. A dense or recurrent layer
     * has only position 0, and the feedback path (`statePath`) one
     * window of every hidden unit.
     */
    uint32_t
    countingCycles(size_t j, bool statePath = false) const
    {
        return (statePath ? _stateTally : _tally).counting[j];
    }

    /** The forward path's gather plan (built with the kernel table). */
    const GatherPlan &gatherPlan() const { return _plan; }

    /** The layer's output shape at the context's input shape. */
    const nn::Shape &outputShape() const { return _outShape; }

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
        /** [rows][_stride] packed weight codes, cache-line aligned: a
         *  tally pass reads 64 bytes of each row, and rows that start
         *  off a line slow the dense tally measurably. */
        simd::AlignedVec<uint8_t> rows;
        /** Conv only: every channel's padded product table, end to
         *  end (dense and recurrent read their engine's table). */
        std::vector<int64_t> ownProducts;
        const int64_t *products = nullptr;
        /** Dense and recurrent only: the shared table's byte planes
         *  (empty on a conv layer). */
        ProductPlanes planes;
        std::vector<uint64_t> base;  //!< [_stride] table start per neuron
        uint32_t shift = 0;
        uint32_t maskWords = 0;
        /** Deepest weight buffer per neuron (see countingCycles()). */
        std::vector<uint32_t> counting;
    };
    void buildTally(TallyRows &t, bool statePath);

    size_t _stride = 0;
    TallyRows _tally;       //!< forward path
    TallyRows _stateTally;  //!< recurrent feedback path
    GatherPlan _plan;       //!< forward path
    nn::Shape _outShape;
    size_t _maxWeightEntries = 0;  //!< widest weight codebook
    /** Constant analytic per-lookup costs, precomputed so the batch
     *  paths charge without re-deriving them per neuron. */
    nvm::OpCost _activationQueryCost;
    nvm::OpCost _encodingQueryCost;
};

} // namespace rapidnn::rna

#endif // RAPIDNN_RNA_RNA_BLOCK_HH
