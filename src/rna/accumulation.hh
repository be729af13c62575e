/**
 * @file
 * The RNA weighted-accumulation engine (paper Section 4.1).
 *
 * Incoming (weight code, input code) pairs are tallied by the parallel
 * counting hardware (w weight buffers, one pop per buffer per cycle),
 * each tallied product is shifted according to the signed-digit
 * decomposition of its repeat count, and the shifted addends are summed
 * by the in-memory carry-save adder tree. The engine is functional +
 * cost-accurate: the value is computed exactly in fixed point through
 * the same addend list the hardware would reduce.
 */

#ifndef RAPIDNN_RNA_ACCUMULATION_HH
#define RAPIDNN_RNA_ACCUMULATION_HH

#include <cstdint>
#include <vector>

#include "common/array.hh"
#include "common/simd.hh"
#include "nvm/cost_model.hh"
#include "nvm/crossbar.hh"
#include "nvm/op_cost.hh"

namespace rapidnn::rna {

/** Per-phase cost breakdown of one neuron's weighted accumulation. */
struct AccumCost
{
    nvm::OpCost counting;  //!< parallel counting of (w, u) pairs
    nvm::OpCost fetch;     //!< product-row reads from the crossbar
    nvm::OpCost adder;     //!< in-memory carry-save reduction

    nvm::OpCost
    total() const
    {
        return counting + fetch + adder;
    }
};

/** Result of one neuron's weighted accumulation. */
struct AccumResult
{
    double value = 0.0;     //!< weighted sum (including bias)
    AccumCost cost;
    size_t distinctProducts = 0;  //!< nonzero (w, u) counters
    size_t addends = 0;           //!< shifted terms entering the tree
    size_t countingCycles = 0;    //!< max weight-buffer occupancy
};

/**
 * Fixed-point scaling used by the in-memory adder: products are stored
 * as two's-complement integers at this many fraction bits.
 */
struct AccumFormat
{
    size_t fractionBits = 16;
    size_t accumulatorBits = 32;  //!< N in the paper's 13*N propagate

    int64_t
    toFixed(double x) const
    {
        return static_cast<int64_t>(
            x * static_cast<double>(int64_t(1) << fractionBits)
            + (x >= 0 ? 0.5 : -0.5));
    }

    double
    toReal(int64_t v) const
    {
        return static_cast<double>(v)
             / static_cast<double>(int64_t(1) << fractionBits);
    }
};

/**
 * Reusable scratch state for the production path's accumulations.
 * The counter grids and buffer-depth array are kept all-zero between
 * runs: each run resets exactly the cells it touched, so a neuron's
 * cost is O(fan-in) regardless of the w x u table size. Sized once
 * (RnaLayerContext::prepareWorkspace) and then reused for every
 * neuron, so the steady-state hot loop performs zero heap allocations.
 */
struct AccumScratch
{
    // Counter grid and buffer-depth array live in cache-line-aligned
    // storage so the tally loop's cells never straddle lines at lane
    // boundaries; AlignedVec growth does not preserve contents, so
    // growth re-zeroes (the at-rest state is all-zero anyway).
    simd::AlignedVec<uint32_t> counters;     //!< grid, all-zero at rest
    simd::AlignedVec<uint32_t> bufferDepth;  //!< [w], all-zero at rest
    /** Half-width counter grid for the batched-lanes tally: counts are
     *  bounded by fan-in, so whenever fanIn <= 65535 the tally fits
     *  uint16 cells and the grid's cache footprint halves — the lane
     *  loop keeps counters, products and the csd-terms table L1-hot
     *  across all lanes of a neuron. All-zero at rest, like counters. */
    simd::AlignedVec<uint16_t> countersNarrow;

    /**
     * csdTerms[c] = number of CSD terms in the signed-digit recoding of
     * count c (csdTerms[0] = 0). The kernel tally reads the table once
     * per touched cell while resetting it, so `addends` is tracked with
     * one table load per edge instead of re-decomposing every touched
     * cell. Pure function of c — grown on demand, shared by all
     * engines.
     */
    std::vector<int32_t> csdTerms;

    /** Grow to cover the power-of-two padded [w << shift] key space the
     *  kernel paths tally into, and CSD terms of counts up to a fan-in. */
    void
    ensurePadded(size_t w, uint32_t shift, size_t maxFanIn)
    {
        const size_t cells = w << shift;
        if (counters.size() < cells)
            counters.ensureZeroed(cells);
        if (countersNarrow.size() < cells)
            countersNarrow.ensureZeroed(cells);
        if (bufferDepth.size() < w)
            bufferDepth.ensureZeroed(w);
        if (csdTerms.size() <= maxFanIn)
            growCsdTerms(maxFanIn);
    }

    /** Extend csdTerms to cover counts up to maxCount (out of line —
     *  the CSD recoding is not hot-loop code). */
    void growCsdTerms(size_t maxCount);

    /**
     * Memoized CrossbarArray::addManyCost for the production path. The
     * adder cost is a pure function of (addend count, result width,
     * model anchors), so each distinct count is computed once through
     * the exact shared routine and replayed — the cached OpCost is
     * bitwise-identical to a fresh computation. Keys on the parameters
     * addManyCost reads and flushes if an engine with different
     * anchors shows up. Scratch is per-thread, so no synchronization.
     */
    const nvm::OpCost &adderCostFor(size_t addendCount,
                                    size_t resultBits,
                                    const nvm::CostModel &model);

  private:
    std::vector<nvm::OpCost> _adderCost;     //!< by addend count
    std::vector<uint8_t> _adderCostValid;
    size_t _adderResultBits = 0;
    size_t _adderCsaStageCycles = 0;
    size_t _adderCarryCycles = 0;
    Energy _adderNorEnergy{};
};

/**
 * One batch lane's dense-layer fan-in grouped by input code, the
 * counting sort the dense tally (KernelOps::denseTally) walks. Built
 * once per lane and layer and shared by every neuron of the layer:
 * `order` lists the fan-in indices bucket by bucket, ascending within
 * a bucket; only non-empty buckets are kept. Buffers keep their
 * capacity, so rebuilding at the same shape allocates nothing.
 */
struct InputBuckets
{
    std::vector<uint32_t> order;  //!< [fanIn] indices, grouped by code
    std::vector<uint32_t> start;  //!< [buckets + 1] offsets into order
    std::vector<uint16_t> code;   //!< [buckets] input code per bucket
    std::vector<uint32_t> fill;   //!< [u] histogram, then cursors

    /** Grow capacity for a fan-in over u input codes. */
    void reserve(size_t fanIn, size_t u);

    /** Group x[0..fanIn) (every code < u) by code. */
    void build(const uint16_t *x, size_t fanIn, size_t u);

    size_t buckets() const { return code.size(); }
};

/**
 * Executes weighted accumulations for one neuron configuration:
 * a product table of w x u pre-computed values.
 */
class AccumulationEngine
{
  public:
    /**
     * @param productTable row-major [w][u] pre-computed products.
     * @param w weight codebook entries.
     * @param u input codebook entries.
     * @param model circuit-cost anchors.
     * @param format fixed-point layout of the crossbar rows.
     */
    AccumulationEngine(const Array<double> &productTable, size_t w,
                       size_t u, const nvm::CostModel &model,
                       AccumFormat format = {});

    /**
     * Accumulate one neuron's incoming edges: the reference
     * accumulation the production path is checked against.
     * @param weightCodes per-edge weight codes (size = fan-in).
     * @param inputCodes per-edge input codes (same size).
     * @param bias bias term added as one extra addend.
     */
    AccumResult run(const std::vector<uint16_t> &weightCodes,
                    const std::vector<uint16_t> &inputCodes,
                    double bias) const;

    /**
     * Kernel-path accumulation over pair keys the caller already built
     * (KernelOps::pairKeys8Lanes writes one key stripe per batch lane
     * from a single weight-column load). `keys[i]` must equal
     * (weightCodes[i] << keyShift()) | inputCodes[i] for some packable
     * code pair — exactly what pairKeys8Lanes produces — so the result
     * is bitwise-identical to run() over those codes: the padded grid
     * only renumbers cells, the fixed-point sum is order-independent
     * and the costs are count-derived. The caller sizes `scratch` via
     * ensurePadded. `countingCycles`, when non-null, is the
     * precomputed weightCountingCycles() of the originating weight
     * codes (the counting phase depends only on them, so layer
     * contexts hoist it); null recomputes it from the keys.
     */
    AccumResult runPrekeyed(const simd::KernelOps &ops,
                            const uint16_t *keys, size_t fanIn,
                            double bias, AccumScratch &scratch,
                            const uint32_t *countingCycles
                            = nullptr) const;

    /**
     * Batched-lanes accumulation: one call tallies every batch lane of
     * one output neuron. `keys` holds `lanes` stripes of `fanIn` pair
     * keys, lane L starting at L * keyStride — exactly the layout
     * KernelOps::pairKeys8Lanes writes — and all stripes must be keyed
     * from the same weight-code column (they are: the batched layer
     * paths build them from one column load). results[L] is overwritten
     * with lane L's AccumResult, bitwise-identical to
     * runPrekeyed(keys + L * keyStride, ...) and therefore to the
     * reference walk.
     *
     * This is the batch hot loop, so it amortizes per-neuron work
     * across the lanes instead of redoing it per call: the counting
     * cycles (a pure function of the shared weight column) are taken
     * from the hint or derived once from lane 0's keys, the bias and
     * counting-energy terms are fixed up front, and the per-cell
     * readout fuses the value sum into the count pass (the CSD terms
     * of count c sum to exactly product * c, so product * count over
     * first-touch cells telescopes to the same int64 the gather-sum
     * computes — no separate gather pass). Counts and products read
     * through the half-width scratch grid and the engine's int32
     * product table when they fit, halving the tally's cache footprint
     * so the grid stays L1-resident across lanes.
     */
    void runPrekeyedLanes(const simd::KernelOps &ops,
                          const uint16_t *keys, size_t keyStride,
                          size_t lanes, size_t fanIn, double bias,
                          AccumScratch &scratch,
                          const uint32_t *countingCycles,
                          AccumResult *results) const;

    /**
     * The AccumResult of one neuron from its dense-tally outputs
     * (KernelOps::denseTally): `sum` is the product sum over the
     * fan-in, `distinct` the non-zero (w, u) cells and `addends` their
     * CSD terms. Bitwise-identical to run() over the neuron's
     * codes — the same count-derived costs, and the same int64 value
     * the gather-sum computes. `countingCycles` is the neuron's hoisted
     * weightCountingCycles().
     */
    AccumResult denseResult(int64_t sum, size_t distinct, size_t addends,
                            uint32_t countingCycles, size_t fanIn,
                            double bias, AccumScratch &scratch) const;

    /**
     * countingCycles for a fixed weight-code array: the counting phase
     * drains one buffer per distinct weight code per cycle, so its
     * cycle count is the deepest buffer — max over wc of |{i : wc_i ==
     * wc}| — a pure function of the weight codes that layer contexts
     * precompute once per neuron/channel and pass back into the
     * accumulations. Allocates; configure-time only.
     */
    uint32_t weightCountingCycles(const uint8_t *weightCodes,
                                  size_t fanIn) const;

    /**
     * Allocation-free weightCountingCycles for hot-loop use (the
     * batched conv path shares one value across all lanes of a clipped
     * window, so it recomputes per position instead of per neuron).
     * Uses scratch.bufferDepth as the depth histogram and restores its
     * all-zero at-rest state before returning; identical value to the
     * allocating overload.
     */
    uint32_t weightCountingCycles(const uint8_t *weightCodes,
                                  size_t fanIn,
                                  AccumScratch &scratch) const;

    size_t weightEntries() const { return _w; }
    size_t inputEntries() const { return _u; }
    const AccumFormat &format() const { return _format; }

    /** True when both codebooks fit 8-bit packed codes. */
    bool packable() const { return _w <= 256 && _u <= 256; }

    /** Bits the weight code is shifted by in a fused pair key. */
    uint32_t keyShift() const { return _shift; }

    /** Padded [w << keyShift] cell count the kernel paths tally over. */
    size_t paddedCells() const { return _w << _shift; }

    /** Fixed-point products indexed by pair key (w << keyShift) | u. */
    const int64_t *paddedProducts() const { return _padded; }

  private:
    AccumResult runOverKeys(const simd::KernelOps &ops,
                            const uint16_t *keys,
                            size_t fanIn, double bias,
                            AccumScratch &scratch,
                            const uint32_t *countingCycles) const;

    std::vector<int64_t> _fixedProducts;  //!< [w*u] fixed-point products
    std::vector<int64_t> _fixedPadded;    //!< [w << _shift] when u is
                                          //!< not a power of two
    const int64_t *_padded = nullptr;     //!< padded-key product lookup
    /** Half-width padded product table for the batched-lanes tally,
     *  built when every fixed-point product fits int32 (sign-extending
     *  a stored value reproduces the wide entry exactly, so sums are
     *  bit-identical). Empty/null when some product needs 64 bits. */
    std::vector<int32_t> _fixedPadded32;
    const int32_t *_padded32 = nullptr;
    size_t _w;
    size_t _u;
    uint32_t _shift = 0;  //!< ceil(log2(u)): key = (w << shift) | u
    nvm::CostModel _model;
    AccumFormat _format;
};

} // namespace rapidnn::rna

#endif // RAPIDNN_RNA_ACCUMULATION_HH
