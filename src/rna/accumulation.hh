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
 * Per-workspace state of the production path's accumulations: the
 * memoized adder-tree costs, grown on first use and then reused for
 * every neuron, so the steady-state hot loop performs zero heap
 * allocations.
 */
struct AccumScratch
{
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
 * One batch lane's fan-in grouped by input code, the counting sort the
 * tally (KernelOps::tally) walks: `order` lists the weight-row index
 * of every edge bucket by bucket, and only non-empty buckets are kept,
 * in no particular code order (the tally is order-free). Built once
 * per lane and fan-in (a dense layer, a conv output position, one
 * recurrent step's x or h) and shared by every neuron that reads it.
 * Buffers keep their capacity and `fill` stays all-zero between
 * builds, so rebuilding allocates nothing and costs O(fan-in) however
 * large the input codebook is.
 */
struct InputBuckets
{
    std::vector<uint32_t> order;  //!< [fanIn] weight rows, by code
    std::vector<uint32_t> start;  //!< [buckets + 1] offsets into order
    std::vector<uint16_t> code;   //!< [buckets] input code per bucket
    std::vector<uint32_t> fill;   //!< [u] all-zero at rest

    /** Grow capacity for a fan-in over u input codes. */
    void reserve(size_t fanIn, size_t u);

    /** Group x[0..n) (every code < u) by code; edge i reads row i. */
    void build(const uint16_t *x, size_t n, size_t u);

    /** Group a gathered window: edge s has input code x[inputIdx[s]]
     *  and reads weight row rowIdx[s]. */
    void build(const uint16_t *x, const uint32_t *inputIdx,
               const uint32_t *rowIdx, size_t n, size_t u);

    size_t buckets() const { return code.size(); }

  private:
    template <class CodeOf, class RowOf>
    void group(size_t n, size_t u, CodeOf codeOf, RowOf rowOf);
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
     * The AccumResult of one neuron from its tally outputs
     * (KernelOps::tally): `sum` is the product sum over the fan-in,
     * `distinct` the non-zero (w, u) cells and `addends` their CSD
     * terms. Bitwise-identical to run() over the neuron's codes: per
     * cell the CSD terms of a count sum to exactly product * count, so
     * the adder tree's total is the product sum, and every cost is
     * count-derived. `countingCycles` is the deepest weight buffer,
     * max over w of |{i : wc_i == w}|, a pure function of the weight
     * codes that callers hoist.
     */
    AccumResult tallyResult(int64_t sum, size_t distinct, size_t addends,
                            uint32_t countingCycles, size_t fanIn,
                            double bias, AccumScratch &scratch) const;

    size_t weightEntries() const { return _w; }
    size_t inputEntries() const { return _u; }
    const AccumFormat &format() const { return _format; }

    /** Bits the weight code is shifted by in a padded table index. */
    uint32_t keyShift() const { return _shift; }

    /** Entries of the padded product table, w << keyShift(). */
    size_t paddedCells() const { return _w << _shift; }

    /** Fixed-point products indexed by (w << keyShift) | u. */
    const int64_t *paddedProducts() const { return _padded; }

  private:
    std::vector<int64_t> _fixedProducts;  //!< [w*u] fixed-point products
    std::vector<int64_t> _fixedPadded;    //!< [w << _shift] when u is
                                          //!< not a power of two
    const int64_t *_padded = nullptr;     //!< padded product lookup
    size_t _w;
    size_t _u;
    uint32_t _shift = 0;  //!< ceil(log2(u)): index (w << shift) | u
    nvm::CostModel _model;
    AccumFormat _format;
};

} // namespace rapidnn::rna

#endif // RAPIDNN_RNA_ACCUMULATION_HH
