#include "rna/accumulation.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/check.hh"

namespace rapidnn::rna {

AccumulationEngine::AccumulationEngine(
    const Array<double> &productTable, size_t w, size_t u,
    const nvm::CostModel &model, AccumFormat format)
    : _w(w), _u(u), _model(model), _format(format)
{
    RAPIDNN_ASSERT(productTable.size() == w * u,
                   "product table size ", productTable.size(),
                   " != w*u = ", w * u);
    _fixedProducts.resize(productTable.size());
    for (size_t i = 0; i < productTable.size(); ++i)
        _fixedProducts[i] = _format.toFixed(productTable[i]);

    // The kernel paths fuse (w, u) into key = (w << shift) | u so the
    // pair key is one shift+or per edge. When u is already a power of
    // two the padded layout coincides with the row-major table;
    // otherwise build a strided copy indexed by key.
    _shift = u <= 1 ? 0 : static_cast<uint32_t>(ceilLog2(u));
    if ((size_t(1) << _shift) == u || u == 0) {
        _padded = _fixedProducts.data();
    } else {
        _fixedPadded.assign(_w << _shift, 0);
        for (size_t wc = 0; wc < _w; ++wc)
            for (size_t uc = 0; uc < _u; ++uc)
                _fixedPadded[(wc << _shift) | uc] =
                    _fixedProducts[wc * _u + uc];
        _padded = _fixedPadded.data();
    }

    // Half-width product table for the batched-lanes tally. Products
    // at the default 16 fraction bits fit int32 unless a weight x
    // activation product exceeds +/-32768.0, so the narrow table
    // almost always exists; sign-extension restores the exact wide
    // value, keeping batched sums bit-identical to the wide path.
    const size_t cells = _w << _shift;
    bool fits32 = true;
    for (size_t i = 0; i < cells && fits32; ++i)
        fits32 = _padded[i] >= INT32_MIN && _padded[i] <= INT32_MAX;
    if (fits32 && cells > 0) {
        _fixedPadded32.resize(cells);
        for (size_t i = 0; i < cells; ++i)
            _fixedPadded32[i] = static_cast<int32_t>(_padded[i]);
        _padded32 = _fixedPadded32.data();
    }
}

AccumResult
AccumulationEngine::run(const std::vector<uint16_t> &weightCodes,
                        const std::vector<uint16_t> &inputCodes,
                        double bias) const
{
    RAPIDNN_ASSERT(weightCodes.size() == inputCodes.size(),
                   "weight/input code vectors must be parallel");
    const size_t fanIn = weightCodes.size();

    AccumResult result;

    // --- Parallel counting (Section 4.1.1) ---
    // One buffer per distinct weight; every cycle one index pops from
    // each buffer, so the phase takes as long as the fullest buffer.
    std::vector<uint32_t> counters(_w * _u, 0);
    std::vector<uint32_t> bufferDepth(_w, 0);
    // Codes are validated against the table dimensions when the layer
    // context is configured, not per edge here.
    for (size_t i = 0; i < fanIn; ++i) {
        const uint16_t wc = weightCodes[i];
        const uint16_t uc = inputCodes[i];
        ++counters[size_t(wc) * _u + uc];
        ++bufferDepth[wc];
    }
    result.countingCycles = bufferDepth.empty()
        ? 0
        : *std::max_element(bufferDepth.begin(), bufferDepth.end());
    result.cost.counting.cycles = result.countingCycles;
    result.cost.counting.energy =
        _model.counterIncrementEnergy * static_cast<double>(fanIn);

    // --- Shift-and-add scheduling (Section 4.1.1) ---
    // Each nonzero counter contributes its product shifted by the
    // signed-digit decomposition of the count (CSD subsumes the paper's
    // run-of-ones rewrite, e.g. 15 -> 16 - 1).
    std::vector<int64_t> addends;
    for (size_t cell = 0; cell < counters.size(); ++cell) {
        const uint32_t count = counters[cell];
        if (count == 0)
            continue;
        ++result.distinctProducts;
        const int64_t product = _fixedProducts[cell];
        for (const ShiftTerm &term : csdDecompose(count)) {
            const int64_t shifted = product << term.shift;
            addends.push_back(term.negative ? -shifted : shifted);
        }
    }
    result.addends = addends.size();

    // One crossbar row read per distinct product used.
    result.cost.fetch.cycles = result.distinctProducts;
    result.cost.fetch.energy = _model.crossbarReadEnergy
        * static_cast<double>(result.distinctProducts);

    // Bias joins the reduction as one extra addend.
    addends.push_back(_format.toFixed(bias));

    // --- In-memory carry-save adder tree (Section 4.1.2) ---
    const int64_t fixedSum = nvm::CrossbarArray::addMany(
        addends, _format.accumulatorBits, _model, result.cost.adder);
    result.value = _format.toReal(fixedSum);
    return result;
}

void
AccumScratch::growCsdTerms(size_t maxCount)
{
    size_t c = csdTerms.size();
    csdTerms.resize(maxCount + 1);
    if (c == 0)
        csdTerms[c++] = 0;  // count 0 contributes no terms
    for (; c <= maxCount; ++c) {
        int32_t terms = 0;
        csdForEach(c, [&](ShiftTerm) { ++terms; });
        csdTerms[c] = terms;
    }
}

const nvm::OpCost &
AccumScratch::adderCostFor(size_t addendCount, size_t resultBits,
                           const nvm::CostModel &model)
{
    if (resultBits != _adderResultBits
        || model.csaStageCycles != _adderCsaStageCycles
        || model.carryPropagateCyclesPerBit != _adderCarryCycles
        || model.norEnergyPerBit != _adderNorEnergy) {
        _adderCost.clear();
        _adderCostValid.clear();
        _adderResultBits = resultBits;
        _adderCsaStageCycles = model.csaStageCycles;
        _adderCarryCycles = model.carryPropagateCyclesPerBit;
        _adderNorEnergy = model.norEnergyPerBit;
    }
    if (_adderCost.size() <= addendCount) {
        _adderCost.resize(addendCount + 1);
        _adderCostValid.resize(addendCount + 1, 0);
    }
    if (!_adderCostValid[addendCount]) {
        nvm::CrossbarArray::addManyCost(addendCount, resultBits, model,
                                        _adderCost[addendCount]);
        _adderCostValid[addendCount] = 1;
    }
    return _adderCost[addendCount];
}

/**
 * Shared tally + reduction over precomputed pair keys. The counter
 * grid is the power-of-two padded [w << shift] key space; cells are
 * renumbered relative to the row-major path but carry the identical
 * (w, u) multiset of counts, so every AccumResult field matches run()
 * bit for bit:
 *
 *  - value: per cell the CSD terms of its count sum to exactly
 *    product * count, so the whole reduction telescopes to
 *    sum(padded[key_i]) — one order-independent int64 gather-sum
 *    through the kernel table, no histogram involved.
 *  - addends/distinctProducts: the tally is split into a pure counter
 *    increment pass and a combined read-out/reset pass that charges
 *    csdTerms[count] per touched cell — the keys array doubles as the
 *    reset list (a cell's first read-out zeroes it, so duplicate keys
 *    see count 0 and contribute nothing), so no touched-cell walk is
 *    needed and both passes are branch-predictable streams.
 *  - countingCycles: max final buffer depth — a pure function of the
 *    weight codes, taken from the caller's precomputed hint when
 *    given, otherwise recomputed from keys >> shift (depths only
 *    grow, so the running max equals the final max).
 */
AccumResult
AccumulationEngine::runOverKeys(const simd::KernelOps &ops,
                                const uint16_t *keys, size_t fanIn,
                                double bias, AccumScratch &scratch,
                                const uint32_t *countingCycles) const
{
    AccumResult result;

    int64_t fixedSum = ops.gatherSum16(_padded, keys, fanIn);

    const int32_t *terms = scratch.csdTerms.data();
    uint32_t *counters = scratch.counters.data();
    int64_t addends = 0;
    size_t distinct = 0;
    size_t i = 0;
    for (; i + 4 <= fanIn; i += 4) {
        ++counters[keys[i]];
        ++counters[keys[i + 1]];
        ++counters[keys[i + 2]];
        ++counters[keys[i + 3]];
    }
    for (; i < fanIn; ++i)
        ++counters[keys[i]];
    for (i = 0; i < fanIn; ++i) {
        const uint32_t k = keys[i];
        const uint32_t c = counters[k];
        counters[k] = 0;
        addends += terms[c];
        distinct += (c != 0);
    }
    result.distinctProducts = distinct;
    result.addends = static_cast<size_t>(addends);

    uint32_t maxDepth = 0;
    if (countingCycles != nullptr) {
        maxDepth = *countingCycles;
    } else {
        uint32_t *depth = scratch.bufferDepth.data();
        for (size_t i = 0; i < fanIn; ++i)
            maxDepth = std::max(maxDepth, ++depth[keys[i] >> _shift]);
        for (size_t i = 0; i < fanIn; ++i)
            depth[keys[i] >> _shift] = 0;
    }
    result.countingCycles = maxDepth;
    result.cost.counting.cycles = result.countingCycles;
    result.cost.counting.energy =
        _model.counterIncrementEnergy * static_cast<double>(fanIn);

    result.cost.fetch.cycles = result.distinctProducts;
    result.cost.fetch.energy = _model.crossbarReadEnergy
        * static_cast<double>(result.distinctProducts);

    fixedSum += _format.toFixed(bias);
    result.cost.adder = scratch.adderCostFor(
        result.addends + 1, _format.accumulatorBits, _model);
    result.value = _format.toReal(fixedSum);
    return result;
}

AccumResult
AccumulationEngine::runPrekeyed(const simd::KernelOps &ops,
                                const uint16_t *keys, size_t fanIn,
                                double bias, AccumScratch &scratch,
                                const uint32_t *countingCycles) const
{
    RAPIDNN_ASSERT(packable(), "runPrekeyed on a >256-entry codebook");
    return runOverKeys(ops, keys, fanIn, bias, scratch,
                       countingCycles);
}

void
AccumulationEngine::runPrekeyedLanes(const simd::KernelOps &,
                                     const uint16_t *keys,
                                     size_t keyStride, size_t lanes,
                                     size_t fanIn, double bias,
                                     AccumScratch &scratch,
                                     const uint32_t *countingCycles,
                                     AccumResult *results) const
{
    RAPIDNN_ASSERT(packable(),
                   "runPrekeyedLanes on a >256-entry codebook");

    // Counting cycles are a pure function of the shared weight column
    // (keys >> shift is the same stripe in every lane), so one value
    // serves the whole batch: the caller's hoisted hint, or one
    // recomputation from lane 0.
    uint32_t cc;
    if (countingCycles != nullptr) {
        cc = *countingCycles;
    } else {
        uint32_t *depth = scratch.bufferDepth.data();
        uint32_t maxDepth = 0;
        for (size_t i = 0; i < fanIn; ++i)
            maxDepth = std::max(maxDepth, ++depth[keys[i] >> _shift]);
        for (size_t i = 0; i < fanIn; ++i)
            depth[keys[i] >> _shift] = 0;
        cc = maxDepth;
    }

    const int64_t fixedBias = _format.toFixed(bias);
    const Energy countingEnergy =
        _model.counterIncrementEnergy * static_cast<double>(fanIn);
    const int32_t *terms = scratch.csdTerms.data();

    // Per-lane tally with the value sum fused into the read-out: a
    // cell's first read-out sees its full count c and contributes
    // product * c (the exact sum of its CSD terms — see runOverKeys);
    // duplicate keys see the zeroed cell and contribute 0 addends and
    // 0 value. int64 addition is order-independent, so the sum equals
    // the gather telescope bit for bit, with no separate gather pass.
    auto tallyLanes = [&](auto *counters, const auto *padded) {
        for (size_t L = 0; L < lanes; ++L) {
            const uint16_t *k = keys + L * keyStride;
            size_t i = 0;
            for (; i + 4 <= fanIn; i += 4) {
                ++counters[k[i]];
                ++counters[k[i + 1]];
                ++counters[k[i + 2]];
                ++counters[k[i + 3]];
            }
            for (; i < fanIn; ++i)
                ++counters[k[i]];
            int64_t fixedSum = 0;
            int64_t addends = 0;
            size_t distinct = 0;
            for (i = 0; i < fanIn; ++i) {
                const uint32_t key = k[i];
                const uint32_t c = counters[key];
                counters[key] = 0;
                fixedSum += static_cast<int64_t>(padded[key])
                          * static_cast<int64_t>(c);
                addends += terms[c];
                distinct += (c != 0);
            }
            AccumResult &r = results[L];
            r.value = _format.toReal(fixedSum + fixedBias);
            r.distinctProducts = distinct;
            r.addends = static_cast<size_t>(addends);
            r.countingCycles = cc;
            r.cost.counting.cycles = cc;
            r.cost.counting.energy = countingEnergy;
            r.cost.fetch.cycles = distinct;
            r.cost.fetch.energy = _model.crossbarReadEnergy
                * static_cast<double>(distinct);
            r.cost.adder = scratch.adderCostFor(
                static_cast<size_t>(addends) + 1,
                _format.accumulatorBits, _model);
        }
    };

    // Narrow grids where exactness allows (uint16 counts need
    // fanIn <= 65535; int32 products need the table built), so the
    // counters + products working set stays L1-resident across lanes.
    if (fanIn <= 0xFFFF) {
        if (_padded32 != nullptr)
            tallyLanes(scratch.countersNarrow.data(), _padded32);
        else
            tallyLanes(scratch.countersNarrow.data(), _padded);
    } else {
        if (_padded32 != nullptr)
            tallyLanes(scratch.counters.data(), _padded32);
        else
            tallyLanes(scratch.counters.data(), _padded);
    }
}

AccumResult
AccumulationEngine::denseResult(int64_t sum, size_t distinct,
                                size_t addends, uint32_t countingCycles,
                                size_t fanIn, double bias,
                                AccumScratch &scratch) const
{
    AccumResult r;
    r.value = _format.toReal(sum + _format.toFixed(bias));
    r.distinctProducts = distinct;
    r.addends = addends;
    r.countingCycles = countingCycles;
    r.cost.counting.cycles = countingCycles;
    r.cost.counting.energy =
        _model.counterIncrementEnergy * static_cast<double>(fanIn);
    r.cost.fetch.cycles = distinct;
    r.cost.fetch.energy =
        _model.crossbarReadEnergy * static_cast<double>(distinct);
    r.cost.adder = scratch.adderCostFor(addends + 1,
                                        _format.accumulatorBits, _model);
    return r;
}

void
InputBuckets::reserve(size_t fanIn, size_t u)
{
    order.reserve(fanIn);
    start.reserve(std::min(fanIn, u) + 1);
    code.reserve(std::min(fanIn, u));
    fill.reserve(u);
}

void
InputBuckets::build(const uint16_t *x, size_t fanIn, size_t u)
{
    fill.assign(u, 0);
    for (size_t i = 0; i < fanIn; ++i)
        ++fill[x[i]];
    code.clear();
    start.clear();
    uint32_t at = 0;
    for (size_t c = 0; c < u; ++c) {
        const uint32_t n = fill[c];
        if (n == 0)
            continue;
        code.push_back(static_cast<uint16_t>(c));
        start.push_back(at);
        fill[c] = at;
        at += n;
    }
    start.push_back(at);
    order.resize(fanIn);
    for (size_t i = 0; i < fanIn; ++i)
        order[fill[x[i]]++] = static_cast<uint32_t>(i);
}

uint32_t
AccumulationEngine::weightCountingCycles(const uint8_t *weightCodes,
                                         size_t fanIn) const
{
    std::vector<uint32_t> depth(_w, 0);
    uint32_t maxDepth = 0;
    for (size_t i = 0; i < fanIn; ++i)
        maxDepth = std::max(maxDepth, ++depth[weightCodes[i]]);
    return maxDepth;
}

uint32_t
AccumulationEngine::weightCountingCycles(const uint8_t *weightCodes,
                                         size_t fanIn,
                                         AccumScratch &scratch) const
{
    if (scratch.bufferDepth.size() < _w)
        scratch.bufferDepth.ensureZeroed(_w);
    uint32_t *depth = scratch.bufferDepth.data();
    uint32_t maxDepth = 0;
    for (size_t i = 0; i < fanIn; ++i)
        maxDepth = std::max(maxDepth, ++depth[weightCodes[i]]);
    for (size_t i = 0; i < fanIn; ++i)
        depth[weightCodes[i]] = 0;
    return maxDepth;
}

} // namespace rapidnn::rna
