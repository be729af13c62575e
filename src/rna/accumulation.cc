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

    // The tally indexes products at (w << shift) | u, one shift+or per
    // edge. When u is already a power of two the padded layout
    // coincides with the row-major table; otherwise build a strided
    // copy.
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

AccumResult
AccumulationEngine::tallyResult(int64_t sum, size_t distinct,
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
    if (fill.size() < u)
        fill.resize(u, 0);
}

template <class CodeOf, class RowOf>
void
InputBuckets::group(size_t n, size_t u, CodeOf codeOf, RowOf rowOf)
{
    if (fill.size() < u)
        fill.resize(u, 0);
    // Histogram and the list of codes present. A fan-in at least as
    // wide as the codebook lists them by one ascending scan, and
    // buckets in code order keep the tally's product reads close
    // together; a narrower one lists each code the first time it shows
    // up, so it never walks the whole codebook. Only listed codes are
    // touched, and they are cleared again at the end.
    code.clear();
    if (n >= u) {
        for (size_t i = 0; i < n; ++i)
            ++fill[codeOf(i)];
        for (size_t c = 0; c < u; ++c)
            if (fill[c] != 0)
                code.push_back(static_cast<uint16_t>(c));
    } else {
        for (size_t i = 0; i < n; ++i) {
            const uint16_t c = codeOf(i);
            if (fill[c]++ == 0)
                code.push_back(c);
        }
    }
    start.clear();
    uint32_t at = 0;
    for (const uint16_t c : code) {
        start.push_back(at);
        const uint32_t count = fill[c];
        fill[c] = at;
        at += count;
    }
    start.push_back(at);
    order.resize(n);
    for (size_t i = 0; i < n; ++i)
        order[fill[codeOf(i)]++] = rowOf(i);
    for (const uint16_t c : code)
        fill[c] = 0;
}

void
InputBuckets::build(const uint16_t *x, size_t n, size_t u)
{
    group(
        n, u, [&](size_t i) { return x[i]; },
        [](size_t i) { return static_cast<uint32_t>(i); });
}

void
InputBuckets::build(const uint16_t *x, const uint32_t *inputIdx,
                    const uint32_t *rowIdx, size_t n, size_t u)
{
    group(
        n, u, [&](size_t s) { return x[inputIdx[s]]; },
        [&](size_t s) { return rowIdx[s]; });
}

} // namespace rapidnn::rna
