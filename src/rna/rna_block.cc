#include "rna/rna_block.hh"

#include <algorithm>

#include "common/check.hh"

namespace rapidnn::rna {

namespace {

/**
 * Deepest weight buffer of every neuron over the weight rows rowIdx[0..n)
 * (rows 0..n-1 when rowIdx is null): out[j] = max over w of |{s :
 * rows[row_s * stride + j] == w}| for j < neurons. `depth` ([neurons *
 * w], all-zero) is left all-zero.
 */
void
rowCountingCycles(const uint8_t *rows, size_t stride, size_t neurons,
                  size_t w, const uint32_t *rowIdx, size_t n,
                  uint32_t *depth, uint32_t *out)
{
    std::fill(out, out + neurons, 0u);
    auto row = [&](size_t s) {
        return rows + size_t(rowIdx != nullptr ? rowIdx[s] : s) * stride;
    };
    for (size_t s = 0; s < n; ++s) {
        const uint8_t *r = row(s);
        for (size_t j = 0; j < neurons; ++j)
            out[j] = std::max(out[j], ++depth[j * w + r[j]]);
    }
    for (size_t s = 0; s < n; ++s) {
        const uint8_t *r = row(s);
        for (size_t j = 0; j < neurons; ++j)
            depth[j * w + r[j]] = 0;
    }
}

} // namespace

RnaLayerContext::RnaLayerContext(const composer::RLayer &layer,
                                 const nvm::CostModel &model,
                                 nvm::SearchMode mode,
                                 const simd::KernelOps *kops)
    : _layer(layer), _model(model), _kops(kops)
{
    RAPIDNN_ASSERT(layer.kind == composer::RLayerKind::Dense ||
                   layer.kind == composer::RLayerKind::Conv ||
                   layer.kind == composer::RLayerKind::Recurrent,
                   "RnaLayerContext needs a compute layer");

    _engines.reserve(layer.productTables.size());
    for (size_t c = 0; c < layer.productTables.size(); ++c)
        _engines.emplace_back(layer.productTables[c],
                              layer.weightCodebooks[c].size(),
                              layer.inputEntries(), model);

    if (layer.kind == composer::RLayerKind::Recurrent) {
        _stateEngine.emplace(layer.stateProductTables[0],
                             layer.stateWeightCodebooks[0].size(),
                             layer.stateCodebook.size(), model);
        const auto &values = layer.stateCodebook.values();
        std::vector<double> rows(values.size());
        for (size_t i = 0; i < values.size(); ++i)
            rows[i] = static_cast<double>(i);
        _stateEncodingAm.emplace(values, std::move(rows), 32, model,
                                 mode);
    }

    if (layer.activation) {
        _activationAm.emplace(layer.activation->inputs(),
                              layer.activation->outputs(), 32, model,
                              mode);
    }
    if (!layer.outputEncoder.empty()) {
        // Encoding AM: keys are the target codebook values; the row
        // index found by the search IS the encoded value.
        const auto &values = layer.outputEncoder.target().values();
        std::vector<double> rows(values.size());
        for (size_t i = 0; i < values.size(); ++i)
            rows[i] = static_cast<double>(i);
        _encodingAm.emplace(values, std::move(rows), 32, model, mode);
    }

    // Configure-time code-range validation: weight codes are checked
    // against their product-table dimensions once here, so the
    // per-edge hot loops can index without asserting. (Input codes are
    // in range by construction: every encoder's row count equals its
    // engine's input-entry count.)
    for (size_t c = 0; c < layer.weightCodes.size(); ++c)
        for (const uint16_t code : layer.weightCodes[c])
            RAPIDNN_ASSERT(code < _engines[c].weightEntries(),
                           "weight code out of table range");
    if (_stateEngine)
        for (const uint16_t code : layer.stateWeightCodes[0])
            RAPIDNN_ASSERT(code < _stateEngine->weightEntries(),
                           "state weight code out of table range");

    // The tally's packed rows for the production path. Every code is
    // range-validated above, so packing is lossless when the weight
    // codebooks fit 256 entries.
    _hasTally = _kops != nullptr && composer::tallyPacks(layer);
    if (_hasTally) {
        _stride = composer::tallyRowStride(layer.outCount);
        for (const auto &engine : _engines)
            _maxWeightEntries =
                std::max(_maxWeightEntries, engine.weightEntries());
        buildTally(_tally, false);
        if (_stateEngine)
            buildTally(_stateTally, true);
    }

    if (_activationAm)
        _activationQueryCost = _activationAm->queryCost();
    if (_encodingAm)
        _encodingQueryCost = _encodingAm->queryCost();
}

void
RnaLayerContext::buildTally(TallyRows &t, bool statePath)
{
    // Blob-supplied rows are untrusted: pin them code by code to the
    // validated 16-bit weights, padding included.
    const composer::RLayer &layer = _layer;
    const Array<uint8_t> &blobRows =
        statePath ? layer.stateRows8 : layer.tallyRows8;
    const size_t rows = composer::tallyRowCount(layer, statePath);
    if (blobRows.empty()) {
        t.rows = composer::tallyRows8Of(layer, statePath);
    } else {
        const char *what =
            statePath ? "recurrent state packed rows mismatch"
            : layer.kind == composer::RLayerKind::Conv
                ? "conv packed rows mismatch"
            : layer.kind == composer::RLayerKind::Recurrent
                ? "recurrent packed rows mismatch"
                : "dense packed rows mismatch";
        RAPIDNN_CHECK(blobRows.size() == rows * _stride, what);
        bool same = true;
        for (size_t i = 0; i < rows; ++i)
            for (size_t j = 0; j < _stride; ++j)
                same &= blobRows[i * _stride + j] ==
                        (j < layer.outCount
                             ? composer::tallyWeightCode(layer, statePath,
                                                         i, j)
                             : 0);
        RAPIDNN_CHECK(same, what);
        t.rows = blobRows;
    }

    // Products: one table for the layer, or on a conv layer each
    // channel's engine's table laid end to end, every neuron reading
    // its own from its base (padding neurons read channel 0's).
    t.base.assign(_stride, 0);
    if (statePath) {
        t.products = _stateEngine->paddedProducts();
        t.shift = _stateEngine->keyShift();
    } else if (layer.kind == composer::RLayerKind::Conv) {
        for (size_t oc = 0; oc < _engines.size(); ++oc) {
            const AccumulationEngine &e = _engines[oc];
            t.base[oc] = t.ownProducts.size();
            t.ownProducts.insert(t.ownProducts.end(), e.paddedProducts(),
                                 e.paddedProducts() + e.paddedCells());
        }
        t.products = t.ownProducts.data();
        t.shift = _engines[0].keyShift();
    } else {
        t.products = _engines[0].paddedProducts();
        t.shift = _engines[0].keyShift();
    }
    const size_t w = statePath ? _stateEngine->weightEntries()
                               : _maxWeightEntries;
    t.maskWords = static_cast<uint32_t>((w + 63) / 64);

    // A conv window's counting cycles depend on its clipping, so the
    // gather plan keeps them (windowCountingCycles).
    if (layer.kind == composer::RLayerKind::Conv)
        return;
    std::vector<uint32_t> depth(layer.outCount * w, 0);
    t.counting.resize(layer.outCount);
    rowCountingCycles(t.rows.data(), _stride, layer.outCount, w, nullptr,
                      rows, depth.data(), t.counting.data());
}

NeuronResult
RnaLayerContext::evaluate(size_t channel,
                          const std::vector<uint16_t> &weightCodes,
                          const std::vector<uint16_t> &inputCodes,
                          double bias) const
{
    RAPIDNN_ASSERT(channel < _engines.size(), "channel out of range");

    NeuronResult result;
    const AccumResult accum =
        _engines[channel].run(weightCodes, inputCodes, bias);
    result.cost.weightedAccum = accum.cost.total();

    double value = accum.value;
    if (_activationAm)
        value = _activationAm->lookup(value, result.cost.activation);
    result.rawValue = value;

    if (_encodingAm) {
        result.code = static_cast<uint16_t>(
            _encodingAm->lookupRow(value, result.cost.encoding));
        result.encoded = true;
    }
    return result;
}

void
RnaLayerContext::tally(const InputBuckets &inputs, size_t groupBegin,
                       size_t groupEnd, int64_t *sums,
                       uint32_t *distinct, uint32_t *addends,
                       bool statePath) const
{
    RAPIDNN_ASSERT(_hasTally, "tally on a layer it does not serve");
    const TallyRows &t = statePath ? _stateTally : _tally;
    simd::TallyJob job{};
    job.rows = t.rows.data();
    job.rowStride = _stride;
    job.order = inputs.order.data();
    job.bucketStart = inputs.start.data();
    job.bucketCode = inputs.code.data();
    job.buckets = inputs.buckets();
    job.products = t.products;
    job.productBase = t.base.data();
    job.shift = t.shift;
    job.maskWords = t.maskWords;
    job.groupBegin = groupBegin;
    job.groupEnd = groupEnd;
    job.sums = sums;
    job.distinct = distinct;
    job.addends = addends;
    _kops->tally(job);
}

AccumResult
RnaLayerContext::tallyResult(size_t j, int64_t sum, uint32_t distinct,
                             uint32_t addends, size_t fanIn,
                             uint32_t countingCycles, AccumScratch &sc,
                             bool statePath) const
{
    if (statePath)
        return _stateEngine->tallyResult(sum, distinct, addends,
                                         countingCycles, fanIn, 0.0, sc);
    const size_t engine =
        _layer.kind == composer::RLayerKind::Conv ? j : 0;
    return _engines[engine].tallyResult(sum, distinct, addends,
                                        countingCycles, fanIn,
                                        _layer.bias[j], sc);
}

std::vector<uint32_t>
RnaLayerContext::windowCountingCycles(const ConvGatherPlan &plan) const
{
    const size_t positions = plan.outH * plan.outW;
    const size_t out = _layer.outCount;
    std::vector<uint32_t> depth(out * _maxWeightEntries, 0);
    std::vector<uint32_t> counting(positions * out);
    for (size_t p = 0; p < positions; ++p)
        rowCountingCycles(_tally.rows.data(), _stride, out,
                          _maxWeightEntries,
                          plan.weightIdx.data() + plan.start[p],
                          plan.start[p + 1] - plan.start[p], depth.data(),
                          counting.data() + p * out);
    return counting;
}

void
RnaLayerContext::activateBatch(const double *in, double *out, size_t n,
                               uint32_t *keyScratch,
                               uint32_t *rowScratch) const
{
    if (!_activationAm) {
        if (in != out)
            for (size_t i = 0; i < n; ++i)
                out[i] = in[i];
        return;
    }
    _activationAm->lookupBatch(*_kops, in, n, keyScratch, rowScratch,
                               out);
}

void
RnaLayerContext::encodeBatch(const double *in, size_t n,
                             uint32_t *keyScratch, uint32_t *rowScratch,
                             uint16_t *codes) const
{
    RAPIDNN_ASSERT(_encodingAm.has_value(),
                   "encodeBatch without an encoding AM");
    _encodingAm->lookupRowsBatch(*_kops, in, n, keyScratch, rowScratch);
    for (size_t i = 0; i < n; ++i)
        codes[i] = static_cast<uint16_t>(rowScratch[i]);
}

NeuronResult
RnaLayerContext::evaluateRecurrentStep(
    const std::vector<uint16_t> &xWeightCodes,
    const std::vector<uint16_t> &xCodes,
    const std::vector<uint16_t> &hWeightCodes,
    const std::vector<uint16_t> &hCodes, double bias) const
{
    RAPIDNN_ASSERT(_stateEngine.has_value(),
                   "evaluateRecurrentStep on a non-recurrent layer");

    return finishRecurrentStep(
        _engines[0].run(xWeightCodes, xCodes, bias),
        _stateEngine->run(hWeightCodes, hCodes, 0.0));
}

NeuronResult
RnaLayerContext::finishRecurrentStep(const AccumResult &x,
                                     const AccumResult &h) const
{
    NeuronResult result;
    // Both operand paths tally in the same crossbar; the feedback
    // products join the same adder tree, so costs simply add.
    result.cost.weightedAccum = x.cost.total() + h.cost.total();

    double value = x.value + h.value;
    if (_activationAm)
        value = _activationAm->lookup(value, result.cost.activation);
    result.rawValue = value;

    result.code = static_cast<uint16_t>(
        _stateEncodingAm->lookupRow(value, result.cost.encoding));
    result.encoded = true;
    return result;
}

uint16_t
RnaLayerContext::encodeState(double value, nvm::OpCost &cost) const
{
    RAPIDNN_ASSERT(_stateEncodingAm.has_value(),
                   "encodeState on a non-recurrent layer");
    return static_cast<uint16_t>(
        _stateEncodingAm->lookupRow(value, cost));
}

uint16_t
RnaLayerContext::poolMax(const std::vector<uint16_t> &codes,
                         const nvm::CostModel &model, nvm::OpCost &cost)
{
    RAPIDNN_ASSERT(!codes.empty(), "poolMax on empty window");
    // The pooling AM is loaded with the window's encoded values, then a
    // single MAX search returns the winner. Codes are order-preserving
    // (sorted codebooks), so max code == max value.
    nvm::Ndcam cam(16, model);
    std::vector<uint32_t> keys(codes.begin(), codes.end());
    cam.load(keys, cost);
    const size_t row = cam.searchMax(cost);
    return codes[row];
}

uint16_t
RnaLayerContext::poolMaxFast(const uint16_t *codes, size_t count,
                             const nvm::CostModel &model,
                             nvm::OpCost &cost,
                             const simd::KernelOps &ops)
{
    RAPIDNN_ASSERT(count > 0, "poolMax on empty window");
    // Charge exactly what poolMax's Ndcam would: one load of `count`
    // keys, then one MAX search over `count` 16-bit rows.
    cost += {1, model.camWriteEnergy * static_cast<double>(count)};
    cost += model.camSearch(count, 16);
    return ops.maxU16(codes, count);
}

size_t
RnaLayerContext::productRows() const
{
    size_t rows = 0;
    for (const auto &table : _layer.productTables)
        rows += table.size();
    return rows;
}

} // namespace rapidnn::rna
