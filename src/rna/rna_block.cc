#include "rna/rna_block.hh"

#include <algorithm>

#include "common/check.hh"

namespace rapidnn::rna {

namespace {

/** Pin a blob-supplied packed array to the codes it must equal. */
void
checkPacked(const Array<uint8_t> &packed,
            const std::vector<uint8_t> &codes, const char *what)
{
    RAPIDNN_CHECK(packed.size() == codes.size(), what);
    for (size_t i = 0; i < codes.size(); ++i)
        RAPIDNN_CHECK(packed[i] == codes[i], what);
}

/** Max buffer depth of every neuron-major column of `columns`, each
 *  `fanIn` codes long (the counting-cycle hint of each neuron). */
std::vector<uint32_t>
columnCountingCycles(const AccumulationEngine &engine,
                     const Array<uint8_t> &columns, size_t fanIn)
{
    std::vector<uint32_t> out(fanIn == 0 ? 0 : columns.size() / fanIn);
    for (size_t h = 0; h < out.size(); ++h)
        out[h] = engine.weightCountingCycles(columns.data() + h * fanIn,
                                             fanIn);
    return out;
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

    // Packed (uint8) code mirrors for the production path. Every code
    // is range-validated above, so narrowing is lossless when the
    // codebooks fit 256 entries. Blob-supplied packed sections are
    // untrusted: their sizes and elements are pinned to the (equally
    // validated) 16-bit arrays. Counting cycles are a pure function of
    // the weight codes, so each canonical weight array's value is
    // derived once here and handed back into the accumulations.
    bool packable = !_engines.empty();
    for (const auto &engine : _engines)
        packable = packable && engine.packable();
    _packed = _kops != nullptr && packable;
    _packedRec = _packed && _stateEngine && _stateEngine->packable();
    if (_kops != nullptr && layer.kind == composer::RLayerKind::Dense &&
        _engines[0].weightEntries() <= 256) {
        // The dense tally's input-major rows, padded to 8-neuron
        // groups. Blob rows are pinned code by code to the validated
        // row-major weights, padding included.
        _denseRowStride = composer::denseRowStride(layer.outCount);
        const auto &codes = layer.weightCodes[0];
        if (!layer.denseRows8.empty()) {
            RAPIDNN_CHECK(layer.denseRows8.size() ==
                              layer.inCount * _denseRowStride,
                          "dense packed rows size mismatch");
            for (size_t i = 0; i < layer.inCount; ++i) {
                const uint8_t *row =
                    layer.denseRows8.data() + i * _denseRowStride;
                const uint16_t *want = codes.data() + i * layer.outCount;
                bool same = true;
                for (size_t j = 0; j < layer.outCount; ++j)
                    same &= row[j] == want[j];
                for (size_t j = layer.outCount; j < _denseRowStride; ++j)
                    same &= row[j] == 0;
                RAPIDNN_CHECK(same, "dense packed rows mismatch");
            }
            _denseRows8 = layer.denseRows8;
        } else {
            _denseRows8 = composer::denseRows8Of(layer);
        }
        // Deepest weight buffer per neuron: one histogram row of w
        // counters per neuron, filled row by row.
        const size_t w = _engines[0].weightEntries();
        std::vector<uint32_t> depth(layer.outCount * w, 0);
        _denseCounting.assign(layer.outCount, 0);
        for (size_t i = 0; i < layer.inCount; ++i)
            for (size_t j = 0; j < layer.outCount; ++j) {
                const uint32_t d =
                    ++depth[j * w + codes[i * layer.outCount + j]];
                _denseCounting[j] = std::max(_denseCounting[j], d);
            }
    } else if (_packed && layer.kind == composer::RLayerKind::Conv) {
        const bool fromBlob = !layer.weightCodes8.empty();
        if (fromBlob)
            RAPIDNN_CHECK(layer.weightCodes8.size() ==
                              layer.weightCodes.size(),
                          "conv packed channel count mismatch");
        _convChannel8.reserve(layer.weightCodes.size());
        _convCounting.reserve(layer.weightCodes.size());
        for (size_t oc = 0; oc < layer.weightCodes.size(); ++oc) {
            const auto &codes = layer.weightCodes[oc];
            std::vector<uint8_t> narrow(codes.begin(), codes.end());
            if (fromBlob) {
                checkPacked(layer.weightCodes8[oc], narrow,
                            "conv packed weights mismatch");
                _convChannel8.push_back(layer.weightCodes8[oc]);
            } else {
                _convChannel8.push_back(std::move(narrow));
            }
            _convCounting.push_back(_engines[oc].weightCountingCycles(
                _convChannel8[oc].data(), _convChannel8[oc].size()));
        }
    } else if (_packedRec &&
               layer.kind == composer::RLayerKind::Recurrent) {
        std::vector<uint8_t> recX = composer::recXColumns8Of(layer);
        std::vector<uint8_t> recH = composer::recHColumns8Of(layer);
        if (!layer.recXColumns8.empty()) {
            checkPacked(layer.recXColumns8, recX,
                        "recurrent x packed columns mismatch");
            _recXColumns8 = layer.recXColumns8;
        } else {
            _recXColumns8 = std::move(recX);
        }
        if (!layer.recHColumns8.empty()) {
            checkPacked(layer.recHColumns8, recH,
                        "recurrent h packed columns mismatch");
            _recHColumns8 = layer.recHColumns8;
        } else {
            _recHColumns8 = std::move(recH);
        }
        _recXCounting = columnCountingCycles(_engines[0], _recXColumns8,
                                             layer.inCount);
        _recHCounting = columnCountingCycles(*_stateEngine,
                                             _recHColumns8,
                                             layer.outCount);
    }

    if (_activationAm)
        _activationQueryCost = _activationAm->queryCost();
    if (_encodingAm)
        _encodingQueryCost = _encodingAm->queryCost();
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
RnaLayerContext::denseTally(const InputBuckets &inputs,
                            size_t groupBegin, size_t groupEnd,
                            int64_t *sums, uint32_t *distinct,
                            uint32_t *addends) const
{
    RAPIDNN_ASSERT(hasDenseRows(), "denseTally without dense rows");
    const AccumulationEngine &engine = _engines[0];
    simd::DenseTallyJob job{};
    job.rows = _denseRows8.data();
    job.rowStride = _denseRowStride;
    job.order = inputs.order.data();
    job.bucketStart = inputs.start.data();
    job.bucketCode = inputs.code.data();
    job.buckets = inputs.buckets();
    job.products = engine.paddedProducts();
    job.shift = engine.keyShift();
    job.maskWords =
        static_cast<uint32_t>((engine.weightEntries() + 63) / 64);
    job.groupBegin = groupBegin;
    job.groupEnd = groupEnd;
    job.sums = sums;
    job.distinct = distinct;
    job.addends = addends;
    _kops->denseTally(job);
}

void
RnaLayerContext::accumulatePrekeyedLanes(
    size_t channel, const uint16_t *keys, size_t keyStride,
    size_t lanes, size_t fanIn, double bias, AccumScratch &sc,
    const uint32_t *countingCycles, AccumResult *results) const
{
    RAPIDNN_ASSERT(_kops != nullptr && _packed,
                   "accumulatePrekeyedLanes without a packed kernel "
                   "context");
    _engines[channel].runPrekeyedLanes(*_kops, keys, keyStride, lanes,
                                       fanIn, bias, sc, countingCycles,
                                       results);
}

uint32_t
RnaLayerContext::packedCountingCycles(size_t channel, const uint8_t *w8,
                                      size_t fanIn,
                                      AccumScratch &sc) const
{
    if (w8 == _convChannel8[channel].data() &&
        fanIn == _convChannel8[channel].size())
        return _convCounting[channel];
    return _engines[channel].weightCountingCycles(w8, fanIn, sc);
}

NeuronResult
RnaLayerContext::evaluateRecurrentStepPrekeyed(
    const uint16_t *xKeys, size_t features, const uint16_t *hKeys,
    size_t hidden, double bias, AccumScratch &scratch,
    const uint32_t *xCounting, const uint32_t *hCounting) const
{
    NeuronResult result;
    // Mirrors evaluateRecurrentStep: both operand paths tally in the
    // same crossbar, costs add, values add.
    const AccumResult xAccum = _engines[0].runPrekeyed(
        *_kops, xKeys, features, bias, scratch, xCounting);
    const AccumResult hAccum = _stateEngine->runPrekeyed(
        *_kops, hKeys, hidden, 0.0, scratch, hCounting);
    result.cost.weightedAccum =
        xAccum.cost.total() + hAccum.cost.total();

    double value = xAccum.value + hAccum.value;
    if (_activationAm)
        value = _activationAm->lookup(value, result.cost.activation);
    result.rawValue = value;

    result.code = static_cast<uint16_t>(
        _stateEncodingAm->lookupRow(value, result.cost.encoding));
    result.encoded = true;
    return result;
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

    NeuronResult result;
    // Both operand paths tally in the same crossbar; the feedback
    // products join the same adder tree, so costs simply add.
    const AccumResult xAccum =
        _engines[0].run(xWeightCodes, xCodes, bias);
    const AccumResult hAccum =
        _stateEngine->run(hWeightCodes, hCodes, 0.0);
    result.cost.weightedAccum =
        xAccum.cost.total() + hAccum.cost.total();

    double value = xAccum.value + hAccum.value;
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

void
RnaLayerContext::prepareWorkspace(Workspace &ws) const
{
    // The conv and recurrent kernel paths tally into a power-of-two
    // padded key space and stage one fan-in's worth of fused pair
    // keys; size both here so the hot loop never grows (growth would
    // re-zero AlignedVec contents mid-inference). Dense layers run the
    // dense tally and need neither.
    const bool conv = _layer.kind == composer::RLayerKind::Conv;
    if (!(conv ? _packed : _packedRec))
        return;
    size_t maxFanIn = conv ? _layer.weightCodes[0].size()
                           : std::max(_layer.inCount, _layer.outCount);
    for (const auto &engine : _engines)
        ws.accum.ensurePadded(engine.weightEntries(), engine.keyShift(),
                              maxFanIn);
    if (_stateEngine)
        ws.accum.ensurePadded(_stateEngine->weightEntries(),
                              _stateEngine->keyShift(), maxFanIn);
    if (conv)
        ws.gw8.ensure(maxFanIn);
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
