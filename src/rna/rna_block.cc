#include "rna/rna_block.hh"

#include <algorithm>

#include "common/check.hh"

namespace rapidnn::rna {

namespace {

/** Owned uint8 narrowing of range-validated (< 256) 16-bit codes. */
std::vector<uint8_t>
narrowCodes(const uint16_t *codes, size_t n)
{
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(codes[i]);
    return out;
}

/** Pin a blob-supplied packed array to its validated 16-bit twin. */
void
checkPacked(const Array<uint8_t> &packed, const uint16_t *codes,
            size_t n, const char *what)
{
    RAPIDNN_CHECK(packed.size() == n, what);
    for (size_t i = 0; i < n; ++i)
        RAPIDNN_CHECK(packed[i] == codes[i], what);
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

    // Transposed (neuron-major) weight codes for the fast path. A
    // blob-loaded model carries them precomputed (views into the
    // mapped file, shared by every replica); heap models derive them
    // here once. Blob-supplied columns are untrusted: their size is
    // pinned to the row-major codes and every code is range-checked
    // below, exactly like the row-major arrays above.
    if (layer.kind == composer::RLayerKind::Dense) {
        if (!layer.denseColumns.empty()) {
            RAPIDNN_CHECK(layer.denseColumns.size() ==
                              layer.weightCodes[0].size(),
                          "dense column table size mismatch");
            _denseColumns = layer.denseColumns;
        } else {
            _denseColumns = composer::denseColumnsOf(layer);
        }
        for (const uint16_t code : _denseColumns)
            RAPIDNN_CHECK(code < _engines[0].weightEntries(),
                          "dense column code out of table range");
    } else if (layer.kind == composer::RLayerKind::Recurrent) {
        if (!layer.recXColumns.empty()) {
            RAPIDNN_CHECK(layer.recXColumns.size() ==
                              layer.weightCodes[0].size(),
                          "recurrent x column table size mismatch");
            _recXColumns = layer.recXColumns;
        } else {
            _recXColumns = composer::recXColumnsOf(layer);
        }
        if (!layer.recHColumns.empty()) {
            RAPIDNN_CHECK(layer.recHColumns.size() ==
                              layer.stateWeightCodes[0].size(),
                          "recurrent h column table size mismatch");
            _recHColumns = layer.recHColumns;
        } else {
            _recHColumns = composer::recHColumnsOf(layer);
        }
        for (const uint16_t code : _recXColumns)
            RAPIDNN_CHECK(code < _engines[0].weightEntries(),
                          "recurrent x column code out of table range");
        for (const uint16_t code : _recHColumns)
            RAPIDNN_CHECK(code < _stateEngine->weightEntries(),
                          "recurrent h column code out of table range");
    }

    // Packed (uint8) code mirrors for the SIMD kernel paths. Every
    // code is range-validated above, so narrowing is lossless when the
    // codebooks fit 256 entries. Blob-supplied packed sections are
    // untrusted: their sizes and elements are pinned to the (equally
    // validated) 16-bit arrays.
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
        if (!layer.denseRows8.empty()) {
            const auto &codes = layer.weightCodes[0];
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
    } else if (_packed && layer.kind == composer::RLayerKind::Conv) {
        const bool fromBlob = !layer.weightCodes8.empty();
        if (fromBlob)
            RAPIDNN_CHECK(layer.weightCodes8.size() ==
                              layer.weightCodes.size(),
                          "conv packed channel count mismatch");
        _convChannel8.reserve(layer.weightCodes.size());
        for (size_t oc = 0; oc < layer.weightCodes.size(); ++oc) {
            const auto &codes = layer.weightCodes[oc];
            if (fromBlob) {
                checkPacked(layer.weightCodes8[oc], codes.data(),
                            codes.size(),
                            "conv packed weights mismatch");
                _convChannel8.push_back(layer.weightCodes8[oc]);
            } else {
                _convChannel8.push_back(
                    narrowCodes(codes.data(), codes.size()));
            }
        }
    } else if (_packedRec &&
               layer.kind == composer::RLayerKind::Recurrent) {
        if (!layer.recXColumns8.empty()) {
            checkPacked(layer.recXColumns8, _recXColumns.data(),
                        _recXColumns.size(),
                        "recurrent x packed columns mismatch");
            _recXColumns8 = layer.recXColumns8;
        } else {
            _recXColumns8 =
                narrowCodes(_recXColumns.data(), _recXColumns.size());
        }
        if (!layer.recHColumns8.empty()) {
            checkPacked(layer.recHColumns8, _recHColumns.data(),
                        _recHColumns.size(),
                        "recurrent h packed columns mismatch");
            _recHColumns8 = layer.recHColumns8;
        } else {
            _recHColumns8 =
                narrowCodes(_recHColumns.data(), _recHColumns.size());
        }
    }

    // Counting-cycle hints for the kernel paths: the parallel-counting
    // phase is a pure function of the weight codes, so each canonical
    // weight array's value is derived once here and handed back into
    // the kernel accumulations per neuron instead of being
    // re-histogrammed per accumulation. Clipped conv windows (gathered
    // into lane scratch) keep computing it on the fly.
    if (_kops != nullptr) {
        if (layer.kind == composer::RLayerKind::Dense) {
            _denseCounting.resize(layer.outCount);
            for (size_t j = 0; j < layer.outCount; ++j)
                _denseCounting[j] = _engines[0].weightCountingCycles(
                    _denseColumns.data() + j * layer.inCount,
                    layer.inCount);
        } else if (layer.kind == composer::RLayerKind::Conv &&
                   _packed) {
            _convCounting.resize(_convChannel8.size());
            for (size_t oc = 0; oc < _convChannel8.size(); ++oc)
                _convCounting[oc] = _engines[oc].weightCountingCycles(
                    _convChannel8[oc].data(),
                    _convChannel8[oc].size());
        } else if (layer.kind == composer::RLayerKind::Recurrent) {
            _recXCounting.resize(layer.outCount);
            _recHCounting.resize(layer.outCount);
            for (size_t h = 0; h < layer.outCount; ++h) {
                _recXCounting[h] = _engines[0].weightCountingCycles(
                    _recXColumns.data() + h * layer.inCount,
                    layer.inCount);
                _recHCounting[h] = _stateEngine->weightCountingCycles(
                    _recHColumns.data() + h * layer.outCount,
                    layer.outCount);
            }
        }
    }

    if (_activationAm)
        _activationQueryCost = _activationAm->queryCost();
    if (_encodingAm)
        _encodingQueryCost = _encodingAm->queryCost();
}

namespace {

/** True when p lies inside [base, base + bytes) at a whole multiple
 *  of strideBytes; sets index to that multiple. Used to map a weight
 *  pointer back to the canonical column it came from. */
bool
strideIndexOf(const void *p, const void *base, size_t bytes,
              size_t strideBytes, size_t &index)
{
    const uintptr_t pp = reinterpret_cast<uintptr_t>(p);
    const uintptr_t bb = reinterpret_cast<uintptr_t>(base);
    if (bytes == 0 || strideBytes == 0 || pp < bb || pp - bb >= bytes)
        return false;
    const uintptr_t off = pp - bb;
    if (off % strideBytes != 0)
        return false;
    index = static_cast<size_t>(off / strideBytes);
    return true;
}

} // namespace

const uint32_t *
RnaLayerContext::countingHint(size_t channel, const void *w,
                              size_t fanIn) const
{
    size_t j = 0;
    switch (_layer.kind) {
      case composer::RLayerKind::Conv:
        if (_convCounting.empty() || channel >= _convChannel8.size())
            return nullptr;
        if (w == _convChannel8[channel].data() &&
            fanIn == _convChannel8[channel].size())
            return &_convCounting[channel];
        return nullptr;
      case composer::RLayerKind::Recurrent:
        if (_recXCounting.empty())
            return nullptr;
        if (fanIn == _layer.inCount &&
            (strideIndexOf(w, _recXColumns8.data(),
                           _recXColumns8.size(), _layer.inCount, j) ||
             strideIndexOf(w, _recXColumns.data(),
                           _recXColumns.size() * sizeof(uint16_t),
                           _layer.inCount * sizeof(uint16_t), j)))
            return &_recXCounting[j];
        if (fanIn == _layer.outCount &&
            (strideIndexOf(w, _recHColumns8.data(),
                           _recHColumns8.size(), _layer.outCount, j) ||
             strideIndexOf(w, _recHColumns.data(),
                           _recHColumns.size() * sizeof(uint16_t),
                           _layer.outCount * sizeof(uint16_t), j)))
            return &_recHCounting[j];
        return nullptr;
      default:
        return nullptr;
    }
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

NeuronResult
RnaLayerContext::evaluateFast(size_t channel,
                              const uint16_t *weightCodes,
                              const uint16_t *inputCodes, size_t fanIn,
                              double bias, AccumScratch &scratch) const
{
    NeuronResult result;
    const AccumResult accum = _engines[channel].run(
        weightCodes, inputCodes, fanIn, bias, scratch);
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

AccumResult
RnaLayerContext::accumulatePacked(size_t channel, const uint8_t *w8,
                                  const uint8_t *x8, size_t fanIn,
                                  double bias, AccumScratch &sc) const
{
    RAPIDNN_ASSERT(_kops != nullptr && _packed,
                   "accumulatePacked without a packed kernel context");
    return _engines[channel].runPacked(*_kops, w8, x8, fanIn, bias, sc,
                                       countingHint(channel, w8, fanIn));
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
    if (const uint32_t *hint = countingHint(channel, w8, fanIn))
        return *hint;
    return _engines[channel].weightCountingCycles(w8, fanIn, sc);
}

NeuronResult
RnaLayerContext::evaluatePacked(size_t channel, const uint8_t *w8,
                                const uint8_t *x8, size_t fanIn,
                                double bias, AccumScratch &sc) const
{
    NeuronResult result;
    const AccumResult accum = _engines[channel].runPacked(
        *_kops, w8, x8, fanIn, bias, sc,
        countingHint(channel, w8, fanIn));
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

NeuronResult
RnaLayerContext::evaluateRecurrentStepPacked(
    const uint8_t *xWeightCodes, const uint8_t *xCodes, size_t features,
    const uint8_t *hWeightCodes, const uint8_t *hCodes, size_t hidden,
    double bias, AccumScratch &scratch) const
{
    NeuronResult result;
    // Mirrors evaluateRecurrentStepFast: both operand paths tally in
    // the same crossbar, costs add, values add.
    const AccumResult xAccum = _engines[0].runPacked(
        *_kops, xWeightCodes, xCodes, features, bias, scratch,
        countingHint(0, xWeightCodes, features));
    const AccumResult hAccum = _stateEngine->runPacked(
        *_kops, hWeightCodes, hCodes, hidden, 0.0, scratch,
        countingHint(0, hWeightCodes, hidden));
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

NeuronResult
RnaLayerContext::evaluateRecurrentStepPrekeyed(
    const uint16_t *xKeys, size_t features, const uint16_t *hKeys,
    size_t hidden, double bias, AccumScratch &scratch,
    const uint32_t *xCounting, const uint32_t *hCounting) const
{
    NeuronResult result;
    // Mirrors evaluateRecurrentStepPacked: both operand paths tally in
    // the same crossbar, costs add, values add.
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

NeuronResult
RnaLayerContext::evaluateRecurrentStepFast(
    const uint16_t *xWeightCodes, const uint16_t *xCodes,
    size_t features, const uint16_t *hWeightCodes,
    const uint16_t *hCodes, size_t hidden, double bias,
    AccumScratch &scratch) const
{
    NeuronResult result;
    // Mirrors evaluateRecurrentStep: both operand paths tally in the
    // same crossbar, costs add, values add.
    const AccumResult xAccum =
        _engines[0].run(xWeightCodes, xCodes, features, bias, scratch);
    const AccumResult hAccum =
        _stateEngine->run(hWeightCodes, hCodes, hidden, 0.0, scratch);
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
                             const simd::KernelOps *ops)
{
    RAPIDNN_ASSERT(count > 0, "poolMax on empty window");
    // Charge exactly what poolMax's Ndcam would: one load of `count`
    // keys, then one MAX search over `count` 16-bit rows.
    cost += {1, model.camWriteEnergy * static_cast<double>(count)};
    cost += model.camSearch(count, 16);
    if (ops)
        return ops->maxU16(codes, count);
    // First occurrence of the maximum, matching std::max_element.
    uint16_t best = codes[0];
    for (size_t i = 1; i < count; ++i)
        if (codes[i] > best)
            best = codes[i];
    return best;
}

void
RnaLayerContext::prepareWorkspace(Workspace &ws) const
{
    for (const auto &engine : _engines)
        ws.accum.ensure(engine.weightEntries(), engine.inputEntries());
    if (_stateEngine)
        ws.accum.ensure(_stateEngine->weightEntries(),
                        _stateEngine->inputEntries());
    if (_kops)
        prepareKernelScratch(ws.accum);
    if (_layer.kind == composer::RLayerKind::Conv) {
        const size_t windowMax = _layer.weightCodes[0].size();
        if (ws.gatherW.size() < windowMax)
            ws.gatherW.resize(windowMax);
        if (ws.gatherX.size() < windowMax)
            ws.gatherX.resize(windowMax);
        if (_kops) {
            ws.gx8.ensure(windowMax);
            ws.gw8.ensure(windowMax);
        }
    } else if (_layer.kind == composer::RLayerKind::Recurrent) {
        const size_t hidden = _layer.outCount;
        if (ws.hCodes.size() < hidden) {
            ws.hCodes.resize(hidden);
            ws.hNext.resize(hidden);
            ws.hRaw.resize(hidden);
            ws.hRawNext.resize(hidden);
        }
    }
}

void
RnaLayerContext::prepareScratch(IntraOpScratch &scratch) const
{
    for (const auto &engine : _engines)
        scratch.accum.ensure(engine.weightEntries(),
                             engine.inputEntries());
    if (_stateEngine)
        scratch.accum.ensure(_stateEngine->weightEntries(),
                             _stateEngine->inputEntries());
    if (_kops)
        prepareKernelScratch(scratch.accum);
    if (_layer.kind == composer::RLayerKind::Conv) {
        const size_t windowMax = _layer.weightCodes[0].size();
        if (scratch.gatherW.size() < windowMax)
            scratch.gatherW.resize(windowMax);
        if (scratch.gatherX.size() < windowMax)
            scratch.gatherX.resize(windowMax);
        if (_kops) {
            scratch.gx8.ensure(windowMax);
            scratch.gw8.ensure(windowMax);
        }
    }
}

void
RnaLayerContext::prepareKernelScratch(AccumScratch &accum) const
{
    // The conv and recurrent kernel paths tally into a power-of-two
    // padded key space and stage one fan-in's worth of fused pair
    // keys; size both here so the hot loop never grows (growth would
    // re-zero AlignedVec contents mid-inference). Dense layers run the
    // dense tally or the scalar fast path and need neither.
    if (_layer.kind == composer::RLayerKind::Dense)
        return;
    size_t maxFanIn = _layer.kind == composer::RLayerKind::Conv
                          ? _layer.weightCodes[0].size()
                          : _layer.inCount;
    if (_stateEngine)
        maxFanIn = std::max(maxFanIn, _layer.outCount);
    for (const auto &engine : _engines)
        accum.ensurePadded(engine.weightEntries(), engine.keyShift(),
                           maxFanIn);
    if (_stateEngine)
        accum.ensurePadded(_stateEngine->weightEntries(),
                           _stateEngine->keyShift(), maxFanIn);
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
