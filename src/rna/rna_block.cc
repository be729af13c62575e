#include "rna/rna_block.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/check.hh"

namespace rapidnn::rna {

namespace {

/**
 * Deepest weight buffer of every neuron over the weight rows rowIdx[0..n):
 * out[j] = max over w of |{s : rows[rowIdx[s] * stride + j] == w}| for
 * j < neurons. `depth` ([neurons * w], all-zero) is left all-zero.
 */
void
rowCountingCycles(const uint8_t *rows, size_t stride, size_t neurons,
                  size_t w, const uint32_t *rowIdx, size_t n,
                  uint32_t *depth, uint32_t *out)
{
    std::fill(out, out + neurons, 0u);
    for (size_t s = 0; s < n; ++s) {
        const uint8_t *r = rows + size_t(rowIdx[s]) * stride;
        for (size_t j = 0; j < neurons; ++j)
            out[j] = std::max(out[j], ++depth[j * w + r[j]]);
    }
    for (size_t s = 0; s < n; ++s) {
        const uint8_t *r = rows + size_t(rowIdx[s]) * stride;
        for (size_t j = 0; j < neurons; ++j)
            depth[j * w + r[j]] = 0;
    }
}

/**
 * Pack the rows the tally reads: row i holds, for every neuron j, the
 * weight code of dense input i, of conv window offset i in channel j,
 * of recurrent feature i, or (statePath) of recurrent hidden unit i, at
 * [i * stride + j]; padding neurons hold code 0.
 */
void
packTallyRows(const composer::RLayer &layer, bool statePath, size_t stride,
              simd::AlignedVec<uint8_t> &packed)
{
    const size_t rows = statePath ? layer.outCount : layer.inCount;
    const size_t out = layer.outCount;
    const bool conv = layer.kind == composer::RLayerKind::Conv;
    packed.ensureZeroed(rows * stride);
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < out; ++j)
            packed[i * stride + j] = static_cast<uint8_t>(
                statePath ? layer.stateWeightCodes[0][i * out + j]
                : conv    ? layer.weightCodes[j][i]
                          : layer.weightCodes[0][i * out + j]);
}

} // namespace

ProductPlanes
buildProductPlanes(const AccumulationEngine &engine)
{
    const size_t w = engine.weightEntries();
    const size_t u = engine.inputEntries();
    const uint32_t shift = engine.keyShift();
    const int64_t *p = engine.paddedProducts();
    auto at = [&](size_t wc, size_t uc) { return p[(wc << shift) | uc]; };

    ProductPlanes out;
    int64_t hi = w * u > 0 ? at(0, 0) : 0;
    out.min = hi;
    for (size_t wc = 0; wc < w; ++wc)
        for (size_t uc = 0; uc < u; ++uc) {
            out.min = std::min(out.min, at(wc, uc));
            hi = std::max(hi, at(wc, uc));
        }
    const uint64_t span = uint64_t(hi) - uint64_t(out.min);
    out.planeBytes =
        std::max<uint32_t>(1, (std::bit_width(span) + 7) / 8);

    const size_t row = 64 * ((w + 63) / 64);
    out.bytes.ensureZeroed(u * out.planeBytes * row);
    for (size_t uc = 0; uc < u; ++uc)
        for (uint32_t b = 0; b < out.planeBytes; ++b) {
            uint8_t *plane = out.bytes.data() + (uc * out.planeBytes + b) * row;
            for (size_t wc = 0; wc < w; ++wc)
                plane[wc] = static_cast<uint8_t>(
                    (uint64_t(at(wc, uc)) - uint64_t(out.min)) >> (8 * b));
        }
    return out;
}

namespace {

/** One position whose window is the whole fan-in of n edges: edge i
 *  reads input i and weight row i. */
GatherPlan
wholeFanInPlan(size_t n)
{
    GatherPlan plan;
    plan.start = {0, static_cast<uint32_t>(n)};
    plan.inputIdx.resize(n);
    std::iota(plan.inputIdx.begin(), plan.inputIdx.end(), 0u);
    plan.weightIdx = plan.inputIdx;
    return plan;
}

/** The gather plan of a compute layer at its input shape. */
GatherPlan
buildGatherPlan(const composer::RLayer &layer, const nn::Shape &in)
{
    if (layer.kind != composer::RLayerKind::Conv)
        return wholeFanInPlan(layer.inCount);
    RAPIDNN_ASSERT(in.size() == 3, "conv needs [C, H, W]");
    const size_t inC = in[0], h = in[1], w = in[2];
    const size_t k = layer.kernel;
    const size_t oh = layer.samePadding ? h : h - k + 1;
    const size_t ow = layer.samePadding ? w : w - k + 1;
    const long off = layer.samePadding ? -long(k / 2) : 0;

    GatherPlan plan;
    plan.start.assign(oh * ow + 1, 0);
    plan.weightIdx.reserve(oh * ow * inC * k * k);
    plan.inputIdx.reserve(oh * ow * inC * k * k);
    for (size_t y = 0; y < oh; ++y)
        for (size_t x = 0; x < ow; ++x) {
            for (size_t ic = 0; ic < inC; ++ic)
                for (size_t ky = 0; ky < k; ++ky) {
                    const long iy = long(y) + long(ky) + off;
                    if (iy < 0 || iy >= long(h))
                        continue;
                    for (size_t kx = 0; kx < k; ++kx) {
                        const long ix = long(x) + long(kx) + off;
                        if (ix < 0 || ix >= long(w))
                            continue;
                        plan.weightIdx.push_back(static_cast<uint32_t>(
                            (ic * k + ky) * k + kx));
                        plan.inputIdx.push_back(static_cast<uint32_t>(
                            (ic * h + size_t(iy)) * w + size_t(ix)));
                    }
                }
            plan.start[y * ow + x + 1] =
                static_cast<uint32_t>(plan.weightIdx.size());
        }
    return plan;
}

} // namespace

RnaLayerContext::RnaLayerContext(const composer::RLayer &layer,
                                 const nn::Shape &inShape,
                                 const nvm::CostModel &model,
                                 nvm::SearchMode mode,
                                 const simd::KernelOps *kops)
    : _layer(layer), _model(model), _kops(kops),
      _outShape(composer::layerOutputShape(layer, inShape))
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
    // range-validated above, and Chip::configure refused weight
    // codebooks over composer::kMaxWeightEntries, so packing into 8
    // bits is lossless.
    if (_kops != nullptr) {
        _stride = tallyRowStride(layer.outCount);
        for (const auto &engine : _engines)
            _maxWeightEntries =
                std::max(_maxWeightEntries, engine.weightEntries());
        _plan = buildGatherPlan(layer, inShape);
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
    const composer::RLayer &layer = _layer;
    packTallyRows(layer, statePath, _stride, t.rows);

    // Products: one table for the layer, or on a conv layer each
    // channel's engine's table laid end to end, every neuron reading
    // its own from its base (padding neurons read channel 0's).
    t.base.assign(_stride, 0);
    if (statePath) {
        t.products = _stateEngine->paddedProducts();
        t.shift = _stateEngine->keyShift();
        t.planes = buildProductPlanes(*_stateEngine);
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
        t.planes = buildProductPlanes(_engines[0]);
    }
    const size_t w = statePath ? _stateEngine->weightEntries()
                               : _maxWeightEntries;
    t.maskWords = static_cast<uint32_t>((w + 63) / 64);

    // Counting cycles at every position of the plan, over its window
    // (a clipped conv window may be shorter than the fan-in).
    const size_t out = layer.outCount;
    const GatherPlan feedback =
        statePath ? wholeFanInPlan(out) : GatherPlan{};
    const GatherPlan &plan = statePath ? feedback : _plan;
    std::vector<uint32_t> depth(out * w, 0);
    t.counting.resize(plan.positions() * out);
    for (size_t p = 0; p < plan.positions(); ++p)
        rowCountingCycles(t.rows.data(), _stride, out, w,
                          plan.weightIdx.data() + plan.start[p],
                          plan.start[p + 1] - plan.start[p], depth.data(),
                          t.counting.data() + p * out);
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
    RAPIDNN_ASSERT(_kops != nullptr, "tally on a reference-only context");
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
    t.planes.attach(job);
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
                             nvm::OpCost &cost)
{
    RAPIDNN_ASSERT(count > 0, "poolMax on empty window");
    // Charge exactly what poolMax's Ndcam would: one load of `count`
    // keys, then one MAX search over `count` 16-bit rows.
    cost += {1, model.camWriteEnergy * static_cast<double>(count)};
    cost += model.camSearch(count, 16);
    return *std::max_element(codes, codes + count);
}

} // namespace rapidnn::rna
