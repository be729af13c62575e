#include "rna/chip.hh"

#include <algorithm>
#include <array>
#include <map>

#include "common/check.hh"
#include "common/sync.hh"
#include "nvm/data_block.hh"
#include "rna/controller.hh"
#include "rna/kernels/kernels.hh"
#include "telemetry/telemetry.hh"

namespace rapidnn::rna {

using composer::EncodedTensor;
using composer::RLayer;
using composer::RLayerKind;

namespace {

/**
 * PerfReport category a layer's host execution time is traced under,
 * so measured wall time lines up with the modeled cycle breakdown.
 */
const char *
stageName(RLayerKind kind)
{
    switch (kind) {
      case RLayerKind::MaxPool:
      case RLayerKind::AvgPool:
        return "pooling";
      case RLayerKind::Flatten:
        return "other";
      default:
        return "weighted_accum";  // Dense, Conv, Recurrent, Residual
    }
}

/**
 * Stage-duration histogram of a PerfReport category. Populated only
 * while tracing is enabled (the ScopedSpan guard reads no clock
 * otherwise).
 */
telemetry::Histogram *
makeStageHistogram(const char *stage)
{
    return &telemetry::Registry::global().histogram(
        "rapidnn_chip_stage_seconds",
        "Host wall time of Chip::infer stages, keyed by "
        "PerfReport category (sampled while tracing is enabled)",
        telemetry::stageBucketsSeconds(),
        std::string("stage=\"") + stage + "\"");
}

/** The input-encoding stage's histogram, registered once. */
telemetry::Histogram *
encodingHistogram()
{
    static telemetry::Histogram *const hist = makeStageHistogram("encoding");
    return hist;
}

/**
 * The histogram of a layer kind's stage (stageName()), registered once
 * per kind so the per-layer hot path never touches the registry lock.
 */
telemetry::Histogram *
stageHistogram(RLayerKind kind)
{
    static const auto byKind = [] {
        std::array<telemetry::Histogram *,
                   size_t(RLayerKind::Recurrent) + 1> hist{};
        for (size_t k = 0; k < hist.size(); ++k)
            hist[k] = makeStageHistogram(stageName(RLayerKind(k)));
        return hist;
    }();
    return byKind[size_t(kind)];
}

/**
 * Leases the chip's shared workspace for the duration of one infer()
 * call. infer() is const and documented safe for concurrent calls on
 * one chip, so the lease is a try-acquire: the winner reuses the
 * pre-sized shared workspace (the steady-state allocation-free path),
 * any concurrent loser gets a freshly allocated private spare.
 *
 * This is a lock-free capability (Workspace::busy) that clang's
 * thread-safety analysis cannot track, so the acquire/release pair is
 * marked RAPIDNN_NO_THREAD_SAFETY_ANALYSIS and the invariant is stated
 * here instead (DESIGN.md §11 escape inventory):
 *
 *   - busy goes false->true only via the ctor's exchange(acquire); the
 *     single caller that observes false is the winner and takes _ws =
 *     shared. Every other concurrent ctor observes true and allocates
 *     a private spare, so at most ONE live lease ever aliases the
 *     shared workspace.
 *   - busy goes true->false only via the winner's dtor store(release).
 *     The release store pairs with the next winner's acquire exchange,
 *     ordering this call's workspace writes before the next call's
 *     reads — the shared workspace is handed off, never shared.
 *
 * tests/workspace_lease_test.cc races concurrent const infer() calls
 * on one chip (under TSan via the runtime label) to pin this.
 */
class WorkspaceLease
{
  public:
    // NO_THREAD_SAFETY_ANALYSIS: lock-free atomic try-acquire; the
    // mutual-exclusion argument is the class-comment invariant above.
    explicit WorkspaceLease(Workspace *shared)
        RAPIDNN_NO_THREAD_SAFETY_ANALYSIS
    {
        if (shared != nullptr &&
            !shared->busy.exchange(true, std::memory_order_acquire)) {
            _ws = shared;
        } else {
            _spare = std::make_unique<Workspace>();
            _ws = _spare.get();
        }
    }

    // NO_THREAD_SAFETY_ANALYSIS: release half of the lease protocol;
    // only the winning lease (no spare) may clear the flag.
    ~WorkspaceLease() RAPIDNN_NO_THREAD_SAFETY_ANALYSIS
    {
        if (_spare == nullptr)
            _ws->busy.store(false, std::memory_order_release);
    }

    WorkspaceLease(const WorkspaceLease &) = delete;
    WorkspaceLease &operator=(const WorkspaceLease &) = delete;

    Workspace &get() { return *_ws; }

  private:
    Workspace *_ws;
    std::unique_ptr<Workspace> _spare;
};

/**
 * Ready a lane's run for a layer whose outputs have `shape`: zeroed
 * codes when the layer encodes them, zeroed raw values when it is the
 * last compute layer.
 */
void
beginRun(LayerRun &run, std::span<const size_t> shape, bool codes,
         bool raw)
{
    run.reset();
    run.output.shape.assign(shape.begin(), shape.end());
    size_t n = 1;
    for (const size_t d : shape)
        n *= d;
    if (codes)
        run.output.codes.assign(n, 0);
    if (raw)
        run.raw.assign(n, 0.0);
}

/**
 * A recurrent lane's outputs from its final hidden state: the raw
 * values on the last compute layer, and the state re-encoded for the
 * consumer layer (one encoding search charged) when there is one.
 */
void
finishRecurrentRun(const RLayer &layer, const std::vector<double> &hRaw,
                   bool lastCompute, const nvm::CostModel &cost,
                   LayerRun &run)
{
    run.output.shape.assign(1, layer.outCount);
    if (lastCompute)
        run.raw.assign(hRaw.begin(), hRaw.end());
    if (layer.outputEncoder.empty())
        return;
    run.output.codes.resize(hRaw.size());
    for (size_t h = 0; h < hRaw.size(); ++h)
        run.output.codes[h] = static_cast<uint16_t>(
            layer.outputEncoder.encode(hRaw[h]));
    run.cost.encoding += cost.camSearch(layer.outputEncoder.entries(), 32);
}

/**
 * Refuse a layer that does not fit the shape reaching it at the chip's
 * input shape, so the layer walks index only within their inputs, or
 * whose weight codes (the recurrent feedback path's too) do not pack
 * into the tally's 8-bit rows. (layerOutputShape() already refused a
 * conv or pool input that is not [C, H, W] and a valid-padded conv
 * input smaller than its kernel.)
 */
void
checkLayer(const RLayer &layer, const nn::Shape &in)
{
    for (const auto *books :
         {&layer.weightCodebooks, &layer.stateWeightCodebooks})
        for (const quant::Codebook &cb : *books)
            RAPIDNN_CHECK(cb.size() <= composer::kMaxWeightEntries,
                          "chip: a weight codebook of ", cb.size(),
                          " entries exceeds ",
                          composer::kMaxWeightEntries);
    const size_t n = nn::shapeNumel(in);
    switch (layer.kind) {
      case RLayerKind::Dense:
        RAPIDNN_CHECK(n == layer.inCount, "chip: dense fan-in ",
                      layer.inCount, " != input of ", n);
        break;
      case RLayerKind::Conv:
        RAPIDNN_CHECK(in[0] == layer.inChannels, "chip: conv of ",
                      layer.inChannels, " input channels gets ", in[0]);
        break;
      case RLayerKind::Recurrent:
        RAPIDNN_CHECK(n == layer.steps * layer.inCount,
                      "chip: recurrent input of ", n, " != steps x fan-in ",
                      layer.steps * layer.inCount);
        break;
      case RLayerKind::Residual: {
        nn::Shape out = in;
        for (const RLayer &inner : layer.inner)
            out = composer::layerOutputShape(inner, out);
        RAPIDNN_CHECK(nn::shapeNumel(out) == n,
                      "chip: residual inner stack maps ", n,
                      " values to ", nn::shapeNumel(out));
        break;
      }
      default:
        break;
    }
}

} // namespace

/**
 * The immutable per-model hardware state: the controller's mapping
 * plan and one context per compute layer (including layers nested
 * inside residual blocks). Built once by configure() and shared
 * read-only across clone() replicas, so replicas need no copies.
 */
struct Chip::ContextSet
{
    /** Every layer's waves and the chip's occupancy. */
    MappingPlan plan;
    /** Parallel to plan.assignments: each compute layer's context,
     *  null for the other layers. */
    std::vector<std::unique_ptr<RnaLayerContext>> contexts;
    /** Each layer's plan entry, keyed by the RLayer's address. */
    std::map<const RLayer *, size_t> entry;

    const RnaLayerContext &
    context(const RLayer &layer) const
    {
        return *contexts[entry.at(&layer)];
    }

    const LayerAssignment &
    assignment(const RLayer &layer) const
    {
        return plan.assignments[entry.at(&layer)];
    }

    size_t
    waves(const RLayer &layer) const
    {
        return assignment(layer).waves;
    }
};

void
Chip::configure(const composer::ReinterpretedModel &model)
{
    const nn::Shape &shape = model.canonicalInputShape();
    RAPIDNN_CHECK(!shape.empty(),
                  "chip: the model has no canonical input shape");
    _model = &model;
    // Resolve the SIMD kernel variant once per chip: explicit config
    // beats the RAPIDNN_SIMD environment override beats the best
    // variant this build + host supports.
    _kops = kernels::opsFor(kernels::resolve(_config.simd));
    telemetry::Registry::global()
        .gauge("rapidnn_kernel_variant",
               "Selected SIMD kernel variant (1 = active for this "
               "process's most recent Chip::configure)",
               std::string("variant=\"") + _kops->name + "\"")
        .set(1);
    // One context per compute layer, residual inner stacks included,
    // each derived at the shape that reaches its layer; then the plan,
    // whose entries follow the same walk.
    auto set = std::make_shared<ContextSet>();
    composer::walkLayerShapes(
        model.layers(), shape,
        [&](const RLayer &layer, const nn::Shape &in, const nn::Shape &) {
            checkLayer(layer, in);
            set->entry[&layer] = set->contexts.size();
            set->contexts.push_back(
                composer::isComputeKind(layer.kind)
                    ? std::make_unique<RnaLayerContext>(
                          layer, in, _config.cost, _config.searchMode, _kops)
                    : nullptr);
        });
    set->plan = Controller(_config).plan(model);
    RAPIDNN_ASSERT(set->plan.assignments.size() == set->contexts.size(),
                   "the plan covers every layer the chip walks");
    _contexts = std::move(set);
    buildWorkspace();
}

void
Chip::buildWorkspace()
{
    // Build the private inference workspace now, its batch arenas
    // sized, so steady-state infer() calls never grow a buffer (the
    // lanes' layer buffers grow on the first call and are kept).
    _workspace = std::make_unique<Workspace>();
    Workspace &ws = *_workspace;
    const auto &ctxs = _contexts->contexts;

    // Batch-strided arenas of the production path, sized for maxBatch
    // lanes (larger batches grow them on first use, which would also
    // discard AlignedVec contents).
    const size_t mb = std::max<size_t>(1, _config.maxBatch);
    if (_config.fastPath) {
        // Tally inputs and outputs for the widest layer: one grouped
        // window per lane, kPassNeurons output slots per lane (a
        // recurrent step needs two strides), and every lane's outputs
        // of the widest dense or conv layer staged.
        size_t maxFanIn = 0, maxCodes = 0, slots = 0, staged = 0;
        for (const auto &ctx : ctxs) {
            if (ctx == nullptr)
                continue;
            const RLayer &layer = ctx->layer();
            maxFanIn = std::max({maxFanIn, layer.inCount, layer.outCount});
            maxCodes = std::max(
                {maxCodes, layer.inputEntries(), layer.stateCodebook.size()});
            slots = std::max({slots, mb * TallyScratch::kPassNeurons,
                              2 * ctx->tallyStride()});
            if (layer.kind == RLayerKind::Recurrent) {
                ws.hCodes.reserve(layer.outCount);
                ws.hNext.reserve(layer.outCount);
                ws.hRaw.reserve(layer.outCount);
                ws.hRawNext.reserve(layer.outCount);
            } else {
                staged = std::max(
                    staged, mb * nn::shapeNumel(ctx->outputShape()));
            }
        }
        if (slots > 0) {
            ws.inputs.resize(std::max<size_t>(mb, 2));
            for (InputBuckets &b : ws.inputs)
                b.reserve(maxFanIn, maxCodes);
            ws.tally.ensure(slots);
            ws.valsB.ensure(staged);
            ws.codesB.ensure(staged);
            ws.accumCostB.resize(staged);
            ws.amKeys.ensure(mb * TallyScratch::kPassNeurons);
            ws.amRows.ensure(mb * TallyScratch::kPassNeurons);
        }
    }
}

Chip
Chip::clone() const
{
    // Replicas share the immutable layer contexts (product tables, AM
    // blocks, packed weights) and only build a private workspace:
    // instantiation cost is O(batch arenas), not O(model).
    Chip replica(_config);
    replica._model = _model;
    replica._kops = _kops;
    replica._contexts = _contexts;
    if (_contexts != nullptr)
        replica.buildWorkspace();
    return replica;
}

void
Chip::runLayer(const RLayer &layer, const EncodedTensor &in,
               bool lastCompute, Workspace &ws, LayerRun &run) const
{
    run.reset();

    switch (layer.kind) {
      case RLayerKind::Dense: {
        const RnaLayerContext &ctx = _contexts->context(layer);
        beginRun(run, ctx.outputShape(), !layer.outputEncoder.empty(),
                 lastCompute);

        const auto &codes = layer.weightCodes[0];
        uint64_t worstNeuron = 0;
        std::vector<uint16_t> wcol(layer.inCount);
        for (size_t j = 0; j < layer.outCount; ++j) {
            for (size_t i = 0; i < layer.inCount; ++i)
                wcol[i] = codes[i * layer.outCount + j];
            const NeuronResult r =
                ctx.evaluate(0, wcol, in.codes, layer.bias[j]);
            run.cost += r.cost;
            worstNeuron = std::max(worstNeuron, r.cost.total().cycles);
            if (r.encoded)
                run.output.codes[j] = r.code;
            if (lastCompute)
                run.raw[j] = r.rawValue;
        }
        run.stageCycles = worstNeuron * _contexts->waves(layer);
        break;
      }
      case RLayerKind::Conv: {
        const RnaLayerContext &ctx = _contexts->context(layer);
        RAPIDNN_ASSERT(in.shape.size() == 3, "conv needs [C, H, W]");
        const size_t inC = in.shape[0];
        const size_t h = in.shape[1], w = in.shape[2];
        const size_t k = layer.kernel;
        const size_t oh = layer.samePadding ? h : h - k + 1;
        const size_t ow = layer.samePadding ? w : w - k + 1;
        const long off = layer.samePadding ? -long(k / 2) : 0;
        beginRun(run, ctx.outputShape(), !layer.outputEncoder.empty(),
                 lastCompute);

        uint64_t worstNeuron = 0;
        std::vector<uint16_t> wcodes, xcodes;
        for (size_t oc = 0; oc < layer.outCount; ++oc) {
            const auto &codes = layer.weightCodes[oc];
            for (size_t y = 0; y < oh; ++y) {
                for (size_t x = 0; x < ow; ++x) {
                    wcodes.clear();
                    xcodes.clear();
                    for (size_t ic = 0; ic < inC; ++ic)
                        for (size_t ky = 0; ky < k; ++ky) {
                            const long iy = long(y) + long(ky) + off;
                            if (iy < 0 || iy >= long(h))
                                continue;
                            for (size_t kx = 0; kx < k; ++kx) {
                                const long ix = long(x) + long(kx) + off;
                                if (ix < 0 || ix >= long(w))
                                    continue;
                                wcodes.push_back(
                                    codes[(ic * k + ky) * k + kx]);
                                xcodes.push_back(
                                    in.codes[(ic * h + size_t(iy)) * w
                                             + size_t(ix)]);
                            }
                        }
                    const NeuronResult r = ctx.evaluate(
                        oc, wcodes, xcodes, layer.bias[oc]);
                    run.cost += r.cost;
                    worstNeuron =
                        std::max(worstNeuron, r.cost.total().cycles);
                    const size_t oidx = (oc * oh + y) * ow + x;
                    if (r.encoded)
                        run.output.codes[oidx] = r.code;
                    if (lastCompute)
                        run.raw[oidx] = r.rawValue;
                }
            }
        }
        run.stageCycles = worstNeuron * _contexts->waves(layer);
        break;
      }
      case RLayerKind::MaxPool:
      case RLayerKind::AvgPool: {
        RAPIDNN_ASSERT(in.shape.size() == 3, "pooling needs [C, H, W]");
        const size_t ch = in.shape[0];
        const size_t h = in.shape[1], w = in.shape[2];
        const size_t win = layer.poolWindow;
        const size_t oh = h / win, ow = w / win;
        const double norm = 1.0 / double(win * win);

        const size_t outShape[] = {ch, oh, ow};
        beginRun(run, outShape, true, false);
        nvm::OpCost poolCost;
        uint64_t worst = 0;
        // Windows gather into the workspace buffer, which keeps its
        // capacity from call to call.
        std::vector<uint16_t> &window = ws.gatherX;
        window.resize(win * win);
        for (size_t c = 0; c < ch; ++c)
            for (size_t y = 0; y < oh; ++y)
                for (size_t x = 0; x < ow; ++x) {
                    size_t wi = 0;
                    for (size_t ky = 0; ky < win; ++ky)
                        for (size_t kx = 0; kx < win; ++kx)
                            window[wi++] = in.codes[
                                (c * h + y * win + ky) * w + x * win
                                + kx];
                    nvm::OpCost one;
                    uint16_t &code = run.output.codes[(c * oh + y) * ow + x];
                    if (layer.kind == RLayerKind::MaxPool) {
                        // Production skips the per-window Ndcam object
                        // but charges the identical load + MAX-search
                        // cost.
                        code = _config.fastPath
                            ? RnaLayerContext::poolMaxFast(
                                  window.data(), window.size(),
                                  _config.cost, one)
                            : RnaLayerContext::poolMax(window,
                                                       _config.cost, one);
                    } else {
                        // Average pooling accumulates in the crossbar
                        // (division folded offline): one small
                        // in-memory addition per window.
                        AccumFormat format;
                        ws.addends.clear();
                        for (const uint16_t v : window)
                            ws.addends.push_back(format.toFixed(
                                layer.inputCodebook.value(v) * norm));
                        const int64_t sum = nvm::CrossbarArray::addMany(
                            ws.addends, format.accumulatorBits,
                            _config.cost, one);
                        code = static_cast<uint16_t>(
                            layer.inputCodebook.encode(format.toReal(sum)));
                    }
                    worst = std::max(worst, one.cycles);
                    poolCost += one;
                }
        run.cost.pooling = poolCost;
        // Pooling windows run on parallel AM blocks.
        run.stageCycles = worst * _contexts->waves(layer);
        break;
      }
      case RLayerKind::Flatten: {
        run.output.shape.assign(1, in.codes.size());
        run.output.codes.assign(in.codes.begin(), in.codes.end());
        run.stageCycles = 0;
        break;
      }
      case RLayerKind::Recurrent: {
        // Elman cell: the neuron's previous encoded output loops back
        // through the input FIFO; each unrolled step runs both
        // operand paths on the RNA (paper Section 4.3).
        const RnaLayerContext &ctx = _contexts->context(layer);
        const size_t hidden = layer.outCount;
        const size_t features = layer.inCount;
        RAPIDNN_ASSERT(in.codes.size() == layer.steps * features,
                       "recurrent layer code count mismatch");

        nvm::OpCost zeroEncode;
        const uint16_t zeroCode = ctx.encodeState(0.0, zeroEncode);
        run.cost.encoding += zeroEncode;

        std::vector<uint16_t> hCodes(hidden, zeroCode);
        std::vector<double> hRaw(hidden, 0.0);

        const auto &wxCodes = layer.weightCodes[0];
        const auto &whCodes = layer.stateWeightCodes[0];
        std::vector<uint16_t> wxCol(features), whCol(hidden);
        std::vector<uint16_t> xStep(features);
        uint64_t stepWorst = 0;

        for (size_t t = 0; t < layer.steps; ++t) {
            for (size_t f = 0; f < features; ++f)
                xStep[f] = in.codes[t * features + f];
            std::vector<uint16_t> next(hidden);
            std::vector<double> nextRaw(hidden);
            uint64_t worstNeuron = 0;
            for (size_t h = 0; h < hidden; ++h) {
                for (size_t f = 0; f < features; ++f)
                    wxCol[f] = wxCodes[f * hidden + h];
                for (size_t hp = 0; hp < hidden; ++hp)
                    whCol[hp] = whCodes[hp * hidden + h];
                const NeuronResult r = ctx.evaluateRecurrentStep(
                    wxCol, xStep, whCol, hCodes, layer.bias[h]);
                run.cost += r.cost;
                worstNeuron = std::max(worstNeuron, r.cost.total().cycles);
                next[h] = r.code;
                nextRaw[h] = r.rawValue;
            }
            // Steps are inherently sequential (the feedback hazard):
            // neurons parallel within a step, steps serialized.
            stepWorst += worstNeuron;
            hCodes = std::move(next);
            hRaw = std::move(nextRaw);
        }
        run.stageCycles = stepWorst * _contexts->waves(layer);
        finishRecurrentRun(layer, hRaw, lastCompute, _config.cost, run);
        break;
      }
      case RLayerKind::Residual:
        RAPIDNN_ASSERT(false, "residual layers run in runLayerBatch");
        break;
    }
}

std::vector<double>
Chip::infer(const nn::Tensor &x, PerfReport &report) const
{
    std::vector<double> logits;
    runBatch(std::span<const nn::Tensor>(&x, 1),
             std::span<PerfReport>(&report, 1),
             std::span<std::vector<double>>(&logits, 1));
    return logits;
}

nvm::OpCost
Chip::inputEncodeCost(size_t numel) const
{
    nvm::OpCost inputEncode =
        _config.cost.camSearch(_model->inputEncoder().entries(), 32);
    inputEncode.energy =
        inputEncode.energy * static_cast<double>(numel);

    // Data-block traffic (paper Figure 1): the raw sample streams out
    // of the crossbar data block into the virtual-layer encoders, and
    // at the end the logits write back. Cost-only static helpers: no
    // crossbar storage is materialized on the serve path.
    inputEncode += nvm::DataBlock::streamOutCost(
        _config.cost, numel, _config.cost.rnasPerTile);
    return inputEncode;
}

void
Chip::tallyLayerRun(InferTally &t, const LayerRun &run,
                    const RLayer &layer, bool isLastCompute) const
{
    t.totals += run.cost;
    t.latencyCycles += run.stageCycles;
    t.worstStage = std::max(t.worstStage, run.stageCycles);
    t.totalEnergy += run.cost.total().energy;

    // Broadcast-buffer transfer: the layer's encoded outputs move
    // bit-serially over the tile lanes to the next layer's FIFO, at
    // the bits the plan gives their codebook.
    if (!isLastCompute && !run.output.codes.empty()) {
        const size_t bits = _contexts->assignment(layer).broadcastBits;
        t.bufferCycles += static_cast<uint64_t>(
            blockWaves(_config, run.output.codes.size())) * bits;
        t.bufferEnergy += _config.cost.bufferBitEnergy
            * (static_cast<double>(run.output.codes.size()) * bits);
    }
}

void
Chip::finalizeReport(InferTally &t, size_t logitCount,
                     PerfReport &report) const
{
    const Time cycle = _config.cost.cyclePeriod;

    // Result write-back into the data block.
    const nvm::OpCost writeBack =
        nvm::DataBlock::writeBackCost(_config.cost, logitCount);
    t.bufferCycles += writeBack.cycles;
    t.bufferEnergy += writeBack.energy;

    t.latencyCycles += t.bufferCycles;
    t.totalEnergy += t.bufferEnergy;

    // Per-block active-power energy (the paper's Table 1 power figures
    // describe running blocks; its Figure 13 energy shares mirror the
    // block power ratio). Each busy cycle of a block draws that
    // block's power on top of the switching energies accounted above.
    const nvm::CostModel &m = _config.cost;
    const Energy accumActive =
        (m.crossbarPower.over(cycle)
         * double(t.totals.weightedAccum.cycles));
    const Energy counterActive =
        m.counterPower.over(cycle)
        * double(t.totals.weightedAccum.cycles);
    const Energy actActive =
        m.amBlockPower.over(cycle)
        * double(t.totals.activation.cycles);
    const Energy encActive =
        m.amBlockPower.over(cycle) * double(t.totals.encoding.cycles);
    const Energy poolActive =
        m.amBlockPower.over(cycle) * double(t.totals.pooling.cycles);
    t.totalEnergy += accumActive + counterActive + actActive
                   + encActive + poolActive;

    // Idle/leakage for the active window, scaled by the fraction of
    // RNA blocks this model occupies (unoccupied tiles clock gate).
    const Power leakage = chipPower() * _contexts->plan.utilization
        * _config.cost.idleLeakageFraction;
    const Energy leakEnergy =
        leakage.over(cycle * double(t.latencyCycles));
    t.totalEnergy += leakEnergy;

    report.latency = cycle * static_cast<double>(t.latencyCycles);
    report.stageTime = cycle * static_cast<double>(
        std::max<uint64_t>(t.worstStage, 1));
    report.energy = t.totalEnergy;
    report.addCategory("weighted_accum",
                       cycle * double(t.totals.weightedAccum.cycles),
                       t.totals.weightedAccum.energy + accumActive);
    report.addCategory("activation",
                       cycle * double(t.totals.activation.cycles),
                       t.totals.activation.energy + actActive);
    report.addCategory("encoding",
                       cycle * double(t.totals.encoding.cycles),
                       t.totals.encoding.energy + encActive);
    report.addCategory("pooling",
                       cycle * double(t.totals.pooling.cycles),
                       t.totals.pooling.energy + poolActive);
    report.addCategory("other",
                       cycle * double(t.bufferCycles
                                      + t.inputEncode.cycles),
                       t.bufferEnergy + t.inputEncode.energy
                           + counterActive + leakEnergy);
}

void
Chip::runTally(const RLayer &layer, const RnaLayerContext &ctx,
               std::span<const EncodedTensor> ins, bool lastCompute,
               Workspace &ws, LayerRun *runs) const
{
    const size_t lanes = ins.size();
    constexpr size_t kPass = TallyScratch::kPassNeurons;
    constexpr size_t kGroupsPerPass = kPass / simd::kTallyGroup;
    const GatherPlan &plan = ctx.gatherPlan();
    const size_t outCount = layer.outCount;
    const size_t positions = plan.positions();
    const size_t outputs = outCount * positions;
    const size_t slots = outputs * lanes;
    const size_t groups = ctx.tallyStride() / simd::kTallyGroup;
    const bool hasAct = ctx.hasActivation();
    const bool hasEnc = ctx.hasEncoder();
    for (size_t L = 0; L < lanes; ++L)
        beginRun(runs[L], ctx.outputShape(), hasEnc, lastCompute);
    if (ws.inputs.size() < lanes)
        ws.inputs.resize(lanes);
    TallyScratch &st = ws.tally;
    st.ensure(lanes * kPass);
    ws.valsB.ensure(slots);
    ws.codesB.ensure(slots);
    ws.amKeys.ensure(lanes * kPass);
    ws.amRows.ensure(lanes * kPass);
    if (ws.accumCostB.size() < slots)
        ws.accumCostB.resize(slots);

    // Position by position: every lane's window grouped by input code
    // once, then passes of up to 8 groups (a cache line of each weight
    // row, hot across the lanes) tallied for every lane. Values and
    // costs stage neuron-major: output oidx = j * positions + p of
    // lane L at slot oidx * lanes + L.
    for (size_t p = 0; p < positions; ++p) {
        const uint32_t s0 = plan.start[p];
        const size_t n = plan.start[p + 1] - s0;
        for (size_t L = 0; L < lanes; ++L)
            ws.inputs[L].build(ins[L].codes.data(),
                               plan.inputIdx.data() + s0,
                               plan.weightIdx.data() + s0, n,
                               layer.inputEntries());
        for (size_t g = 0; g < groups; g += kGroupsPerPass) {
            const size_t gEnd = std::min(groups, g + kGroupsPerPass);
            for (size_t L = 0; L < lanes; ++L)
                ctx.tally(ws.inputs[L], g, gEnd,
                          st.sums.data() + L * kPass,
                          st.distinct.data() + L * kPass,
                          st.addends.data() + L * kPass);
            const size_t begin = g * simd::kTallyGroup;
            const size_t end = std::min(outCount, gEnd * simd::kTallyGroup);
            for (size_t j = begin; j < end; ++j)
                for (size_t L = 0; L < lanes; ++L) {
                    const size_t at = L * kPass + (j - begin);
                    const AccumResult a = ctx.tallyResult(
                        j, st.sums[at], st.distinct[at], st.addends[at], n,
                        ctx.countingCycles(p * outCount + j), ws.accum);
                    const size_t slot = (j * positions + p) * lanes + L;
                    ws.valsB[slot] = a.value;
                    ws.accumCostB[slot] = a.cost.total();
                }
        }
    }

    // The layer's activation and encoding lookups, in chunks the size
    // of their key and row scratch.
    double *vals = ws.valsB.data();
    for (size_t at = 0; at < slots; at += lanes * kPass) {
        const size_t nb = std::min(lanes * kPass, slots - at);
        ctx.activateBatch(vals + at, vals + at, nb, ws.amKeys.data(),
                          ws.amRows.data());
        if (hasEnc)
            ctx.encodeBatch(vals + at, nb, ws.amKeys.data(),
                            ws.amRows.data(), ws.codesB.data() + at);
    }

    // Each lane's outputs, then its costs summed in serial neuron order
    // (the reference walk's, so the sums are bitwise identical) with
    // the per-layer-constant AM query costs re-added per neuron.
    const nvm::OpCost actQ =
        hasAct ? ctx.activationQueryCost() : nvm::OpCost{};
    const nvm::OpCost encQ =
        hasEnc ? ctx.encodingQueryCost() : nvm::OpCost{};
    const size_t waves = _contexts->waves(layer);
    for (size_t L = 0; L < lanes; ++L) {
        LayerRun &run = runs[L];
        uint64_t worstNeuron = 0;
        for (size_t oidx = 0; oidx < outputs; ++oidx) {
            const size_t slot = oidx * lanes + L;
            if (hasEnc)
                run.output.codes[oidx] = ws.codesB[slot];
            if (lastCompute)
                run.raw[oidx] = vals[slot];
            const nvm::OpCost &wa = ws.accumCostB[slot];
            run.cost.weightedAccum += wa;
            if (hasAct)
                run.cost.activation += actQ;
            if (hasEnc)
                run.cost.encoding += encQ;
            worstNeuron = std::max(worstNeuron,
                                   wa.cycles + actQ.cycles + encQ.cycles);
        }
        run.stageCycles = worstNeuron * waves;
    }
}

void
Chip::runRecurrentTally(const RLayer &layer, const RnaLayerContext &ctx,
                        std::span<const EncodedTensor> ins,
                        bool lastCompute, Workspace &ws,
                        LayerRun *runs) const
{
    // Lane by lane, steps in order (the feedback hazard): each step
    // groups x_t and the previous state by code, tallies both operand
    // paths, and finishes every hidden neuron in the reference walk's
    // order.
    const size_t hidden = layer.outCount;
    const size_t features = layer.inCount;
    const size_t stride = ctx.tallyStride();
    const size_t groups = stride / simd::kTallyGroup;
    nvm::OpCost zeroEncode;
    const uint16_t zeroCode = ctx.encodeState(0.0, zeroEncode);
    TallyScratch &st = ws.tally;
    st.ensure(2 * stride);
    if (ws.inputs.size() < 2)
        ws.inputs.resize(2);
    InputBuckets &xs = ws.inputs[0];
    InputBuckets &hs = ws.inputs[1];
    const size_t waves = _contexts->waves(layer);

    for (size_t L = 0; L < ins.size(); ++L) {
        RAPIDNN_ASSERT(ins[L].codes.size() == layer.steps * features,
                       "recurrent layer code count mismatch");
        LayerRun &run = runs[L];
        run.reset();
        run.cost.encoding += zeroEncode;
        ws.hCodes.assign(hidden, zeroCode);
        ws.hRaw.assign(hidden, 0.0);
        ws.hNext.resize(hidden);
        ws.hRawNext.resize(hidden);
        uint64_t stepWorst = 0;
        for (size_t t = 0; t < layer.steps; ++t) {
            xs.build(ins[L].codes.data() + t * features, features,
                     layer.inputEntries());
            hs.build(ws.hCodes.data(), hidden, layer.stateCodebook.size());
            ctx.tally(xs, 0, groups, st.sums.data(), st.distinct.data(),
                      st.addends.data());
            ctx.tally(hs, 0, groups, st.sums.data() + stride,
                      st.distinct.data() + stride,
                      st.addends.data() + stride, true);
            uint64_t worstNeuron = 0;
            for (size_t hn = 0; hn < hidden; ++hn) {
                const AccumResult x = ctx.tallyResult(
                    hn, st.sums[hn], st.distinct[hn], st.addends[hn],
                    features, ctx.countingCycles(hn), ws.accum);
                const size_t at = stride + hn;
                const AccumResult hAccum = ctx.tallyResult(
                    hn, st.sums[at], st.distinct[at], st.addends[at],
                    hidden, ctx.countingCycles(hn, true), ws.accum, true);
                const NeuronResult r = ctx.finishRecurrentStep(x, hAccum);
                run.cost += r.cost;
                worstNeuron = std::max(worstNeuron, r.cost.total().cycles);
                ws.hNext[hn] = r.code;
                ws.hRawNext[hn] = r.rawValue;
            }
            stepWorst += worstNeuron;
            std::swap(ws.hCodes, ws.hNext);
            std::swap(ws.hRaw, ws.hRawNext);
        }
        run.stageCycles = stepWorst * waves;
        finishRecurrentRun(layer, ws.hRaw, lastCompute, _config.cost, run);
    }
}

void
Chip::runLayerBatch(const RLayer &layer,
                    std::span<const EncodedTensor> ins,
                    bool lastCompute, Workspace &ws,
                    std::span<LayerRun> runs) const
{
    const size_t lanes = ins.size();
    // The reference walk (fastPath = false) and the pool and flatten
    // layers run one lane at a time.
    auto perLane = [&] {
        for (size_t L = 0; L < lanes; ++L)
            runLayer(layer, ins[L], lastCompute, ws, runs[L]);
    };

    switch (layer.kind) {
      case RLayerKind::Dense:
      case RLayerKind::Conv:
      case RLayerKind::Recurrent: {
        const RnaLayerContext &ctx = _contexts->context(layer);
        if (!_config.fastPath) {
            perLane();
        } else if (layer.kind != RLayerKind::Recurrent) {
            runTally(layer, ctx, ins, lastCompute, ws, runs.data());
        } else {
            runRecurrentTally(layer, ctx, ins, lastCompute, ws,
                              runs.data());
        }
        return;
      }
      case RLayerKind::Residual: {
        // Recurse batched through the inner stack, then the per-lane
        // skip add, elementwise per lane.
        if (ws.residual.size() <= ws.residualDepth)
            ws.residual.emplace_back();
        ResidualLanes &block = ws.residual[ws.residualDepth];
        if (block.values.size() < lanes) {
            block.values.resize(lanes);
            block.innerRaws.resize(lanes);
            block.innerRuns.resize(lanes);
        }
        const std::span<EncodedTensor> values(block.values.data(), lanes);
        const std::span<LayerRun> innerRuns(block.innerRuns.data(),
                                            lanes);
        const bool last = layer.outputEncoder.empty();
        for (size_t L = 0; L < lanes; ++L) {
            values[L].shape = ins[L].shape;
            values[L].codes.assign(ins[L].codes.begin(),
                                   ins[L].codes.end());
            beginRun(runs[L], ins[L].shape, !last, lastCompute);
        }
        ++ws.residualDepth;
        for (size_t i = 0; i < layer.inner.size(); ++i) {
            const bool lastInner = i + 1 == layer.inner.size();
            runLayerBatch(layer.inner[i], values, lastInner, ws,
                          innerRuns);
            for (size_t L = 0; L < lanes; ++L) {
                runs[L].cost += innerRuns[L].cost;
                runs[L].stageCycles += innerRuns[L].stageCycles;
                if (lastInner)
                    std::swap(block.innerRaws[L], innerRuns[L].raw);
                std::swap(values[L], innerRuns[L].output);
            }
        }
        --ws.residualDepth;

        AccumFormat format;
        const nvm::CostModel &m = _config.cost;
        for (size_t L = 0; L < lanes; ++L) {
            const EncodedTensor &in = ins[L];
            std::vector<double> &innerRaw = block.innerRaws[L];
            RAPIDNN_ASSERT(innerRaw.size() == in.codes.size(),
                           "residual inner stack changed shape");
            nvm::OpCost addCost{
                m.carryPropagateCyclesPerBit * format.accumulatorBits,
                m.norEnergyPerBit
                    * double(format.accumulatorBits
                             * m.carryPropagateCyclesPerBit)
                    * double(in.codes.size())};
            runs[L].cost.weightedAccum += addCost;
            runs[L].stageCycles += addCost.cycles;
            for (size_t i = 0; i < innerRaw.size(); ++i) {
                const int64_t sum = format.toFixed(innerRaw[i])
                    + format.toFixed(
                          layer.inputCodebook.value(in.codes[i]));
                double summed = format.toReal(sum);
                if (layer.activation)
                    summed = layer.activation->lookup(summed);
                if (lastCompute)
                    runs[L].raw[i] = summed;
                if (!last)
                    runs[L].output.codes[i] = static_cast<uint16_t>(
                        layer.outputEncoder.encode(summed));
            }
        }
        return;
      }
      default:
        perLane();
        return;
    }
}

std::vector<std::vector<double>>
Chip::inferBatch(std::span<const nn::Tensor> inputs,
                 std::span<PerfReport> reports) const
{
    std::vector<std::vector<double>> logits(inputs.size());
    runBatch(inputs, reports, logits);
    return logits;
}

void
Chip::runBatch(std::span<const nn::Tensor> inputs,
               std::span<PerfReport> reports,
               std::span<std::vector<double>> logits) const
{
    RAPIDNN_ASSERT(_model != nullptr, "chip not configured");
    RAPIDNN_ASSERT(reports.size() >= inputs.size(),
                   "inferBatch needs one report per input");
    const size_t lanes = inputs.size();
    if (lanes == 0)
        return;
    RAPIDNN_TELEMETRY_SPAN("chip_infer_batch");
    const auto &model = *_model;
    // Every lane runs the layer shapes configure derived.
    for (const nn::Tensor &x : inputs)
        RAPIDNN_CHECK(x.shape() == model.canonicalInputShape(),
                      "chip: input shape ", nn::shapeToString(x.shape()),
                      " != the model's ",
                      nn::shapeToString(model.canonicalInputShape()));

    // Lease the shared workspace for this call; concurrent callers on
    // the same chip fall back to private spares (see WorkspaceLease).
    WorkspaceLease lease(_workspace.get());
    Workspace &ws = lease.get();
    if (ws.lanesIn.size() < lanes) {
        ws.lanesIn.resize(lanes);
        ws.lanesRun.resize(lanes);
        ws.tallies.resize(lanes);
    }
    const std::span<EncodedTensor> encs(ws.lanesIn.data(), lanes);
    const std::span<LayerRun> runs(ws.lanesRun.data(), lanes);

    // Virtual input layer: encode raw data (charged as AM searches on
    // the input-encoding block, all lanes in parallel).
    {
        RAPIDNN_TELEMETRY_STAGE("encoding", encodingHistogram());
        for (size_t L = 0; L < lanes; ++L) {
            const nn::Tensor &x = inputs[L];
            encs[L].shape = x.shape();
            encs[L].codes.resize(x.numel());
            for (size_t i = 0; i < x.numel(); ++i)
                encs[L].codes[i] = static_cast<uint16_t>(
                    model.inputEncoder().encode(x[i]));
        }
    }
    for (size_t L = 0; L < lanes; ++L) {
        reports[L].reset();
        InferTally &t = ws.tallies[L];
        t = InferTally{};
        t.inputEncode = inputEncodeCost(inputs[L].numel());
        t.latencyCycles = t.inputEncode.cycles;
        t.worstStage = t.inputEncode.cycles;
        t.totalEnergy = t.inputEncode.energy;
    }

    const size_t lastCompute = composer::lastLogitLayer(model.layers());

    for (size_t l = 0; l < model.layers().size(); ++l) {
        const RLayer &layer = model.layers()[l];
        {
            RAPIDNN_TELEMETRY_SPAN(stageName(layer.kind),
                                   static_cast<int64_t>(l), 0,
                                   stageHistogram(layer.kind));
            runLayerBatch(layer, encs, l == lastCompute, ws, runs);
        }
        for (size_t L = 0; L < lanes; ++L) {
            tallyLayerRun(ws.tallies[L], runs[L], layer,
                          l == lastCompute);
            if (l == lastCompute)
                logits[L] = std::move(runs[L].raw);
            // The layer's output becomes the lane's input, and the
            // spent input the buffer the next layer writes: each lane
            // owns two code buffers that keep their capacity.
            std::swap(encs[L], runs[L].output);
        }
    }
    for (size_t L = 0; L < lanes; ++L)
        finalizeReport(ws.tallies[L], logits[L].size(), reports[L]);
}

double
Chip::errorRate(const nn::Dataset &data, PerfReport &avgReport) const
{
    RAPIDNN_ASSERT(data.size() > 0, "errorRate on empty dataset");
    size_t wrong = 0;
    avgReport = PerfReport{};
    Time latencySum{};
    Time stageSum{};
    Energy energySum{};

    for (const auto &sample : data.samples()) {
        PerfReport one;
        std::vector<double> logits = infer(sample.x, one);
        const size_t best = static_cast<size_t>(
            std::max_element(logits.begin(), logits.end())
            - logits.begin());
        if (static_cast<int>(best) != sample.label)
            ++wrong;
        latencySum += one.latency;
        stageSum += one.stageTime;
        energySum += one.energy;
        for (const auto &cat : one.breakdown)
            avgReport.addCategory(cat.name, cat.time, cat.energy);
    }
    const double n = static_cast<double>(data.size());
    avgReport.latency = latencySum * (1.0 / n);
    avgReport.stageTime = stageSum * (1.0 / n);
    avgReport.energy = energySum * (1.0 / n);
    for (auto &cat : avgReport.breakdown) {
        cat.time = cat.time * (1.0 / n);
        cat.energy = cat.energy * (1.0 / n);
    }
    return static_cast<double>(wrong) / n;
}

RnaAreaBreakdown
Chip::rnaArea() const
{
    const nvm::CostModel &m = _config.cost;
    RnaAreaBreakdown a;
    a.crossbar = m.crossbarArea;
    a.counter = m.counterArea;
    a.activationAm = m.amBlockArea;
    a.encodingAm = m.amBlockArea;
    // MUX / drivers / glue: remainder to the paper's 3841 um^2 block.
    const Area anchor = Area::squareMicrometers(3841.0);
    const Area partial = a.crossbar + a.counter + a.activationAm
                       + a.encodingAm;
    a.other = anchor.um2() > partial.um2()
        ? Area::squareMicrometers(anchor.um2() - partial.um2())
        : Area{};
    return a;
}

ChipAreaBreakdown
Chip::chipArea() const
{
    const nvm::CostModel &m = _config.cost;
    const double rnas = static_cast<double>(m.rnasPerTile)
                      * static_cast<double>(m.tilesPerChip);
    ChipAreaBreakdown a;
    a.rna = rnaArea().total() * rnas;
    // Data blocks (paper Figure 14): memory is 38.2 % of the chip while
    // RNAs are 56.7 %; scale from the RNA roll-up.
    a.memory = a.rna * (38.2 / 56.7);
    a.buffer = a.rna * (3.4 / 56.7);
    a.controller = a.rna * (1.7 / 56.7);
    a.other = a.rna * (1.2 / 56.7);
    return a;
}

Power
Chip::chipPower() const
{
    const nvm::CostModel &m = _config.cost;
    const Power rna = m.crossbarPower + m.counterPower
                    + m.amBlockPower + m.amBlockPower
                    + Power::milliwatts(0.0);
    const Power tile = rna * static_cast<double>(m.rnasPerTile)
                     + m.tileBufferPower;
    return tile * static_cast<double>(m.tilesPerChip)
         * static_cast<double>(_config.chips);
}

} // namespace rapidnn::rna
