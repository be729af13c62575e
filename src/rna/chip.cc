#include "rna/chip.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hh"
#include "common/sync.hh"
#include "nvm/data_block.hh"
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
 * Stage-duration histograms, registered once and cached so the per-
 * layer hot path never touches the registry lock. Populated only while
 * tracing is enabled (the ScopedSpan guard reads no clock otherwise).
 */
telemetry::Histogram *
stageHistogram(const char *stage)
{
    auto make = [](const char *s) {
        return &telemetry::Registry::global().histogram(
            "rapidnn_chip_stage_seconds",
            "Host wall time of Chip::infer stages, keyed by "
            "PerfReport category (sampled while tracing is enabled)",
            telemetry::stageBucketsSeconds(),
            std::string("stage=\"") + s + "\"");
    };
    static telemetry::Histogram *encoding = make("encoding");
    static telemetry::Histogram *weighted = make("weighted_accum");
    static telemetry::Histogram *pooling = make("pooling");
    static telemetry::Histogram *other = make("other");
    if (std::strcmp(stage, "encoding") == 0)
        return encoding;
    if (std::strcmp(stage, "weighted_accum") == 0)
        return weighted;
    if (std::strcmp(stage, "pooling") == 0)
        return pooling;
    return other;
}

/**
 * RNA waves a layer of `neurons` neurons takes: every neuron runs on
 * its own RNA block, in waves when the layer exceeds the physical
 * block count (or when sharing serializes).
 */
size_t
rnaWaves(const ChipConfig &config, size_t neurons)
{
    const double effective = static_cast<double>(config.totalRnas())
                           * (1.0 - config.rnaSharing);
    return static_cast<size_t>(std::ceil(
        static_cast<double>(neurons) / std::max(1.0, effective)));
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
 * Count the RNA blocks a model occupies (one per compute neuron,
 * recursing through residual inner stacks).
 */
size_t
countOccupiedRnas(const std::vector<RLayer> &layers)
{
    size_t n = 0;
    for (const auto &layer : layers) {
        if (layer.kind == RLayerKind::Dense ||
            layer.kind == RLayerKind::Conv ||
            layer.kind == RLayerKind::Recurrent)
            n += layer.outCount;
        else if (layer.kind == RLayerKind::Residual)
            n += countOccupiedRnas(layer.inner);
    }
    return n;
}

/**
 * Make a lane's layer output its next input. The spent input codes go
 * back to the pool and both shape buffers keep their capacity.
 */
void
advanceLane(EncodedTensor &in, LayerRun &run, Workspace &ws)
{
    std::swap(in, run.output);
    ws.giveCodes(std::move(run.output.codes));
}

} // namespace

void
buildConvGatherPlan(ConvGatherPlan &plan, const composer::RLayer &layer,
                    size_t inC, size_t h, size_t w)
{
    const size_t k = layer.kernel;
    const size_t oh = layer.samePadding ? h : h - k + 1;
    const size_t ow = layer.samePadding ? w : w - k + 1;
    const long off = layer.samePadding ? -long(k / 2) : 0;

    plan.inC = inC;
    plan.inH = h;
    plan.inW = w;
    plan.outH = oh;
    plan.outW = ow;
    std::vector<uint32_t> start(oh * ow + 1, 0);
    std::vector<uint32_t> weightIdx;
    std::vector<uint32_t> inputIdx;
    weightIdx.reserve(oh * ow * inC * k * k);
    inputIdx.reserve(oh * ow * inC * k * k);

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
                        weightIdx.push_back(static_cast<uint32_t>(
                            (ic * k + ky) * k + kx));
                        inputIdx.push_back(static_cast<uint32_t>(
                            (ic * h + size_t(iy)) * w + size_t(ix)));
                    }
                }
            start[y * ow + x + 1] =
                static_cast<uint32_t>(weightIdx.size());
        }
    plan.start = std::move(start);
    plan.weightIdx = std::move(weightIdx);
    plan.inputIdx = std::move(inputIdx);
    plan.counting.clear();
}

void
Chip::configure(const composer::ReinterpretedModel &model)
{
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
    auto set = std::make_shared<ContextSet>();
    configureLayers(*set, model.layers());
    _contexts = std::move(set);
    buildWorkspace();
}

void
Chip::configureLayers(ContextSet &set,
                      const std::vector<RLayer> &layers)
{
    for (const RLayer &layer : layers) {
        if (layer.kind == RLayerKind::Dense ||
            layer.kind == RLayerKind::Conv ||
            layer.kind == RLayerKind::Recurrent) {
            set.byLayer[&layer] = set.contexts.size();
            set.contexts.push_back(std::make_unique<RnaLayerContext>(
                layer, _config.cost, _config.searchMode, _kops));
        } else if (layer.kind == RLayerKind::Residual) {
            configureLayers(set, layer.inner);
        }
    }
}

void
Chip::buildWorkspace()
{
    // Build the private inference workspace now so steady-state
    // infer() calls never grow a buffer.
    _workspace = std::make_unique<Workspace>();
    Workspace &ws = *_workspace;
    const auto &ctxs = _contexts->contexts;
    ws.convPlans.resize(ctxs.size());

    // Blob-loaded models carry precomputed gather plans for the
    // canonical input shape; install them as zero-copy views so the
    // first infer skips the plan build entirely.
    for (size_t i = 0; i < ctxs.size(); ++i) {
        const RLayer &layer = ctxs[i]->layer();
        if (!layer.convPlan.has_value())
            continue;
        const composer::RLayer::ConvPlanData &p = *layer.convPlan;
        ConvGatherPlan &plan = ws.convPlans[i];
        plan.inC = p.inC;
        plan.inH = p.inH;
        plan.inW = p.inW;
        plan.outH = p.outH;
        plan.outW = p.outW;
        plan.start = p.start;
        plan.weightIdx = p.weightIdx;
        plan.inputIdx = p.inputIdx;
    }

    // Seed the activation-tensor pools from the model's canonical
    // input shape: size every recycled buffer to the widest tensor
    // that flows through the layer chain, so the serve path performs
    // no buffer growth. Models without a recorded shape (legacy text
    // files) warm the pools up on the first infer instead.
    const nn::Shape &shape = _model->canonicalInputShape();
    if (shape.empty())
        return;
    size_t maxElems = 1;
    for (size_t d : shape)
        maxElems *= d;
    composer::walkLayerShapes(
        _model->layers(), shape,
        [&](const RLayer &layer, const nn::Shape &,
            const nn::Shape &out) {
            size_t n = 1;
            for (size_t d : out)
                n *= d;
            maxElems = std::max(maxElems, n);
            if (layer.kind == RLayerKind::MaxPool) {
                const size_t win = layer.poolWindow * layer.poolWindow;
                if (ws.gatherX.size() < win)
                    ws.gatherX.resize(win);
            }
        });
    // Batch-strided arenas of the production path, sized for maxBatch
    // lanes (larger batches grow them on first use, which would also
    // discard AlignedVec contents). The pools below also scale with
    // maxBatch so a whole batch's activation tensors recycle without
    // growth.
    const size_t mb = std::max<size_t>(1, _config.maxBatch);
    if (_config.fastPath) {
        // Tally inputs and outputs for the widest layer: one grouped
        // fan-in per lane, kPassNeurons output slots per lane (a conv
        // position needs one stride, a recurrent step two).
        size_t maxFanIn = 0, maxCodes = 0, slots = 0, staged = 0;
        for (const auto &ctx : ctxs) {
            if (!ctx->hasTally())
                continue;
            const RLayer &layer = ctx->layer();
            maxFanIn = std::max({maxFanIn, layer.inCount, layer.outCount});
            maxCodes = std::max(
                {maxCodes, layer.inputEntries(), layer.stateCodebook.size()});
            slots = std::max({slots, mb * TallyScratch::kPassNeurons,
                              2 * ctx->tallyStride()});
            staged = std::max(staged, mb * TallyScratch::kPassNeurons);
            if (layer.kind == RLayerKind::Conv)
                staged = std::max(staged, mb * maxElems);
            if (layer.kind == RLayerKind::Recurrent) {
                ws.hCodes.reserve(layer.outCount);
                ws.hNext.reserve(layer.outCount);
                ws.hRaw.reserve(layer.outCount);
                ws.hRawNext.reserve(layer.outCount);
            }
        }
        if (slots > 0) {
            ws.inputs.resize(std::max<size_t>(mb, 2));
            for (InputBuckets &b : ws.inputs)
                b.reserve(maxFanIn, maxCodes);
            ws.tally.ensure(slots);
            ws.valsB.ensure(staged);
            ws.codesB.ensure(staged);
            ws.amKeys.ensure(staged);
            ws.amRows.ensure(staged);
        }
    }
    for (size_t i = 0; i < 4 * mb; ++i) {
        std::vector<uint16_t> buf;
        buf.reserve(maxElems);
        ws.codePool.push_back(std::move(buf));
    }
    for (size_t i = 0; i < 2 * mb; ++i) {
        std::vector<double> buf;
        buf.reserve(maxElems);
        ws.rawPool.push_back(std::move(buf));
    }
}

Chip
Chip::clone() const
{
    // Replicas share the immutable layer contexts (product tables, AM
    // blocks, packed weights) and only build a private workspace:
    // instantiation cost is O(activation buffers), not O(model).
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
        const RnaLayerContext &ctx =
            *_contexts->contexts[_contexts->byLayer.at(&layer)];
        run.output.shape = {layer.outCount};
        if (!layer.outputEncoder.empty()) {
            run.output.codes = ws.takeCodes();
            run.output.codes.assign(layer.outCount, 0);
        }
        if (lastCompute) {
            run.raw = ws.takeRaw();
            run.raw.assign(layer.outCount, 0.0);
        }

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
        run.stageCycles = worstNeuron * rnaWaves(_config, layer.outCount);
        break;
      }
      case RLayerKind::Conv: {
        const RnaLayerContext &ctx =
            *_contexts->contexts[_contexts->byLayer.at(&layer)];
        RAPIDNN_ASSERT(in.shape.size() == 3, "conv needs [C, H, W]");
        const size_t inC = in.shape[0];
        const size_t h = in.shape[1], w = in.shape[2];
        const size_t k = layer.kernel;
        const size_t oh = layer.samePadding ? h : h - k + 1;
        const size_t ow = layer.samePadding ? w : w - k + 1;
        const long off = layer.samePadding ? -long(k / 2) : 0;

        run.output.shape = {layer.outCount, oh, ow};
        if (!layer.outputEncoder.empty()) {
            run.output.codes = ws.takeCodes();
            run.output.codes.assign(layer.outCount * oh * ow, 0);
        }
        if (lastCompute) {
            run.raw = ws.takeRaw();
            run.raw.assign(layer.outCount * oh * ow, 0.0);
        }

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
        run.stageCycles =
            worstNeuron * rnaWaves(_config, layer.outCount * oh * ow);
        break;
      }
      case RLayerKind::MaxPool: {
        RAPIDNN_ASSERT(in.shape.size() == 3, "maxpool needs [C, H, W]");
        const size_t ch = in.shape[0];
        const size_t h = in.shape[1], w = in.shape[2];
        const size_t win = layer.poolWindow;
        const size_t oh = h / win, ow = w / win;

        run.output.shape = {ch, oh, ow};
        run.output.codes = ws.takeCodes();
        run.output.codes.assign(ch * oh * ow, 0);
        nvm::OpCost poolCost;
        uint64_t worst = 0;
        // Production gathers windows into the workspace buffer (sized
        // at configure time); the reference walk keeps its own vector.
        std::vector<uint16_t> windowLocal;
        if (_config.fastPath) {
            if (ws.gatherX.size() < win * win)
                ws.gatherX.resize(win * win);
        } else {
            windowLocal.resize(win * win);
        }
        uint16_t *window = _config.fastPath ? ws.gatherX.data()
                                            : windowLocal.data();
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
                    // Production skips the per-window Ndcam object but
                    // charges the identical load + MAX-search cost.
                    run.output.codes[(c * oh + y) * ow + x] =
                        _config.fastPath
                            ? RnaLayerContext::poolMaxFast(
                                  window, win * win,
                                  _config.cost, one, *_kops)
                            : RnaLayerContext::poolMax(
                                  windowLocal, _config.cost, one);
                    worst = std::max(worst, one.cycles);
                    poolCost += one;
                }
        run.cost.pooling = poolCost;
        // Pooling windows run on parallel AM blocks.
        const size_t windows = ch * oh * ow;
        const size_t waves = static_cast<size_t>(std::ceil(
            static_cast<double>(windows)
            / static_cast<double>(_config.totalRnas())));
        run.stageCycles = worst * waves;
        break;
      }
      case RLayerKind::AvgPool: {
        // Average pooling accumulates in the crossbar (division folded
        // offline); modelled as one small in-memory addition per window.
        RAPIDNN_ASSERT(in.shape.size() == 3, "avgpool needs [C, H, W]");
        const size_t ch = in.shape[0];
        const size_t h = in.shape[1], w = in.shape[2];
        const size_t win = layer.poolWindow;
        const size_t oh = h / win, ow = w / win;
        const double norm = 1.0 / double(win * win);

        run.output.shape = {ch, oh, ow};
        run.output.codes = ws.takeCodes();
        run.output.codes.assign(ch * oh * ow, 0);
        nvm::OpCost poolCost;
        uint64_t worst = 0;
        for (size_t c = 0; c < ch; ++c)
            for (size_t y = 0; y < oh; ++y)
                for (size_t x = 0; x < ow; ++x) {
                    // Production reuses the workspace addend buffer
                    // instead of allocating one per window.
                    std::vector<int64_t> local;
                    std::vector<int64_t> &addends =
                        _config.fastPath ? ws.addends : local;
                    addends.clear();
                    AccumFormat format;
                    for (size_t ky = 0; ky < win; ++ky)
                        for (size_t kx = 0; kx < win; ++kx) {
                            const size_t idx =
                                (c * h + y * win + ky) * w + x * win
                                + kx;
                            addends.push_back(format.toFixed(
                                layer.inputCodebook.value(
                                    in.codes[idx]) * norm));
                        }
                    nvm::OpCost one;
                    const int64_t sum = nvm::CrossbarArray::addMany(
                        addends, format.accumulatorBits, _config.cost,
                        one);
                    run.output.codes[(c * oh + y) * ow + x] =
                        static_cast<uint16_t>(
                            layer.inputCodebook.encode(
                                format.toReal(sum)));
                    worst = std::max(worst, one.cycles);
                    poolCost += one;
                }
        run.cost.pooling = poolCost;
        const size_t windows = ch * oh * ow;
        const size_t waves = static_cast<size_t>(std::ceil(
            static_cast<double>(windows)
            / static_cast<double>(_config.totalRnas())));
        run.stageCycles = worst * waves;
        break;
      }
      case RLayerKind::Flatten: {
        run.output.shape = {in.codes.size()};
        run.output.codes = ws.takeCodes();
        run.output.codes.assign(in.codes.begin(), in.codes.end());
        run.stageCycles = 0;
        break;
      }
      case RLayerKind::Recurrent: {
        // Elman cell: the neuron's previous encoded output loops back
        // through the input FIFO; each unrolled step runs both
        // operand paths on the RNA (paper Section 4.3).
        const RnaLayerContext &ctx =
            *_contexts->contexts[_contexts->byLayer.at(&layer)];
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
        run.stageCycles = stepWorst;

        run.output.shape = {hidden};
        const bool last = layer.outputEncoder.empty();
        if (lastCompute) {
            run.raw = ws.takeRaw();
            run.raw.assign(hRaw.begin(), hRaw.end());
        }
        if (!last) {
            run.output.codes = ws.takeCodes();
            run.output.codes.assign(hidden, 0);
            // Re-encode the final state for the consumer layer.
            nvm::OpCost encodeCost;
            for (size_t h = 0; h < hidden; ++h)
                run.output.codes[h] = static_cast<uint16_t>(
                    layer.outputEncoder.encode(hRaw[h]));
            encodeCost += _config.cost.camSearch(
                layer.outputEncoder.entries(), 32);
            run.cost.encoding += encodeCost;
        }
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
    // bit-serially over the tile lanes to the next layer's FIFO.
    if (!isLastCompute && !run.output.codes.empty()) {
        const uint32_t bits = layer.inputCodebook.empty()
            ? 6 : layer.inputCodebook.bits();
        const size_t lanes =
            _config.cost.rnasPerTile * _config.cost.tilesPerChip
            * _config.chips;
        const uint64_t cyclesHere = static_cast<uint64_t>(
            std::ceil(static_cast<double>(run.output.codes.size())
                      / static_cast<double>(lanes)))
            * bits;
        t.bufferCycles += cyclesHere;
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
    size_t occupied = countOccupiedRnas(_model->layers());
    occupied = std::max<size_t>(1,
        std::min(occupied, _config.totalRnas()));
    const double occupancy = static_cast<double>(occupied)
        / static_cast<double>(_config.totalRnas());
    const Power leakage = chipPower() * occupancy
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
Chip::runDenseTally(const RLayer &layer, const RnaLayerContext &ctx,
                    std::span<const EncodedTensor> ins, bool lastCompute,
                    Workspace &ws, LayerRun *runs) const
{
    const size_t lanes = ins.size();
    constexpr size_t kPass = TallyScratch::kPassNeurons;
    constexpr size_t kGroupsPerPass = kPass / simd::kTallyGroup;
    const size_t outCount = layer.outCount;
    const size_t groups = ctx.tallyStride() / simd::kTallyGroup;
    for (size_t L = 0; L < lanes; ++L) {
        runs[L].reset();
        runs[L].output.shape = {outCount};
        if (!layer.outputEncoder.empty()) {
            runs[L].output.codes = ws.takeCodes();
            runs[L].output.codes.assign(outCount, 0);
        }
        if (lastCompute) {
            runs[L].raw = ws.takeRaw();
            runs[L].raw.assign(outCount, 0.0);
        }
    }

    // Group every lane's fan-in by input code once; all neurons of the
    // layer share the grouping.
    if (ws.inputs.size() < lanes)
        ws.inputs.resize(lanes);
    for (size_t L = 0; L < lanes; ++L)
        ws.inputs[L].build(ins[L].codes.data(), layer.inCount,
                           layer.inputEntries());
    const bool hasAct = ctx.hasActivation();
    const bool hasEnc = ctx.hasEncoder();
    const nvm::OpCost actQ =
        hasAct ? ctx.activationQueryCost() : nvm::OpCost{};
    const nvm::OpCost encQ =
        hasEnc ? ctx.encodingQueryCost() : nvm::OpCost{};

    // Costs of neuron j, lane L are added to the lane's totals in
    // increasing j (the reference walk's order, so the sums are
    // bitwise identical); stageCycles holds the lane's worst neuron
    // until the wave count scales it below.
    auto reduce = [&](size_t L, const nvm::OpCost &wa) {
        runs[L].cost.weightedAccum += wa;
        if (hasAct)
            runs[L].cost.activation += actQ;
        if (hasEnc)
            runs[L].cost.encoding += encQ;
        runs[L].stageCycles = std::max(
            runs[L].stageCycles, wa.cycles + actQ.cycles + encQ.cycles);
    };

    // One pass: up to 8 groups (a cache line of each weight row, hot
    // across the lanes) tallied for every lane, turned into values and
    // costs in neuron order, then one activation/encoding batch lookup
    // over the pass's (neuron x lane) slots.
    TallyScratch &st = ws.tally;
    st.ensure(lanes * kPass);
    ws.valsB.ensure(lanes * kPass);
    ws.codesB.ensure(lanes * kPass);
    ws.amKeys.ensure(lanes * kPass);
    ws.amRows.ensure(lanes * kPass);
    for (size_t g = 0; g < groups; g += kGroupsPerPass) {
        const size_t gEnd = std::min(groups, g + kGroupsPerPass);
        for (size_t L = 0; L < lanes; ++L)
            ctx.tally(ws.inputs[L], g, gEnd, st.sums.data() + L * kPass,
                      st.distinct.data() + L * kPass,
                      st.addends.data() + L * kPass);
        const size_t begin = g * simd::kTallyGroup;
        const size_t n =
            std::min(outCount, gEnd * simd::kTallyGroup) - begin;
        for (size_t k = 0; k < n; ++k) {
            const size_t j = begin + k;
            for (size_t L = 0; L < lanes; ++L) {
                const size_t at = L * kPass + k;
                const AccumResult a = ctx.tallyResult(
                    j, st.sums[at], st.distinct[at], st.addends[at],
                    layer.inCount, ctx.countingCycles(j), ws.accum);
                ws.valsB[k * lanes + L] = a.value;
                reduce(L, a.cost.total());
            }
        }
        double *vals = ws.valsB.data();
        ctx.activateBatch(vals, vals, n * lanes, ws.amKeys.data(),
                          ws.amRows.data());
        if (hasEnc) {
            ctx.encodeBatch(vals, n * lanes, ws.amKeys.data(),
                            ws.amRows.data(), ws.codesB.data());
            for (size_t k = 0; k < n; ++k)
                for (size_t L = 0; L < lanes; ++L)
                    runs[L].output.codes[begin + k] =
                        ws.codesB[k * lanes + L];
        }
        if (lastCompute)
            for (size_t k = 0; k < n; ++k)
                for (size_t L = 0; L < lanes; ++L)
                    runs[L].raw[begin + k] = vals[k * lanes + L];
    }
    const size_t waves = rnaWaves(_config, outCount);
    for (size_t L = 0; L < lanes; ++L)
        runs[L].stageCycles *= waves;
}

void
Chip::runConvTally(const RLayer &layer, const RnaLayerContext &ctx,
                   std::span<const EncodedTensor> ins, bool lastCompute,
                   Workspace &ws, LayerRun *runs) const
{
    // Position-major: at each output position every lane groups its
    // window by input code once and tallies all output channels over
    // it. The counting cycles depend only on the (clipped) weight
    // window, so the plan keeps them for every lane and call.
    const size_t lanes = ins.size();
    RAPIDNN_ASSERT(ins[0].shape.size() == 3, "conv needs [C, H, W]");
    const size_t inC = ins[0].shape[0];
    const size_t h = ins[0].shape[1], w = ins[0].shape[2];
    const size_t k = layer.kernel;
    const size_t oh = layer.samePadding ? h : h - k + 1;
    const size_t ow = layer.samePadding ? w : w - k + 1;
    ConvGatherPlan *plan = &ws.convPlans[_contexts->byLayer.at(&layer)];
    if (!plan->matches(inC, h, w))
        buildConvGatherPlan(*plan, layer, inC, h, w);

    const size_t positions = oh * ow;
    const size_t flatNeurons = layer.outCount * positions;
    const size_t groups = ctx.tallyStride() / simd::kTallyGroup;
    if (plan->counting.empty())
        plan->counting = ctx.windowCountingCycles(*plan);
    for (size_t L = 0; L < lanes; ++L) {
        runs[L].reset();
        runs[L].output.shape = {layer.outCount, oh, ow};
        if (!layer.outputEncoder.empty()) {
            runs[L].output.codes = ws.takeCodes();
            runs[L].output.codes.assign(flatNeurons, 0);
        }
        if (lastCompute) {
            runs[L].raw = ws.takeRaw();
            runs[L].raw.assign(flatNeurons, 0.0);
        }
    }
    ws.valsB.ensure(lanes * flatNeurons);
    ws.codesB.ensure(lanes * flatNeurons);
    ws.amKeys.ensure(lanes * positions);
    ws.amRows.ensure(lanes * positions);
    if (ws.accumCostB.size() < lanes * flatNeurons)
        ws.accumCostB.resize(lanes * flatNeurons);
    TallyScratch &st = ws.tally;
    st.ensure(ctx.tallyStride());
    if (ws.inputs.empty())
        ws.inputs.resize(1);
    InputBuckets &window = ws.inputs[0];

    for (size_t p = 0; p < positions; ++p) {
        const uint32_t s0 = plan->start[p];
        const size_t n = plan->start[p + 1] - s0;
        const uint32_t *counting = plan->counting.data() + p * layer.outCount;
        for (size_t L = 0; L < lanes; ++L) {
            window.build(ins[L].codes.data(), plan->inputIdx.data() + s0,
                         plan->weightIdx.data() + s0, n,
                         layer.inputEntries());
            ctx.tally(window, 0, groups, st.sums.data(),
                      st.distinct.data(), st.addends.data());
            for (size_t oc = 0; oc < layer.outCount; ++oc) {
                const AccumResult a = ctx.tallyResult(
                    oc, st.sums[oc], st.distinct[oc], st.addends[oc], n,
                    counting[oc], ws.accum);
                const size_t slot = (oc * positions + p) * lanes + L;
                ws.valsB[slot] = a.value;
                ws.accumCostB[slot] = a.cost.total();
            }
        }
    }
    const bool hasAct = ctx.hasActivation();
    const bool hasEnc = ctx.hasEncoder();
    for (size_t oc = 0; oc < layer.outCount; ++oc) {
        // Slots for one channel span a contiguous (position x lane)
        // range in the neuron-major layout: one AM batch call per
        // channel covers every lane.
        const size_t base = oc * positions * lanes;
        const size_t nb = positions * lanes;
        double *vals = ws.valsB.data() + base;
        ctx.activateBatch(vals, vals, nb, ws.amKeys.data(),
                          ws.amRows.data());
        if (hasEnc)
            ctx.encodeBatch(vals, nb, ws.amKeys.data(), ws.amRows.data(),
                            ws.codesB.data() + base);
    }
    for (size_t L = 0; L < lanes; ++L) {
        if (hasEnc)
            for (size_t oidx = 0; oidx < flatNeurons; ++oidx)
                runs[L].output.codes[oidx] = ws.codesB[oidx * lanes + L];
        if (lastCompute)
            for (size_t oidx = 0; oidx < flatNeurons; ++oidx)
                runs[L].raw[oidx] = ws.valsB[oidx * lanes + L];
    }
    // Per-lane flat reduction with the per-layer-constant AM query
    // costs re-added per neuron, exactly as the dense path above.
    const nvm::OpCost actQ =
        hasAct ? ctx.activationQueryCost() : nvm::OpCost{};
    const nvm::OpCost encQ =
        hasEnc ? ctx.encodingQueryCost() : nvm::OpCost{};
    const size_t waves = rnaWaves(_config, flatNeurons);
    for (size_t L = 0; L < lanes; ++L) {
        uint64_t worstNeuron = 0;
        for (size_t oidx = 0; oidx < flatNeurons; ++oidx) {
            const nvm::OpCost &wa = ws.accumCostB[oidx * lanes + L];
            runs[L].cost.weightedAccum += wa;
            if (hasAct)
                runs[L].cost.activation += actQ;
            if (hasEnc)
                runs[L].cost.encoding += encQ;
            worstNeuron = std::max(worstNeuron,
                                   wa.cycles + actQ.cycles + encQ.cycles);
        }
        runs[L].stageCycles = worstNeuron * waves;
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
    const bool last = layer.outputEncoder.empty();

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
        run.stageCycles = stepWorst;
        run.output.shape = {hidden};
        if (lastCompute) {
            run.raw = ws.takeRaw();
            run.raw.assign(ws.hRaw.begin(), ws.hRaw.end());
        }
        if (!last) {
            // Re-encode the final state for the consumer layer.
            run.output.codes = ws.takeCodes();
            run.output.codes.assign(hidden, 0);
            for (size_t hn = 0; hn < hidden; ++hn)
                run.output.codes[hn] = static_cast<uint16_t>(
                    layer.outputEncoder.encode(ws.hRaw[hn]));
            nvm::OpCost encodeCost;
            encodeCost += _config.cost.camSearch(
                layer.outputEncoder.entries(), 32);
            run.cost.encoding += encodeCost;
        }
    }
}

void
Chip::runLayerBatch(const RLayer &layer,
                    std::span<const EncodedTensor> ins,
                    bool lastCompute, Workspace &ws,
                    std::span<LayerRun> runs) const
{
    const size_t lanes = ins.size();
    // Lanes of one batch share a layer's shape-dependent work, so a
    // mixed-shape batch runs as batches of one.
    bool sameShape = true;
    for (size_t L = 1; L < lanes; ++L)
        sameShape = sameShape && ins[L].shape == ins[0].shape
                 && ins[L].codes.size() == ins[0].codes.size();
    if (!sameShape) {
        for (size_t L = 0; L < lanes; ++L)
            runLayerBatch(layer, ins.subspan(L, 1), lastCompute, ws,
                          runs.subspan(L, 1));
        return;
    }

    // The reference walk (fastPath = false, weight codebooks that do
    // not pack) and the pool and flatten layers run one lane at a time.
    auto perLane = [&] {
        for (size_t L = 0; L < lanes; ++L)
            runLayer(layer, ins[L], lastCompute, ws, runs[L]);
    };

    switch (layer.kind) {
      case RLayerKind::Dense:
      case RLayerKind::Conv:
      case RLayerKind::Recurrent: {
        const RnaLayerContext &ctx =
            *_contexts->contexts[_contexts->byLayer.at(&layer)];
        if (!(_config.fastPath && ctx.hasTally())) {
            perLane();
        } else if (layer.kind == RLayerKind::Dense) {
            runDenseTally(layer, ctx, ins, lastCompute, ws, runs.data());
        } else if (layer.kind == RLayerKind::Conv) {
            runConvTally(layer, ctx, ins, lastCompute, ws, runs.data());
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
        for (size_t L = 0; L < lanes; ++L) {
            values[L].shape = ins[L].shape;
            values[L].codes = ws.takeCodes();
            values[L].codes.assign(ins[L].codes.begin(),
                                   ins[L].codes.end());
            runs[L].reset();
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
                    block.innerRaws[L] = std::move(innerRuns[L].raw);
                advanceLane(values[L], innerRuns[L], ws);
            }
        }
        --ws.residualDepth;
        for (size_t L = 0; L < lanes; ++L)
            ws.giveCodes(std::move(values[L].codes));

        AccumFormat format;
        const nvm::CostModel &m = _config.cost;
        const bool last = layer.outputEncoder.empty();
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

            runs[L].output.shape = in.shape;
            if (!last) {
                runs[L].output.codes = ws.takeCodes();
                runs[L].output.codes.assign(innerRaw.size(), 0);
            }
            if (lastCompute) {
                runs[L].raw = ws.takeRaw();
                runs[L].raw.assign(innerRaw.size(), 0.0);
            }
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
            ws.giveRaw(std::move(innerRaw));
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

    // Lease the shared workspace for this call; concurrent callers on
    // the same chip fall back to private spares (see WorkspaceLease).
    WorkspaceLease lease(_workspace.get());
    Workspace &ws = lease.get();
    if (ws.convPlans.size() < _contexts->contexts.size())
        ws.convPlans.resize(_contexts->contexts.size());
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
        RAPIDNN_TELEMETRY_STAGE("encoding",
                                stageHistogram("encoding"));
        for (size_t L = 0; L < lanes; ++L) {
            const nn::Tensor &x = inputs[L];
            encs[L].shape = x.shape();
            encs[L].codes = ws.takeCodes();
            encs[L].codes.assign(x.numel(), 0);
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

    size_t lastCompute = model.layers().size();
    for (size_t l = model.layers().size(); l-- > 0;) {
        const RLayerKind kind = model.layers()[l].kind;
        if (kind == RLayerKind::Dense || kind == RLayerKind::Conv ||
            kind == RLayerKind::Residual ||
            kind == RLayerKind::Recurrent) {
            lastCompute = l;
            break;
        }
    }

    for (size_t l = 0; l < model.layers().size(); ++l) {
        const RLayer &layer = model.layers()[l];
        {
            const char *stage = stageName(layer.kind);
            RAPIDNN_TELEMETRY_SPAN(stage, static_cast<int64_t>(l), 0,
                                   stageHistogram(stage));
            runLayerBatch(layer, encs, l == lastCompute, ws, runs);
        }
        for (size_t L = 0; L < lanes; ++L) {
            tallyLayerRun(ws.tallies[L], runs[L], layer,
                          l == lastCompute);
            if (l == lastCompute)
                logits[L] = std::move(runs[L].raw);
            advanceLane(encs[L], runs[L], ws);
        }
    }
    for (size_t L = 0; L < lanes; ++L) {
        ws.giveCodes(std::move(encs[L].codes));
        finalizeReport(ws.tallies[L], logits[L].size(), reports[L]);
    }
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
