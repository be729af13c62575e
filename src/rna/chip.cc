#include "rna/chip.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/check.hh"
#include "common/sync.hh"
#include "common/task_pool.hh"
#include "nvm/data_block.hh"
#include "rna/kernels/kernels.hh"
#include "telemetry/telemetry.hh"

namespace rapidnn::rna {

using composer::EncodedTensor;
using composer::RLayer;
using composer::RLayerKind;

namespace {

/**
 * Fixed intra-op shard grid. The grid is a constant — never derived
 * from the thread count — so the shard boundaries, per-shard work and
 * the post-shard reduction order are identical no matter how many pool
 * lanes end up executing them. 32 shards keeps dynamic work stealing
 * balanced up to well past 8 lanes while the per-shard claim stays one
 * atomic increment.
 */
constexpr size_t kIntraOpShardGrid = 32;

size_t
shardCount(size_t items)
{
    return std::min(items, kIntraOpShardGrid);
}

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

/** Contiguous item range [begin, end) of one shard. */
std::pair<size_t, size_t>
shardRange(size_t items, size_t shard, size_t shards)
{
    return {items * shard / shards, items * (shard + 1) / shards};
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
               std::string("variant=\"")
                   + (_kops ? _kops->name : "off") + "\"")
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
    for (const auto &ctx : ctxs)
        ctx->prepareWorkspace(ws);

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
    if (!shape.empty()) {
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
                    const size_t win =
                        layer.poolWindow * layer.poolWindow;
                    if (ws.gatherX.size() < win)
                        ws.gatherX.resize(win);
                }
            });
        // Kernel-path buffers scale with the widest activation tensor;
        // warm them now so steady-state inference never grows one
        // (growth would also discard AlignedVec contents).
        if (_kops != nullptr) {
            ws.act8.ensure(maxElems);
            ws.h8.ensure(maxElems);
            ws.vals.ensure(maxElems);
            ws.amKeys.ensure(maxElems);
            ws.amRows.ensure(maxElems);
        }
        // Batch-strided arenas for inferBatch, sized for maxBatch
        // lanes (batch 1 leaves them empty; larger batches grow them
        // on first use). The pools below also scale with maxBatch so
        // a whole batch's activation tensors recycle without growth.
        const size_t mb = std::max<size_t>(1, _config.maxBatch);
        if (_kops != nullptr && mb > 1) {
            size_t maxFanIn = 1;
            size_t maxHidden = 0;
            size_t windowMax = 0;
            for (const auto &ctx : ctxs) {
                const RLayer &layer = ctx->layer();
                if (layer.kind == RLayerKind::Conv) {
                    windowMax = std::max(windowMax,
                                         layer.weightCodes[0].size());
                    maxFanIn = std::max(maxFanIn,
                                        layer.weightCodes[0].size());
                } else {
                    maxFanIn = std::max(maxFanIn, layer.inCount);
                }
                if (layer.kind == RLayerKind::Recurrent) {
                    maxHidden = std::max(maxHidden, layer.outCount);
                    maxFanIn = std::max(maxFanIn, layer.outCount);
                }
            }
            ws.actB8.ensure(mb * maxElems);
            ws.valsB.ensure(mb * maxElems);
            ws.codesB.ensure(mb * maxElems);
            ws.keysB.ensure(mb * maxFanIn);
            ws.amKeys.ensure(mb * maxElems);
            ws.amRows.ensure(mb * maxElems);
            ws.neuronCostsB.resize(mb * maxElems);
            if (windowMax > 0)
                ws.gx8B.ensure(mb * windowMax);
            if (maxHidden > 0) {
                ws.h8B.ensure(mb * maxHidden);
                ws.keysHB.ensure(mb * maxFanIn);
                ws.hCodesB.reserve(mb * maxHidden);
                ws.hNextB.reserve(mb * maxHidden);
                ws.hRawB.reserve(mb * maxHidden);
                ws.hRawNextB.reserve(mb * maxHidden);
            }
            ws.lanePtrsX.reserve(mb);
            ws.lanePtrsH.reserve(mb);
            ws.stepWorstB.reserve(mb);
        }
        // Dense-tally buffers (runDenseTally) for up to maxBatch
        // lanes; single samples use lane 0.
        size_t maxIn = 0, maxCodes = 0;
        for (const auto &ctx : ctxs) {
            if (!ctx->hasDenseRows())
                continue;
            maxIn = std::max(maxIn, ctx->layer().inCount);
            maxCodes = std::max(maxCodes, ctx->layer().inputEntries());
        }
        if (maxIn > 0) {
            ws.denseInputs.resize(mb);
            for (InputBuckets &b : ws.denseInputs)
                b.reserve(maxIn, maxCodes);
            ws.laneCodes.reserve(mb);
            ws.dense.ensure(mb);
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

    // Intra-op lanes: one private scratch slice per pool lane, sized
    // now so sharded inference stays allocation-free. Per-neuron cost
    // slots for conv layers grow on the first infer (output H/W are
    // unknown until then), like the conv gather plans.
    if (_config.numThreads > 1) {
        ws.ensureLanes(_config.numThreads);
        size_t maxNeurons = 1;
        for (const auto &ctx : ctxs) {
            for (auto &lane : ws.lanes)
                ctx->prepareScratch(lane);
            maxNeurons = std::max(maxNeurons, ctx->layer().outCount);
        }
        ws.neuronCosts.resize(maxNeurons);
    }
}

Chip
Chip::clone() const
{
    // Replicas share the immutable layer contexts (product tables, AM
    // blocks, transposed columns) and only build a private workspace:
    // instantiation cost is O(activation buffers), not O(model).
    Chip replica(_config);
    replica._model = _model;
    replica._kops = _kops;
    replica._contexts = _contexts;
    if (_contexts != nullptr)
        replica.buildWorkspace();
    return replica;
}

Chip::LayerRun
Chip::runLayer(const RLayer &layer, const EncodedTensor &in,
               bool lastCompute, Workspace &ws, size_t threads) const
{
    LayerRun run{};
    run.stageCycles = 0;
    // Only the fast path shards; the reference path stays serial as
    // the bitwise comparison baseline.
    const bool intraOp = threads > 1 && _config.fastPath;

    switch (layer.kind) {
      case RLayerKind::Dense: {
        const RnaLayerContext &ctx =
            *_contexts->contexts[_contexts->byLayer.at(&layer)];
        if (_kops != nullptr && _config.fastPath && ctx.hasDenseRows()) {
            const uint16_t *codes = in.codes.data();
            runDenseTally(layer, ctx, &codes, 1, lastCompute, ws, threads,
                          &run);
            break;
        }
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
        if (intraOp) {
            // Shard the output-neuron loop over the fixed grid. Each
            // shard writes disjoint code/raw/cost slots with its
            // lane's private scratch; the flat reduction below then
            // replays the serial accumulation order exactly.
            ws.ensureLanes(threads);
            if (ws.neuronCosts.size() < layer.outCount)
                ws.neuronCosts.resize(layer.outCount);
            const size_t shards = shardCount(layer.outCount);
            TaskPool::shared().run(
                shards, threads, [&](size_t shard, size_t lane) {
                    const auto [begin, end] =
                        shardRange(layer.outCount, shard, shards);
                    AccumScratch &scratch = ws.lanes[lane].accum;
                    for (size_t j = begin; j < end; ++j) {
                        NeuronResult r = ctx.evaluateFast(
                            0, ctx.denseColumn(j), in.codes.data(),
                            layer.inCount, layer.bias[j], scratch);
                        ws.neuronCosts[j] = r.cost;
                        if (r.encoded)
                            run.output.codes[j] = r.code;
                        if (lastCompute)
                            run.raw[j] = r.rawValue;
                    }
                });
            for (size_t j = 0; j < layer.outCount; ++j) {
                run.cost += ws.neuronCosts[j];
                worstNeuron = std::max(
                    worstNeuron, ws.neuronCosts[j].total().cycles);
            }
        } else {
        std::vector<uint16_t> wcol;
        if (!_config.fastPath)
            wcol.resize(layer.inCount);
        for (size_t j = 0; j < layer.outCount; ++j) {
            NeuronResult r;
            if (_config.fastPath) {
                // Transposed columns + direct input view: no gather,
                // no allocation.
                r = ctx.evaluateFast(0, ctx.denseColumn(j),
                                     in.codes.data(), layer.inCount,
                                     layer.bias[j], ws.accum);
            } else {
                for (size_t i = 0; i < layer.inCount; ++i)
                    wcol[i] = codes[i * layer.outCount + j];
                r = ctx.evaluate(0, wcol, in.codes, layer.bias[j]);
            }
            run.cost += r.cost;
            worstNeuron = std::max(worstNeuron, r.cost.total().cycles);
            if (r.encoded)
                run.output.codes[j] = r.code;
            if (lastCompute)
                run.raw[j] = r.rawValue;
        }
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

        // Fast path: the receptive-field gather per output position is
        // compiled once per input shape into flat index maps, then the
        // hot loop is two indexed copies plus the engine run. Plans for
        // the canonical input shape are pre-installed at configure
        // time (precomputed ones straight out of the model blob).
        ConvGatherPlan *plan = nullptr;
        if (_config.fastPath) {
            plan = &ws.convPlans[_contexts->byLayer.at(&layer)];
            if (!plan->matches(inC, h, w))
                buildConvGatherPlan(*plan, layer, inC, h, w);
            const size_t windowMax = layer.weightCodes[0].size();
            if (ws.gatherW.size() < windowMax)
                ws.gatherW.resize(windowMax);
            if (ws.gatherX.size() < windowMax)
                ws.gatherX.resize(windowMax);
        }

        uint64_t worstNeuron = 0;
        const size_t flatNeurons = layer.outCount * oh * ow;
        const size_t positions = oh * ow;
        // Conv kernel path needs the compiled plan and packed codes
        // (conv codebooks are small in practice; 16-bit layers fall
        // back to the scalar gather loops).
        const bool kernel =
            _kops != nullptr && plan != nullptr && ctx.packed();
        const size_t fullWindow = layer.inCount;  // inC * k * k
        if (kernel && !intraOp) {
            // Position-major phase A: narrow the input map to uint8
            // once, then for each output position gather its window a
            // single time and sweep every output channel over it —
            // interior (unclipped) windows use the channel's packed
            // weights directly because their weight-index map is the
            // identity. Phases B/C then batch the AM lookups per
            // channel over the contiguous position range. The flat
            // (oc, p) cost reduction below replays the serial
            // accumulation order, so results stay bitwise identical.
            ws.act8.ensure(in.codes.size());
            _kops->narrow(in.codes.data(), in.codes.size(),
                          ws.act8.data());
            const size_t windowMax = layer.weightCodes[0].size();
            ws.gx8.ensure(windowMax);
            ws.gw8.ensure(windowMax);
            ws.vals.ensure(flatNeurons);
            ws.amKeys.ensure(positions);
            ws.amRows.ensure(positions);
            if (ws.neuronCosts.size() < flatNeurons)
                ws.neuronCosts.resize(flatNeurons);
            for (size_t p = 0; p < positions; ++p) {
                const uint32_t s0 = plan->start[p];
                const size_t n = plan->start[p + 1] - s0;
                _kops->gather8(ws.act8.data(),
                               plan->inputIdx.data() + s0, n,
                               ws.gx8.data());
                for (size_t oc = 0; oc < layer.outCount; ++oc) {
                    const uint8_t *wp = ctx.convChannel8(oc);
                    if (n != fullWindow) {
                        for (size_t s = 0; s < n; ++s)
                            ws.gw8[s] = wp[plan->weightIdx[s0 + s]];
                        wp = ws.gw8.data();
                    }
                    const AccumResult a = ctx.accumulatePacked(
                        oc, wp, ws.gx8.data(), n, layer.bias[oc],
                        ws.accum);
                    const size_t oidx = oc * positions + p;
                    ws.vals[oidx] = a.value;
                    ws.neuronCosts[oidx] = NeuronCost{};
                    ws.neuronCosts[oidx].weightedAccum = a.cost.total();
                }
            }
            for (size_t oc = 0; oc < layer.outCount; ++oc) {
                double *vals = ws.vals.data() + oc * positions;
                ctx.activateBatch(vals, vals, positions,
                                  ws.amKeys.data(), ws.amRows.data());
                if (ctx.hasActivation())
                    for (size_t p = 0; p < positions; ++p)
                        ws.neuronCosts[oc * positions + p].activation +=
                            ctx.activationQueryCost();
                if (ctx.hasEncoder()) {
                    ctx.encodeBatch(
                        vals, positions, ws.amKeys.data(),
                        ws.amRows.data(),
                        run.output.codes.data() + oc * positions);
                    for (size_t p = 0; p < positions; ++p)
                        ws.neuronCosts[oc * positions + p].encoding +=
                            ctx.encodingQueryCost();
                }
                if (lastCompute)
                    for (size_t p = 0; p < positions; ++p)
                        run.raw[oc * positions + p] = vals[p];
            }
            for (size_t oidx = 0; oidx < flatNeurons; ++oidx) {
                run.cost += ws.neuronCosts[oidx];
                worstNeuron = std::max(
                    worstNeuron, ws.neuronCosts[oidx].total().cycles);
            }
        } else if (kernel) {
            // Sharded kernel path keeps the per-neuron shape (shards
            // split the flat (oc, y, x) grid, so position-major
            // batching would straddle shard boundaries); each lane
            // gathers packed windows into private aligned buffers.
            ws.act8.ensure(in.codes.size());
            _kops->narrow(in.codes.data(), in.codes.size(),
                          ws.act8.data());
            ws.ensureLanes(threads);
            if (ws.neuronCosts.size() < flatNeurons)
                ws.neuronCosts.resize(flatNeurons);
            const size_t windowMax = layer.weightCodes[0].size();
            for (auto &lane : ws.lanes) {
                lane.gx8.ensure(windowMax);
                lane.gw8.ensure(windowMax);
            }
            const size_t shards = shardCount(flatNeurons);
            TaskPool::shared().run(
                shards, threads, [&](size_t shard, size_t lane) {
                    const auto [begin, end] =
                        shardRange(flatNeurons, shard, shards);
                    IntraOpScratch &sc = ws.lanes[lane];
                    for (size_t oidx = begin; oidx < end; ++oidx) {
                        const size_t oc = oidx / positions;
                        const size_t p = oidx % positions;
                        const uint32_t s0 = plan->start[p];
                        const size_t n = plan->start[p + 1] - s0;
                        _kops->gather8(ws.act8.data(),
                                       plan->inputIdx.data() + s0, n,
                                       sc.gx8.data());
                        const uint8_t *wp = ctx.convChannel8(oc);
                        if (n != fullWindow) {
                            for (size_t s = 0; s < n; ++s)
                                sc.gw8[s] =
                                    wp[plan->weightIdx[s0 + s]];
                            wp = sc.gw8.data();
                        }
                        NeuronResult r = ctx.evaluatePacked(
                            oc, wp, sc.gx8.data(), n, layer.bias[oc],
                            sc.accum);
                        ws.neuronCosts[oidx] = r.cost;
                        if (r.encoded)
                            run.output.codes[oidx] = r.code;
                        if (lastCompute)
                            run.raw[oidx] = r.rawValue;
                    }
                });
            for (size_t oidx = 0; oidx < flatNeurons; ++oidx) {
                run.cost += ws.neuronCosts[oidx];
                worstNeuron = std::max(
                    worstNeuron, ws.neuronCosts[oidx].total().cycles);
            }
        } else if (intraOp) {
            // Shard over the flat neuron index (oc, y, x) so narrow
            // feature maps still spread across lanes. Each shard's
            // lane gathers into private buffers and writes disjoint
            // code/raw/cost slots; the flat reduction below replays
            // the serial (oc, y, x) accumulation order exactly.
            ws.ensureLanes(threads);
            if (ws.neuronCosts.size() < flatNeurons)
                ws.neuronCosts.resize(flatNeurons);
            const size_t windowMax = layer.weightCodes[0].size();
            for (auto &lane : ws.lanes) {
                if (lane.gatherW.size() < windowMax)
                    lane.gatherW.resize(windowMax);
                if (lane.gatherX.size() < windowMax)
                    lane.gatherX.resize(windowMax);
            }
            const size_t shards = shardCount(flatNeurons);
            TaskPool::shared().run(
                shards, threads, [&](size_t shard, size_t lane) {
                    const auto [begin, end] =
                        shardRange(flatNeurons, shard, shards);
                    IntraOpScratch &sc = ws.lanes[lane];
                    for (size_t oidx = begin; oidx < end; ++oidx) {
                        const size_t oc = oidx / (oh * ow);
                        const size_t p = oidx % (oh * ow);
                        const auto &codes = layer.weightCodes[oc];
                        const uint32_t s0 = plan->start[p];
                        const size_t n = plan->start[p + 1] - s0;
                        for (size_t s = 0; s < n; ++s) {
                            sc.gatherW[s] =
                                codes[plan->weightIdx[s0 + s]];
                            sc.gatherX[s] =
                                in.codes[plan->inputIdx[s0 + s]];
                        }
                        NeuronResult r = ctx.evaluateFast(
                            oc, sc.gatherW.data(), sc.gatherX.data(),
                            n, layer.bias[oc], sc.accum);
                        ws.neuronCosts[oidx] = r.cost;
                        if (r.encoded)
                            run.output.codes[oidx] = r.code;
                        if (lastCompute)
                            run.raw[oidx] = r.rawValue;
                    }
                });
            for (size_t oidx = 0; oidx < flatNeurons; ++oidx) {
                run.cost += ws.neuronCosts[oidx];
                worstNeuron = std::max(
                    worstNeuron, ws.neuronCosts[oidx].total().cycles);
            }
        } else {
        std::vector<uint16_t> wcodes, xcodes;
        for (size_t oc = 0; oc < layer.outCount; ++oc) {
            const auto &codes = layer.weightCodes[oc];
            for (size_t y = 0; y < oh; ++y) {
                for (size_t x = 0; x < ow; ++x) {
                    NeuronResult r;
                    if (plan != nullptr) {
                        const size_t p = y * ow + x;
                        const uint32_t s0 = plan->start[p];
                        const size_t n = plan->start[p + 1] - s0;
                        for (size_t s = 0; s < n; ++s) {
                            ws.gatherW[s] =
                                codes[plan->weightIdx[s0 + s]];
                            ws.gatherX[s] =
                                in.codes[plan->inputIdx[s0 + s]];
                        }
                        r = ctx.evaluateFast(oc, ws.gatherW.data(),
                                             ws.gatherX.data(), n,
                                             layer.bias[oc], ws.accum);
                    } else {
                        wcodes.clear();
                        xcodes.clear();
                        for (size_t ic = 0; ic < inC; ++ic)
                            for (size_t ky = 0; ky < k; ++ky) {
                                const long iy =
                                    long(y) + long(ky) + off;
                                if (iy < 0 || iy >= long(h))
                                    continue;
                                for (size_t kx = 0; kx < k; ++kx) {
                                    const long ix =
                                        long(x) + long(kx) + off;
                                    if (ix < 0 || ix >= long(w))
                                        continue;
                                    wcodes.push_back(
                                        codes[(ic * k + ky) * k + kx]);
                                    xcodes.push_back(
                                        in.codes[(ic * h + size_t(iy))
                                                 * w + size_t(ix)]);
                                }
                            }
                        r = ctx.evaluate(oc, wcodes, xcodes,
                                         layer.bias[oc]);
                    }
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
        }
        const double effective =
            static_cast<double>(_config.totalRnas())
            * (1.0 - _config.rnaSharing);
        const size_t waves = static_cast<size_t>(std::ceil(
            static_cast<double>(flatNeurons)
            / std::max(1.0, effective)));
        run.stageCycles = worstNeuron * waves;
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
        // Fast path gathers windows into the workspace buffer (sized at
        // configure time); the reference path keeps its own vector as
        // the allocation baseline.
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
                    // Fast path skips the per-window Ndcam object but
                    // charges the identical load + MAX-search cost.
                    run.output.codes[(c * oh + y) * ow + x] =
                        _config.fastPath
                            ? RnaLayerContext::poolMaxFast(
                                  window, win * win,
                                  _config.cost, one, _kops)
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
                    // Fast path reuses the workspace addend buffer
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

        std::vector<double> hRawLocal;
        uint64_t stepWorst = 0;
        // Recurrent kernel path: both operand paths must pack (the
        // feedback codebook too). The whole input sequence narrows to
        // uint8 once; the hidden state re-narrows per step (it is
        // rewritten by the step swap).
        const bool kernel = _kops != nullptr && _config.fastPath &&
                            ctx.packedRecurrent();
        if (kernel) {
            ws.act8.ensure(in.codes.size());
            _kops->narrow(in.codes.data(), in.codes.size(),
                          ws.act8.data());
            ws.h8.ensure(hidden);
        }
        if (intraOp) {
            // Steps stay serial (the feedback hazard); within a step
            // the hidden-neuron loop shards over the fixed grid. Each
            // shard reads the frozen previous-state buffer and writes
            // disjoint hNext/hRawNext/cost slots; the per-step flat
            // reduction replays the serial order.
            ws.ensureLanes(threads);
            if (ws.neuronCosts.size() < hidden)
                ws.neuronCosts.resize(hidden);
            ws.hCodes.assign(hidden, zeroCode);
            ws.hRaw.assign(hidden, 0.0);
            ws.hNext.resize(hidden);
            ws.hRawNext.resize(hidden);
            const size_t shards = shardCount(hidden);
            for (size_t t = 0; t < layer.steps; ++t) {
                const uint16_t *xStep = in.codes.data() + t * features;
                const uint8_t *xStep8 = nullptr;
                if (kernel) {
                    // Serial per-step narrow of the frozen previous
                    // state, before the parallel region.
                    _kops->narrow(ws.hCodes.data(), hidden,
                                  ws.h8.data());
                    xStep8 = ws.act8.data() + t * features;
                }
                TaskPool::shared().run(
                    shards, threads, [&](size_t shard, size_t lane) {
                        const auto [begin, end] =
                            shardRange(hidden, shard, shards);
                        AccumScratch &scratch = ws.lanes[lane].accum;
                        for (size_t h = begin; h < end; ++h) {
                            NeuronResult r =
                                kernel
                                    ? ctx.evaluateRecurrentStepPacked(
                                          ctx.recurrentXColumn8(h),
                                          xStep8, features,
                                          ctx.recurrentHColumn8(h),
                                          ws.h8.data(), hidden,
                                          layer.bias[h], scratch)
                                    : ctx.evaluateRecurrentStepFast(
                                          ctx.recurrentXColumn(h),
                                          xStep, features,
                                          ctx.recurrentHColumn(h),
                                          ws.hCodes.data(), hidden,
                                          layer.bias[h], scratch);
                            ws.neuronCosts[h] = r.cost;
                            ws.hNext[h] = r.code;
                            ws.hRawNext[h] = r.rawValue;
                        }
                    });
                uint64_t worstNeuron = 0;
                for (size_t h = 0; h < hidden; ++h) {
                    run.cost += ws.neuronCosts[h];
                    worstNeuron = std::max(
                        worstNeuron, ws.neuronCosts[h].total().cycles);
                }
                stepWorst += worstNeuron;
                std::swap(ws.hCodes, ws.hNext);
                std::swap(ws.hRaw, ws.hRawNext);
            }
        } else if (_config.fastPath) {
            // Transposed weight columns, direct step views into the
            // input codes, and double-buffered hidden state: the step
            // loop allocates nothing.
            ws.hCodes.assign(hidden, zeroCode);
            ws.hRaw.assign(hidden, 0.0);
            ws.hNext.resize(hidden);
            ws.hRawNext.resize(hidden);
            for (size_t t = 0; t < layer.steps; ++t) {
                const uint16_t *xStep = in.codes.data() + t * features;
                const uint8_t *xStep8 = nullptr;
                if (kernel) {
                    _kops->narrow(ws.hCodes.data(), hidden,
                                  ws.h8.data());
                    xStep8 = ws.act8.data() + t * features;
                }
                uint64_t worstNeuron = 0;
                for (size_t h = 0; h < hidden; ++h) {
                    NeuronResult r =
                        kernel ? ctx.evaluateRecurrentStepPacked(
                                     ctx.recurrentXColumn8(h), xStep8,
                                     features,
                                     ctx.recurrentHColumn8(h),
                                     ws.h8.data(), hidden,
                                     layer.bias[h], ws.accum)
                               : ctx.evaluateRecurrentStepFast(
                                     ctx.recurrentXColumn(h), xStep,
                                     features,
                                     ctx.recurrentHColumn(h),
                                     ws.hCodes.data(), hidden,
                                     layer.bias[h], ws.accum);
                    run.cost += r.cost;
                    worstNeuron =
                        std::max(worstNeuron, r.cost.total().cycles);
                    ws.hNext[h] = r.code;
                    ws.hRawNext[h] = r.rawValue;
                }
                // Steps are inherently sequential (the feedback
                // hazard): neurons parallel within a step, steps
                // serialized.
                stepWorst += worstNeuron;
                std::swap(ws.hCodes, ws.hNext);
                std::swap(ws.hRaw, ws.hRawNext);
            }
        } else {
            std::vector<uint16_t> hCodes(hidden, zeroCode);
            std::vector<double> hRaw(hidden, 0.0);

            const auto &wxCodes = layer.weightCodes[0];
            const auto &whCodes = layer.stateWeightCodes[0];
            std::vector<uint16_t> wxCol(features), whCol(hidden);
            std::vector<uint16_t> xStep(features);

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
                    NeuronResult r = ctx.evaluateRecurrentStep(
                        wxCol, xStep, whCol, hCodes, layer.bias[h]);
                    run.cost += r.cost;
                    worstNeuron =
                        std::max(worstNeuron, r.cost.total().cycles);
                    next[h] = r.code;
                    nextRaw[h] = r.rawValue;
                }
                // Steps are inherently sequential (the feedback
                // hazard): neurons parallel within a step, steps
                // serialized.
                stepWorst += worstNeuron;
                hCodes = std::move(next);
                hRaw = std::move(nextRaw);
            }
            hRawLocal = std::move(hRaw);
        }
        const std::vector<double> &hRaw =
            _config.fastPath ? ws.hRaw : hRawLocal;
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
      case RLayerKind::Residual: {
        // Skip values wait in the input FIFO while the inner stack
        // runs; the add folds into the crossbar as one extra
        // carry-propagate stage per output lane (all lanes parallel).
        EncodedTensor value;
        value.shape = in.shape;
        value.codes = ws.takeCodes();
        value.codes.assign(in.codes.begin(), in.codes.end());
        std::vector<double> innerRaw;
        for (size_t i = 0; i < layer.inner.size(); ++i) {
            const bool lastInner = i + 1 == layer.inner.size();
            LayerRun innerRun = runLayer(layer.inner[i], value,
                                         lastInner, ws, threads);
            run.cost += innerRun.cost;
            run.stageCycles += innerRun.stageCycles;
            if (lastInner)
                innerRaw = std::move(innerRun.raw);
            std::vector<uint16_t> spent = std::move(value.codes);
            value = std::move(innerRun.output);
            ws.giveCodes(std::move(spent));
        }
        ws.giveCodes(std::move(value.codes));
        RAPIDNN_ASSERT(innerRaw.size() == in.codes.size(),
                       "residual inner stack changed shape");

        AccumFormat format;
        const nvm::CostModel &m = _config.cost;
        nvm::OpCost addCost{
            m.carryPropagateCyclesPerBit * format.accumulatorBits,
            m.norEnergyPerBit
                * double(format.accumulatorBits
                         * m.carryPropagateCyclesPerBit)
                * double(in.codes.size())};
        run.cost.weightedAccum += addCost;
        run.stageCycles += addCost.cycles;

        run.output.shape = in.shape;
        const bool last = layer.outputEncoder.empty();
        if (!last) {
            run.output.codes = ws.takeCodes();
            run.output.codes.assign(innerRaw.size(), 0);
        }
        if (lastCompute) {
            run.raw = ws.takeRaw();
            run.raw.assign(innerRaw.size(), 0.0);
        }
        for (size_t i = 0; i < innerRaw.size(); ++i) {
            // Fixed-point sum, exactly as the crossbar computes it.
            const int64_t sum = format.toFixed(innerRaw[i])
                + format.toFixed(
                      layer.inputCodebook.value(in.codes[i]));
            double summed = format.toReal(sum);
            if (layer.activation)
                summed = layer.activation->lookup(summed);
            if (lastCompute)
                run.raw[i] = summed;
            if (!last)
                run.output.codes[i] = static_cast<uint16_t>(
                    layer.outputEncoder.encode(summed));
        }
        ws.giveRaw(std::move(innerRaw));
        break;
      }
    }
    return run;
}

std::vector<double>
Chip::infer(const nn::Tensor &x, PerfReport &report) const
{
    return infer(x, report, 0);
}

std::vector<double>
Chip::infer(const nn::Tensor &x, PerfReport &report,
            size_t numThreadsOverride) const
{
    RAPIDNN_ASSERT(_model != nullptr, "chip not configured");
    // Whole-call span; layer stage spans nest under it. Inert (one
    // relaxed atomic load, no clock read) while tracing is disabled.
    RAPIDNN_TELEMETRY_SPAN("chip_infer");
    const size_t threads = std::max<size_t>(
        numThreadsOverride != 0 ? numThreadsOverride
                                : _config.numThreads,
        1);
    const auto &model = *_model;

    // Lease the shared workspace for this call; concurrent callers on
    // the same chip fall back to private spares (see WorkspaceLease).
    WorkspaceLease lease(_workspace.get());
    Workspace &ws = lease.get();
    if (ws.convPlans.size() < _contexts->contexts.size())
        ws.convPlans.resize(_contexts->contexts.size());

    // Virtual input layer: encode raw data (charged as AM searches on
    // the input-encoding block, all lanes in parallel).
    EncodedTensor enc;
    enc.shape = x.shape();
    enc.codes = ws.takeCodes();
    enc.codes.assign(x.numel(), 0);
    {
        RAPIDNN_TELEMETRY_STAGE("encoding",
                                stageHistogram("encoding"));
        for (size_t i = 0; i < x.numel(); ++i)
            enc.codes[i] = static_cast<uint16_t>(
                model.inputEncoder().encode(x[i]));
    }

    report.reset();
    InferTally tally;
    tally.inputEncode = inputEncodeCost(x.numel());
    tally.latencyCycles = tally.inputEncode.cycles;
    tally.worstStage = tally.inputEncode.cycles;
    tally.totalEnergy = tally.inputEncode.energy;

    std::vector<double> logits;
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
        LayerRun run{};
        {
            const char *stage = stageName(model.layers()[l].kind);
            RAPIDNN_TELEMETRY_SPAN(stage, static_cast<int64_t>(l), 0,
                                   stageHistogram(stage));
            run = runLayer(model.layers()[l], enc, l == lastCompute,
                           ws, threads);
        }
        tallyLayerRun(tally, run, model.layers()[l], l == lastCompute);

        if (l == lastCompute)
            logits = std::move(run.raw);
        std::vector<uint16_t> spent = std::move(enc.codes);
        enc = std::move(run.output);
        ws.giveCodes(std::move(spent));
    }
    ws.giveCodes(std::move(enc.codes));

    finalizeReport(tally, logits.size(), report);
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
                    const uint16_t *const *inputs, size_t lanes,
                    bool lastCompute, Workspace &ws, size_t threads,
                    LayerRun *runs) const
{
    constexpr size_t kPass = DenseTallyScratch::kNeurons;
    constexpr size_t kGroupsPerPass = kPass / simd::kDenseGroup;
    const size_t outCount = layer.outCount;
    const size_t groups = ctx.denseRowStride() / simd::kDenseGroup;
    for (size_t L = 0; L < lanes; ++L) {
        runs[L] = LayerRun{};
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
    if (ws.denseInputs.size() < lanes)
        ws.denseInputs.resize(lanes);
    for (size_t L = 0; L < lanes; ++L)
        ws.denseInputs[L].build(inputs[L], layer.inCount,
                                layer.inputEntries());
    const bool hasAct = ctx.hasActivation();
    const bool hasEnc = ctx.hasEncoder();
    const nvm::OpCost actQ =
        hasAct ? ctx.activationQueryCost() : nvm::OpCost{};
    const nvm::OpCost encQ =
        hasEnc ? ctx.encodingQueryCost() : nvm::OpCost{};

    // Costs of neuron j, lane L are added to the lane's totals in
    // increasing j (the serial per-neuron order, so the sums are
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
    // costs, then one activation/encoding batch lookup over the pass's
    // (neuron x lane) slots. Serial passes run in neuron order and
    // reduce costs at once; sharded passes stage them in accumCostB.
    auto runPass = [&](size_t g, DenseTallyScratch &st,
                       AccumScratch &accum, bool serial) {
        const size_t gEnd = std::min(groups, g + kGroupsPerPass);
        for (size_t L = 0; L < lanes; ++L)
            ctx.denseTally(ws.denseInputs[L], g, gEnd,
                           st.sums.data() + L * kPass,
                           st.distinct.data() + L * kPass,
                           st.addends.data() + L * kPass);
        const size_t begin = g * simd::kDenseGroup;
        const size_t n =
            std::min(outCount, gEnd * simd::kDenseGroup) - begin;
        for (size_t k = 0; k < n; ++k) {
            for (size_t L = 0; L < lanes; ++L) {
                const size_t at = L * kPass + k;
                const AccumResult a = ctx.denseResult(
                    begin + k, st.sums[at], st.distinct[at],
                    st.addends[at], accum);
                st.vals[k * lanes + L] = a.value;
                if (serial)
                    reduce(L, a.cost.total());
                else
                    ws.accumCostB[(begin + k) * lanes + L] =
                        a.cost.total();
            }
        }
        double *vals = st.vals.data();
        ctx.activateBatch(vals, vals, n * lanes, st.amKeys.data(),
                          st.amRows.data());
        if (hasEnc) {
            ctx.encodeBatch(vals, n * lanes, st.amKeys.data(),
                            st.amRows.data(), st.codes.data());
            for (size_t k = 0; k < n; ++k)
                for (size_t L = 0; L < lanes; ++L)
                    runs[L].output.codes[begin + k] =
                        st.codes[k * lanes + L];
        }
        if (lastCompute)
            for (size_t k = 0; k < n; ++k)
                for (size_t L = 0; L < lanes; ++L)
                    runs[L].raw[begin + k] = vals[k * lanes + L];
    };

    if (threads > 1) {
        // Pass-aligned shards over the fixed grid: each shard owns
        // whole passes across all batch lanes and writes disjoint
        // code, raw and cost slots with its pool lane's scratch; the
        // flat reduction below then replays the serial order.
        const size_t passes = (groups + kGroupsPerPass - 1) / kGroupsPerPass;
        ws.ensureLanes(threads);
        for (auto &lane : ws.lanes)
            lane.dense.ensure(lanes);
        if (ws.accumCostB.size() < lanes * outCount)
            ws.accumCostB.resize(lanes * outCount);
        const size_t shards = shardCount(passes);
        TaskPool::shared().run(
            shards, threads, [&](size_t shard, size_t lane) {
                const auto [pb, pe] = shardRange(passes, shard, shards);
                IntraOpScratch &sc = ws.lanes[lane];
                for (size_t p = pb; p < pe; ++p)
                    runPass(p * kGroupsPerPass, sc.dense, sc.accum,
                            false);
            });
        for (size_t L = 0; L < lanes; ++L)
            for (size_t j = 0; j < outCount; ++j)
                reduce(L, ws.accumCostB[j * lanes + L]);
    } else {
        ws.dense.ensure(lanes);
        for (size_t g = 0; g < groups; g += kGroupsPerPass)
            runPass(g, ws.dense, ws.accum, true);
    }
    const size_t waves = rnaWaves(_config, outCount);
    for (size_t L = 0; L < lanes; ++L)
        runs[L].stageCycles *= waves;
}

void
Chip::runLayerBatch(const RLayer &layer,
                    const std::vector<EncodedTensor> &ins,
                    bool lastCompute, Workspace &ws, size_t threads,
                    std::vector<LayerRun> &runs) const
{
    const size_t lanes = ins.size();
    const bool intraOp = threads > 1 && _config.fastPath;
    const bool kernel = _kops != nullptr && _config.fastPath;
    bool sameShape = true;
    for (size_t L = 1; L < lanes; ++L)
        sameShape = sameShape && ins[L].shape == ins[0].shape
                 && ins[L].codes.size() == ins[0].codes.size();

    // Per-lane fallback: sequential runLayer calls in lane order are
    // trivially identical to sequential infer() calls (the workspace
    // is reset-per-use state, not carried data).
    auto perLane = [&] {
        for (size_t L = 0; L < lanes; ++L)
            runs[L] = runLayer(layer, ins[L], lastCompute, ws,
                               threads);
    };


    switch (layer.kind) {
      case RLayerKind::Dense: {
        const RnaLayerContext &ctx =
            *_contexts->contexts[_contexts->byLayer.at(&layer)];
        if (!(kernel && ctx.hasDenseRows() && sameShape)) {
            perLane();
            return;
        }
        ws.laneCodes.resize(lanes);
        for (size_t L = 0; L < lanes; ++L)
            ws.laneCodes[L] = ins[L].codes.data();
        runDenseTally(layer, ctx, ws.laneCodes.data(), lanes, lastCompute,
                      ws, threads, runs.data());
        return;
      }
      case RLayerKind::Conv: {
        const RnaLayerContext &ctx =
            *_contexts->contexts[_contexts->byLayer.at(&layer)];
        if (!(kernel && ctx.packed() && sameShape && !intraOp)) {
            perLane();
            return;
        }
        // Batched conv kernel path (serial executor; the sharded
        // executor falls back to per-lane runLayer, which shards
        // itself). Position-major like the serial kernel path, with
        // the per-(position, channel) work — window clipping, the
        // counting-cycle histogram, the weight-chunk loads inside
        // pairKeys8Lanes — done once and shared across the lanes.
        RAPIDNN_ASSERT(ins[0].shape.size() == 3,
                       "conv needs [C, H, W]");
        const size_t inC = ins[0].shape[0];
        const size_t h = ins[0].shape[1], w = ins[0].shape[2];
        const size_t k = layer.kernel;
        const size_t oh = layer.samePadding ? h : h - k + 1;
        const size_t ow = layer.samePadding ? w : w - k + 1;
        ConvGatherPlan *plan =
            &ws.convPlans[_contexts->byLayer.at(&layer)];
        if (!plan->matches(inC, h, w))
            buildConvGatherPlan(*plan, layer, inC, h, w);

        ctx.prepareWorkspace(ws);
        const size_t positions = oh * ow;
        const size_t flatNeurons = layer.outCount * positions;
        const size_t fullWindow = layer.inCount;  // inC * k * k
        const size_t windowMax = layer.weightCodes[0].size();
        const size_t inElems = ins[0].codes.size();
        for (size_t L = 0; L < lanes; ++L) {
            runs[L] = LayerRun{};
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
        ws.actB8.ensure(lanes * inElems);
        for (size_t L = 0; L < lanes; ++L)
            _kops->narrow(ins[L].codes.data(), inElems,
                          ws.actB8.data() + L * inElems);
        ws.gx8B.ensure(lanes * windowMax);
        ws.gw8.ensure(windowMax);
        ws.keysB.ensure(lanes * windowMax);
        ws.valsB.ensure(lanes * flatNeurons);
        ws.codesB.ensure(lanes * flatNeurons);
        ws.amKeys.ensure(lanes * positions);
        ws.amRows.ensure(lanes * positions);
        if (ws.accumCostB.size() < lanes * flatNeurons)
            ws.accumCostB.resize(lanes * flatNeurons);
        if (ws.accumResB.size() < lanes)
            ws.accumResB.resize(lanes);
        ws.lanePtrsH.resize(lanes);
        for (size_t L = 0; L < lanes; ++L)
            ws.lanePtrsH[L] = ws.gx8B.data() + L * windowMax;

        for (size_t p = 0; p < positions; ++p) {
            const uint32_t s0 = plan->start[p];
            const size_t n = plan->start[p + 1] - s0;
            for (size_t L = 0; L < lanes; ++L)
                _kops->gather8(ws.actB8.data() + L * inElems,
                               plan->inputIdx.data() + s0, n,
                               ws.gx8B.data() + L * windowMax);
            for (size_t oc = 0; oc < layer.outCount; ++oc) {
                const uint8_t *wp = ctx.convChannel8(oc);
                if (n != fullWindow) {
                    for (size_t s = 0; s < n; ++s)
                        ws.gw8[s] = wp[plan->weightIdx[s0 + s]];
                    wp = ws.gw8.data();
                }
                // Counting cycles depend only on the (clipped) weight
                // window: one histogram serves every lane.
                const uint32_t cc =
                    ctx.packedCountingCycles(oc, wp, n, ws.accum);
                _kops->pairKeys8Lanes(wp, ws.lanePtrsH.data(), lanes,
                                      n, ctx.keyShiftFor(oc),
                                      ws.keysB.data(), windowMax);
                const size_t oidx = oc * positions + p;
                ctx.accumulatePrekeyedLanes(
                    oc, ws.keysB.data(), windowMax, lanes, n,
                    layer.bias[oc], ws.accum, &cc,
                    ws.accumResB.data());
                for (size_t L = 0; L < lanes; ++L) {
                    const size_t slot = oidx * lanes + L;
                    ws.valsB[slot] = ws.accumResB[L].value;
                    ws.accumCostB[slot] =
                        ws.accumResB[L].cost.total();
                }
            }
        }
        const bool hasAct = ctx.hasActivation();
        const bool hasEnc = ctx.hasEncoder();
        for (size_t oc = 0; oc < layer.outCount; ++oc) {
            // Slots for one channel span a contiguous (position x
            // lane) range in the neuron-major layout: one AM batch
            // call per channel covers every lane.
            const size_t base = oc * positions * lanes;
            const size_t nb = positions * lanes;
            double *vals = ws.valsB.data() + base;
            ctx.activateBatch(vals, vals, nb, ws.amKeys.data(),
                              ws.amRows.data());
            if (hasEnc)
                ctx.encodeBatch(vals, nb, ws.amKeys.data(),
                                ws.amRows.data(),
                                ws.codesB.data() + base);
        }
        for (size_t L = 0; L < lanes; ++L) {
            if (hasEnc)
                for (size_t oidx = 0; oidx < flatNeurons; ++oidx)
                    runs[L].output.codes[oidx] =
                        ws.codesB[oidx * lanes + L];
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
                const nvm::OpCost &wa =
                    ws.accumCostB[oidx * lanes + L];
                runs[L].cost.weightedAccum += wa;
                if (hasAct)
                    runs[L].cost.activation += actQ;
                if (hasEnc)
                    runs[L].cost.encoding += encQ;
                worstNeuron = std::max(
                    worstNeuron,
                    wa.cycles + actQ.cycles + encQ.cycles);
            }
            runs[L].stageCycles = worstNeuron * waves;
        }
        return;
      }
      case RLayerKind::Recurrent: {
        const RnaLayerContext &ctx =
            *_contexts->contexts[_contexts->byLayer.at(&layer)];
        if (!(kernel && ctx.packedRecurrent() && sameShape
              && !intraOp)) {
            perLane();
            return;
        }
        // Batched recurrent kernel path (serial executor). Steps stay
        // serial (the feedback hazard); within a step, each hidden
        // neuron's two weight columns are keyed once for all lanes and
        // the per-lane step evaluations replay the serial order from
        // their own key stripes and state stripes.
        const size_t hidden = layer.outCount;
        const size_t features = layer.inCount;
        const size_t inElems = ins[0].codes.size();
        RAPIDNN_ASSERT(inElems == layer.steps * features,
                       "recurrent layer code count mismatch");
        ctx.prepareWorkspace(ws);

        nvm::OpCost zeroEncode;
        const uint16_t zeroCode = ctx.encodeState(0.0, zeroEncode);
        for (size_t L = 0; L < lanes; ++L) {
            runs[L] = LayerRun{};
            // One zero-state encode per sample, exactly as infer()
            // charges it (the code itself is shared — it is a pure
            // function of the codebook).
            runs[L].cost.encoding += zeroEncode;
        }

        ws.actB8.ensure(lanes * inElems);
        for (size_t L = 0; L < lanes; ++L)
            _kops->narrow(ins[L].codes.data(), inElems,
                          ws.actB8.data() + L * inElems);
        ws.h8B.ensure(lanes * hidden);
        ws.keysB.ensure(lanes * features);
        ws.keysHB.ensure(lanes * hidden);
        ws.hCodesB.assign(lanes * hidden, zeroCode);
        ws.hRawB.assign(lanes * hidden, 0.0);
        ws.hNextB.resize(lanes * hidden);
        ws.hRawNextB.resize(lanes * hidden);
        if (ws.neuronCostsB.size() < lanes * hidden)
            ws.neuronCostsB.resize(lanes * hidden);
        ws.stepWorstB.assign(lanes, 0);
        ws.lanePtrsX.resize(lanes);
        ws.lanePtrsH.resize(lanes);
        const uint32_t shiftX = ctx.keyShiftFor(0);
        const uint32_t shiftH = ctx.stateKeyShift();

        for (size_t t = 0; t < layer.steps; ++t) {
            for (size_t L = 0; L < lanes; ++L) {
                // Per-step narrow of each lane's frozen previous
                // state, as the serial step loop does.
                _kops->narrow(ws.hCodesB.data() + L * hidden, hidden,
                              ws.h8B.data() + L * hidden);
                ws.lanePtrsH[L] = ws.h8B.data() + L * hidden;
                ws.lanePtrsX[L] =
                    ws.actB8.data() + L * inElems + t * features;
            }
            for (size_t hn = 0; hn < hidden; ++hn) {
                _kops->pairKeys8Lanes(ctx.recurrentXColumn8(hn),
                                      ws.lanePtrsX.data(), lanes,
                                      features, shiftX,
                                      ws.keysB.data(), features);
                _kops->pairKeys8Lanes(ctx.recurrentHColumn8(hn),
                                      ws.lanePtrsH.data(), lanes,
                                      hidden, shiftH,
                                      ws.keysHB.data(), hidden);
                const uint32_t *xc = ctx.recXCountingHint(hn);
                const uint32_t *hc = ctx.recHCountingHint(hn);
                for (size_t L = 0; L < lanes; ++L) {
                    NeuronResult r = ctx.evaluateRecurrentStepPrekeyed(
                        ws.keysB.data() + L * features, features,
                        ws.keysHB.data() + L * hidden, hidden,
                        layer.bias[hn], ws.accum, xc, hc);
                    ws.neuronCostsB[hn * lanes + L] = r.cost;
                    ws.hNextB[L * hidden + hn] = r.code;
                    ws.hRawNextB[L * hidden + hn] = r.rawValue;
                }
            }
            for (size_t L = 0; L < lanes; ++L) {
                uint64_t worstNeuron = 0;
                for (size_t hn = 0; hn < hidden; ++hn) {
                    const NeuronCost &c =
                        ws.neuronCostsB[hn * lanes + L];
                    runs[L].cost += c;
                    worstNeuron =
                        std::max(worstNeuron, c.total().cycles);
                }
                ws.stepWorstB[L] += worstNeuron;
            }
            std::swap(ws.hCodesB, ws.hNextB);
            std::swap(ws.hRawB, ws.hRawNextB);
        }

        const bool last = layer.outputEncoder.empty();
        for (size_t L = 0; L < lanes; ++L) {
            runs[L].stageCycles = ws.stepWorstB[L];
            runs[L].output.shape = {hidden};
            const double *hRaw = ws.hRawB.data() + L * hidden;
            if (lastCompute) {
                runs[L].raw = ws.takeRaw();
                runs[L].raw.assign(hRaw, hRaw + hidden);
            }
            if (!last) {
                runs[L].output.codes = ws.takeCodes();
                runs[L].output.codes.assign(hidden, 0);
                nvm::OpCost encodeCost;
                for (size_t hn = 0; hn < hidden; ++hn)
                    runs[L].output.codes[hn] = static_cast<uint16_t>(
                        layer.outputEncoder.encode(hRaw[hn]));
                encodeCost += _config.cost.camSearch(
                    layer.outputEncoder.entries(), 32);
                runs[L].cost.encoding += encodeCost;
            }
        }
        return;
      }
      case RLayerKind::Residual: {
        // Recurse batched through the inner stack, then the per-lane
        // skip add — the add is elementwise per lane, so the serial
        // residual tail runs unchanged per lane.
        std::vector<EncodedTensor> values(lanes);
        for (size_t L = 0; L < lanes; ++L) {
            values[L].shape = ins[L].shape;
            values[L].codes = ws.takeCodes();
            values[L].codes.assign(ins[L].codes.begin(),
                                   ins[L].codes.end());
            runs[L] = LayerRun{};
        }
        std::vector<std::vector<double>> innerRaws(lanes);
        std::vector<LayerRun> innerRuns(lanes);
        for (size_t i = 0; i < layer.inner.size(); ++i) {
            const bool lastInner = i + 1 == layer.inner.size();
            runLayerBatch(layer.inner[i], values, lastInner, ws,
                          threads, innerRuns);
            for (size_t L = 0; L < lanes; ++L) {
                runs[L].cost += innerRuns[L].cost;
                runs[L].stageCycles += innerRuns[L].stageCycles;
                if (lastInner)
                    innerRaws[L] = std::move(innerRuns[L].raw);
                std::vector<uint16_t> spent =
                    std::move(values[L].codes);
                values[L] = std::move(innerRuns[L].output);
                ws.giveCodes(std::move(spent));
            }
        }
        for (size_t L = 0; L < lanes; ++L)
            ws.giveCodes(std::move(values[L].codes));

        AccumFormat format;
        const nvm::CostModel &m = _config.cost;
        const bool last = layer.outputEncoder.empty();
        for (size_t L = 0; L < lanes; ++L) {
            const EncodedTensor &in = ins[L];
            std::vector<double> &innerRaw = innerRaws[L];
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
        // Pools, flatten, reference-path layers: per-lane execution.
        perLane();
        return;
    }
}

std::vector<std::vector<double>>
Chip::inferBatch(std::span<const nn::Tensor> inputs,
                 std::span<PerfReport> reports,
                 size_t numThreadsOverride) const
{
    RAPIDNN_ASSERT(_model != nullptr, "chip not configured");
    RAPIDNN_ASSERT(reports.size() >= inputs.size(),
                   "inferBatch needs one report per input");
    const size_t lanes = inputs.size();
    std::vector<std::vector<double>> logits(lanes);
    if (lanes == 0)
        return logits;
    RAPIDNN_TELEMETRY_SPAN("chip_infer_batch");
    const size_t threads = std::max<size_t>(
        numThreadsOverride != 0 ? numThreadsOverride
                                : _config.numThreads,
        1);
    const auto &model = *_model;

    WorkspaceLease lease(_workspace.get());
    Workspace &ws = lease.get();
    if (ws.convPlans.size() < _contexts->contexts.size())
        ws.convPlans.resize(_contexts->contexts.size());

    // Virtual input layer, one encode per lane (identical to infer()).
    std::vector<EncodedTensor> encs(lanes);
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
    std::vector<InferTally> tallies(lanes);
    for (size_t L = 0; L < lanes; ++L) {
        reports[L].reset();
        InferTally &t = tallies[L];
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

    std::vector<LayerRun> runs(lanes);
    for (size_t l = 0; l < model.layers().size(); ++l) {
        const RLayer &layer = model.layers()[l];
        {
            const char *stage = stageName(layer.kind);
            RAPIDNN_TELEMETRY_SPAN(stage, static_cast<int64_t>(l), 0,
                                   stageHistogram(stage));
            runLayerBatch(layer, encs, l == lastCompute, ws, threads,
                          runs);
        }
        for (size_t L = 0; L < lanes; ++L) {
            tallyLayerRun(tallies[L], runs[L], layer,
                          l == lastCompute);
            if (l == lastCompute)
                logits[L] = std::move(runs[L].raw);
            std::vector<uint16_t> spent = std::move(encs[L].codes);
            encs[L] = std::move(runs[L].output);
            ws.giveCodes(std::move(spent));
        }
    }
    for (size_t L = 0; L < lanes; ++L)
        ws.giveCodes(std::move(encs[L].codes));

    for (size_t L = 0; L < lanes; ++L)
        finalizeReport(tallies[L], logits[L].size(), reports[L]);
    return logits;
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
