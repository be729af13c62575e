#include "composer/composer.hh"

#include <chrono>
#include <cmath>
#include <functional>

#include "common/check.hh"
#include "nn/loss.hh"
#include "nn/recurrent.hh"

namespace rapidnn::composer {

using nn::LayerKind;

namespace {

/** Reservoir-style cap so codebook inputs stay bounded. */
constexpr size_t kMaxCapturedValues = 20000;

void
captureValues(const nn::Tensor &t, std::vector<double> &sink, Rng &rng)
{
    if (sink.size() + t.numel() <= kMaxCapturedValues) {
        for (size_t i = 0; i < t.numel(); ++i)
            sink.push_back(t[i]);
        return;
    }
    // Thin the incoming tensor to roughly fit the cap.
    const double keep =
        std::max(0.01, double(kMaxCapturedValues) / (double(sink.size())
                       + double(t.numel())) * 0.5);
    for (size_t i = 0; i < t.numel(); ++i)
        if (rng.bernoulli(keep) && sink.size() < 2 * kMaxCapturedValues)
            sink.push_back(t[i]);
}

/** Is this a compute (table-holding) layer? */
bool
isCompute(LayerKind kind)
{
    return kind == LayerKind::Dense || kind == LayerKind::Conv2D ||
           kind == LayerKind::Recurrent;
}

/** Build a codebook of `entries` representatives from samples. */
quant::Codebook
buildCodebook(const std::vector<double> &samples, size_t entries,
              size_t treeDepth)
{
    RAPIDNN_ASSERT(!samples.empty(), "buildCodebook on empty samples");
    quant::TreeCodebook tree(samples, std::max(treeDepth, size_t(1)));
    return tree.level(tree.levelForEntries(entries));
}

/** Cluster a whole weight tensor onto one codebook; `codes` receives
 *  each weight's codebook index. */
quant::Codebook
clusterWeights(const nn::Tensor &w, size_t entries, size_t treeDepth,
               std::vector<uint16_t> &codes)
{
    std::vector<double> samples(w.numel());
    for (size_t i = 0; i < w.numel(); ++i)
        samples[i] = w[i];
    quant::Codebook cb = buildCodebook(samples, entries, treeDepth);
    codes.resize(w.numel());
    for (size_t i = 0; i < w.numel(); ++i)
        codes[i] = static_cast<uint16_t>(cb.encode(w[i]));
    return cb;
}

/** The crossbar's product table: entry (wi, ui) holds
 *  wcb[wi] * ucb[ui], row-major over weight codes. */
std::vector<double>
productTable(const quant::Codebook &wcb, const quant::Codebook &ucb)
{
    std::vector<double> table(wcb.size() * ucb.size());
    for (size_t wi = 0; wi < wcb.size(); ++wi)
        for (size_t ui = 0; ui < ucb.size(); ++ui)
            table[wi * ucb.size() + ui] = wcb.value(wi) * ucb.value(ui);
    return table;
}

/** The activation table's domain: the captured pre-activation range
 *  [lo, hi] widened by 5% on each side, or the activation's default
 *  domain when the capture is degenerate. */
void
activationDomain(nn::ActKind kind, double &lo, double &hi)
{
    if (hi - lo < 1e-6) {
        nn::actDefaultDomain(kind, lo, hi);
    } else {
        const double margin = 0.05 * (hi - lo);
        lo -= margin;
        hi += margin;
    }
}

} // namespace

namespace {

/** Count compute layers (recursing into residual blocks). */
size_t
countCompute(const std::vector<nn::LayerPtr> &layers)
{
    size_t n = 0;
    for (const auto &layerPtr : layers) {
        if (isCompute(layerPtr->kind()))
            ++n;
        else if (layerPtr->kind() == LayerKind::Residual)
            n += countCompute(
                static_cast<const nn::ResidualLayer &>(*layerPtr)
                    .inner());
    }
    return n;
}

size_t
countResiduals(const std::vector<nn::LayerPtr> &layers)
{
    size_t n = 0;
    for (const auto &layerPtr : layers)
        if (layerPtr->kind() == LayerKind::Residual) {
            ++n;
            n += countResiduals(
                static_cast<const nn::ResidualLayer &>(*layerPtr)
                    .inner());
        }
    return n;
}

size_t
countRecurrent(const std::vector<nn::LayerPtr> &layers)
{
    size_t n = 0;
    for (const auto &layerPtr : layers) {
        if (layerPtr->kind() == LayerKind::Recurrent)
            ++n;
        else if (layerPtr->kind() == LayerKind::Residual)
            n += countRecurrent(
                static_cast<const nn::ResidualLayer &>(*layerPtr)
                    .inner());
    }
    return n;
}

void
trackRange(const nn::Tensor &value, double &lo, double &hi)
{
    for (size_t i = 0; i < value.numel(); ++i) {
        const double v = value[i];
        if (lo == 0.0 && hi == 0.0) {
            lo = v;
            hi = v;
        } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
}

} // namespace

Composer::Composer(ComposerConfig config) : _config(config)
{
    RAPIDNN_CHECK(_config.weightClusters <= kMaxWeightEntries,
                  "composer: weightClusters = ", _config.weightClusters,
                  " exceeds ", kMaxWeightEntries);
}

Composer::CaptureSet
Composer::captureLayerInputs(nn::Network &net, const nn::Dataset &train)
{
    Rng rng(_config.seed + 1);
    const size_t sampleCount = std::max<size_t>(
        16, static_cast<size_t>(
                std::ceil(double(train.size())
                          * _config.inputSampleFraction)));
    nn::Dataset sampled = train.subset(sampleCount, rng);

    CaptureSet captures;
    captures.compute.resize(countCompute(net.layers()));
    captures.residualRanges.assign(countResiduals(net.layers()),
                                   {0.0, 0.0});
    captures.recurrentStates.resize(countRecurrent(net.layers()));
    size_t recurrentCaptureIdx = 0;

    std::vector<size_t> order(sampled.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    // Instrumented DFS forward pass; residual blocks recurse and
    // record their post-skip-add ranges.
    std::function<nn::Tensor(const std::vector<nn::LayerPtr> &,
                             nn::Tensor, size_t &, size_t &)>
        walk = [&](const std::vector<nn::LayerPtr> &layers,
                   nn::Tensor value, size_t &computeIdx,
                   size_t &residualIdx) {
            for (const auto &layerPtr : layers) {
                nn::Layer &layer = *layerPtr;
                if (layer.kind() == LayerKind::Residual) {
                    auto &res =
                        static_cast<nn::ResidualLayer &>(layer);
                    const size_t myResidual = residualIdx++;
                    nn::Tensor innerOut = walk(res.inner(), value,
                                               computeIdx,
                                               residualIdx);
                    value = nn::add(innerOut, value);
                    auto &[lo, hi] =
                        captures.residualRanges[myResidual];
                    trackRange(value, lo, hi);
                    continue;
                }
                const bool compute = isCompute(layer.kind());
                if (compute)
                    captureValues(value,
                                  captures.compute[computeIdx].inputs,
                                  rng);
                value = layer.forward(value, false);
                if (compute) {
                    LayerCapture &cap = captures.compute[computeIdx];
                    if (layer.kind() == LayerKind::Recurrent) {
                        // Hidden-state distribution and pre-activation
                        // range from all unrolled steps.
                        auto &elman =
                            static_cast<nn::ElmanLayer &>(layer);
                        auto &sink = captures.recurrentStates[
                            recurrentCaptureIdx];
                        for (const auto &state : elman.lastStates())
                            captureValues(state, sink, rng);
                        for (const auto &pre :
                             elman.lastPreActivations())
                            trackRange(pre, cap.preActLo,
                                       cap.preActHi);
                        ++recurrentCaptureIdx;
                    } else {
                        trackRange(value, cap.preActLo, cap.preActHi);
                    }
                    ++computeIdx;
                }
            }
            return value;
        };

    const size_t batchSize = 16;
    for (size_t start = 0; start < order.size(); start += batchSize) {
        auto [x, labels] = sampled.batch(order, start, batchSize);
        (void)labels;
        size_t computeIdx = 0;
        size_t residualIdx = 0;
        recurrentCaptureIdx = 0;
        walk(net.layers(), std::move(x), computeIdx, residualIdx);
    }
    return captures;
}

size_t
Composer::projectWeights(nn::Network &net)
{
    size_t rewritten = 0;
    auto clusterRange = [&](nn::Tensor &w, size_t offset,
                            size_t count) {
        std::vector<double> samples(count);
        for (size_t i = 0; i < count; ++i)
            samples[i] = w[offset + i];
        quant::Codebook cb = buildCodebook(
            samples, _config.weightClusters, _config.treeDepth);
        for (size_t i = 0; i < count; ++i)
            w[offset + i] = static_cast<float>(cb.quantize(w[offset + i]));
        rewritten += count;
    };

    // The same compute layers reinterpret() clusters, residual blocks
    // included at any depth.
    std::function<void(const std::vector<nn::LayerPtr> &)> walk =
        [&](const std::vector<nn::LayerPtr> &layers) {
            for (const auto &layerPtr : layers) {
                nn::Layer &layer = *layerPtr;
                if (layer.kind() == LayerKind::Dense) {
                    auto &dense = static_cast<nn::DenseLayer &>(layer);
                    nn::Tensor &w = dense.weights().value;
                    clusterRange(w, 0, w.numel());
                } else if (layer.kind() == LayerKind::Conv2D) {
                    auto &conv = static_cast<nn::Conv2DLayer &>(layer);
                    nn::Tensor &w = conv.weights().value;
                    const size_t perChannel =
                        w.numel() / conv.outChannels();
                    for (size_t oc = 0; oc < conv.outChannels(); ++oc)
                        clusterRange(w, oc * perChannel, perChannel);
                } else if (layer.kind() == LayerKind::Recurrent) {
                    auto &elman = static_cast<nn::ElmanLayer &>(layer);
                    // Both weight matrices onto their own codebooks.
                    for (nn::Param *param : {&elman.inputWeights(),
                                             &elman.recurrentWeights()})
                        clusterRange(param->value, 0,
                                     param->value.numel());
                } else if (layer.kind() == LayerKind::Residual) {
                    walk(static_cast<nn::ResidualLayer &>(layer)
                             .inner());
                }
            }
        };
    walk(net.layers());
    return rewritten;
}

namespace {

/** The input codebook of the first compute layer in (or nested in) the
 *  span starting at `begin`, or nullptr when none follows. */
const quant::Codebook *
firstComputeCodebook(const std::vector<RLayer> &layers, size_t begin)
{
    for (size_t i = begin; i < layers.size(); ++i) {
        const RLayer &l = layers[i];
        if (isComputeKind(l.kind))
            return &l.inputCodebook;
        if (l.kind == RLayerKind::Residual) {
            const quant::Codebook *inner =
                firstComputeCodebook(l.inner, 0);
            if (inner != nullptr)
                return inner;
        }
    }
    return nullptr;
}

/**
 * Wiring pass: each compute layer's output encoder targets the next
 * compute layer's input codebook in execution order; structural layers
 * between them carry the same codebook. Inside a residual block the
 * last compute layer leaves raw values (`following` == nullptr), and
 * the composite's own encoder takes over.
 */
void
wireLayers(std::vector<RLayer> &layers,
           const quant::Codebook *following)
{
    for (size_t i = 0; i < layers.size(); ++i) {
        RLayer &l = layers[i];
        const quant::Codebook *consumer =
            firstComputeCodebook(layers, i + 1);
        if (consumer == nullptr)
            consumer = following;

        switch (l.kind) {
          case RLayerKind::Dense:
          case RLayerKind::Conv:
          case RLayerKind::Recurrent:
            if (consumer != nullptr)
                l.outputEncoder = quant::Encoder(*consumer);
            break;
          case RLayerKind::MaxPool:
          case RLayerKind::AvgPool:
          case RLayerKind::Flatten:
            if (consumer != nullptr)
                l.inputCodebook = *consumer;
            break;
          case RLayerKind::Residual: {
            const quant::Codebook *entry =
                firstComputeCodebook(l.inner, 0);
            RAPIDNN_ASSERT(entry != nullptr,
                           "residual block without compute layers");
            l.inputCodebook = *entry;
            // Inner last compute stays raw: the composite encodes.
            wireLayers(l.inner, nullptr);
            if (consumer != nullptr)
                l.outputEncoder = quant::Encoder(*consumer);
            break;
          }
        }
    }
}

} // namespace

ReinterpretedModel
Composer::reinterpret(nn::Network &net, const nn::Dataset &train)
{
    CaptureSet captures = captureLayerInputs(net, train);

    // Input codebooks for every compute layer (shared per layer).
    std::vector<quant::Codebook> inputCodebooks;
    inputCodebooks.reserve(captures.compute.size());
    for (const LayerCapture &capture : captures.compute)
        inputCodebooks.push_back(buildCodebook(
            capture.inputs, _config.inputClusters, _config.treeDepth));

    ReinterpretedModel model;
    model.inputEncoder() = quant::Encoder(inputCodebooks.front());

    size_t computeIdx = 0;
    size_t residualIdx = 0;
    size_t recurrentIdx = 0;

    // Recursive builder over a layer list, filling `out`. `pending`
    // tracks the compute layer (or residual composite) awaiting a
    // following activation.
    std::function<void(const std::vector<nn::LayerPtr> &,
                       std::vector<RLayer> &, RLayer *&)>
        build = [&](const std::vector<nn::LayerPtr> &layers,
                    std::vector<RLayer> &out, RLayer *&pending) {
        for (const auto &layerPtr : layers) {
            nn::Layer &layer = *layerPtr;
            switch (layer.kind()) {
              case LayerKind::Dense: {
                auto &dense = static_cast<nn::DenseLayer &>(layer);
                RLayer r;
                r.kind = RLayerKind::Dense;
                r.inCount = dense.inFeatures();
                r.outCount = dense.outFeatures();
                r.inputCodebook = inputCodebooks[computeIdx];

                std::vector<uint16_t> codes;
                r.weightCodebooks.push_back(clusterWeights(
                    dense.weights().value, _config.weightClusters,
                    _config.treeDepth, codes));
                r.weightCodes.push_back(std::move(codes));

                std::vector<float> bias(r.outCount);
                for (size_t j = 0; j < r.outCount; ++j)
                    bias[j] = dense.bias().value[j];
                r.bias = std::move(bias);
                r.productTables.push_back(productTable(
                    r.weightCodebooks[0], r.inputCodebook));

                out.push_back(std::move(r));
                pending = &out.back();
                ++computeIdx;
                break;
              }
              case LayerKind::Conv2D: {
                auto &conv = static_cast<nn::Conv2DLayer &>(layer);
                RLayer r;
                r.kind = RLayerKind::Conv;
                r.inChannels = conv.inChannels();
                r.outCount = conv.outChannels();
                r.kernel = conv.kernel();
                r.samePadding = conv.padding() == nn::Padding::Same;
                r.inCount = r.inChannels * r.kernel * r.kernel;
                r.inputCodebook = inputCodebooks[computeIdx];

                const nn::Tensor &w = conv.weights().value;
                const size_t perChannel = w.numel() / r.outCount;
                std::vector<float> bias(r.outCount);

                // RNA sharing (Section 5.6): merge channels into
                // ceil(outC * (1 - s)) codebook groups; grouped
                // channels cluster their weights jointly.
                const size_t groups = std::max<size_t>(1,
                    static_cast<size_t>(std::ceil(
                        double(r.outCount)
                        * (1.0 - _config.sharingFraction))));
                std::vector<quant::Codebook> groupCodebooks(groups);
                auto groupOf = [&](size_t oc) {
                    return oc * groups / r.outCount;
                };
                for (size_t g = 0; g < groups; ++g) {
                    std::vector<double> samples;
                    for (size_t oc = 0; oc < r.outCount; ++oc) {
                        if (groupOf(oc) != g)
                            continue;
                        for (size_t i = 0; i < perChannel; ++i)
                            samples.push_back(w[oc * perChannel + i]);
                    }
                    if (samples.empty())
                        samples.push_back(0.0);
                    groupCodebooks[g] = buildCodebook(
                        samples, _config.weightClusters,
                        _config.treeDepth);
                }

                for (size_t oc = 0; oc < r.outCount; ++oc) {
                    r.weightCodebooks.push_back(
                        groupCodebooks[groupOf(oc)]);
                    std::vector<uint16_t> codes(perChannel);
                    for (size_t i = 0; i < perChannel; ++i)
                        codes[i] = static_cast<uint16_t>(
                            r.weightCodebooks[oc].encode(
                                w[oc * perChannel + i]));
                    r.weightCodes.push_back(std::move(codes));
                    r.productTables.push_back(productTable(
                        r.weightCodebooks[oc], r.inputCodebook));
                    bias[oc] = conv.bias().value[oc];
                }
                r.bias = std::move(bias);

                out.push_back(std::move(r));
                pending = &out.back();
                ++computeIdx;
                break;
              }
              case LayerKind::Activation: {
                auto &act = static_cast<nn::ActivationLayer &>(layer);
                RAPIDNN_ASSERT(pending != nullptr,
                               "activation with no preceding compute "
                               "layer");
                double lo = 0.0, hi = 0.0;
                if (pending->kind == RLayerKind::Residual) {
                    // Activation after a skip add: use the captured
                    // post-add range of that block.
                    RAPIDNN_ASSERT(residualIdx > 0,
                                   "residual range bookkeeping");
                    std::tie(lo, hi) =
                        captures.residualRanges[residualIdx - 1];
                } else {
                    const LayerCapture &cap =
                        captures.compute[computeIdx - 1];
                    lo = cap.preActLo;
                    hi = cap.preActHi;
                }
                activationDomain(act.actKind(), lo, hi);
                pending->activation = quant::ActivationTable::build(
                    act.actKind(), _config.activationRows,
                    _config.spacing, lo, hi);
                pending->activationKind = act.actKind();
                break;
              }
              case LayerKind::MaxPool2D: {
                auto &pool =
                    static_cast<nn::MaxPool2DLayer &>(layer);
                RLayer r;
                r.kind = RLayerKind::MaxPool;
                r.poolWindow = pool.window();
                out.push_back(std::move(r));
                break;
              }
              case LayerKind::AvgPool2D: {
                auto &pool =
                    static_cast<nn::AvgPool2DLayer &>(layer);
                RLayer r;
                r.kind = RLayerKind::AvgPool;
                r.poolWindow = pool.window();
                out.push_back(std::move(r));
                break;
              }
              case LayerKind::Flatten: {
                RLayer r;
                r.kind = RLayerKind::Flatten;
                out.push_back(std::move(r));
                break;
              }
              case LayerKind::Dropout:
              case LayerKind::Softmax:
                break;  // identity at inference
              case LayerKind::Recurrent: {
                auto &elman = static_cast<nn::ElmanLayer &>(layer);
                RLayer r;
                r.kind = RLayerKind::Recurrent;
                r.inCount = elman.features();
                r.outCount = elman.hidden();
                r.steps = elman.steps();
                r.inputCodebook = inputCodebooks[computeIdx];

                // Hidden-state codebook from the captured states.
                const size_t myRecurrent = recurrentIdx++;
                const auto &stateSamples =
                    captures.recurrentStates[myRecurrent];
                RAPIDNN_ASSERT(!stateSamples.empty(),
                               "no hidden-state captures");
                r.stateCodebook = buildCodebook(
                    stateSamples, _config.inputClusters,
                    _config.treeDepth);

                // Input-path (Wx) codebook and product table.
                std::vector<uint16_t> codes;
                r.weightCodebooks.push_back(clusterWeights(
                    elman.inputWeights().value, _config.weightClusters,
                    _config.treeDepth, codes));
                r.weightCodes.push_back(std::move(codes));
                r.productTables.push_back(productTable(
                    r.weightCodebooks[0], r.inputCodebook));

                // Feedback-path (Wh) codebook and product table.
                std::vector<uint16_t> stateCodes;
                r.stateWeightCodebooks.push_back(clusterWeights(
                    elman.recurrentWeights().value,
                    _config.weightClusters, _config.treeDepth,
                    stateCodes));
                r.stateWeightCodes.push_back(std::move(stateCodes));
                r.stateProductTables.push_back(productTable(
                    r.stateWeightCodebooks[0], r.stateCodebook));

                std::vector<float> bias(r.outCount);
                for (size_t h = 0; h < r.outCount; ++h)
                    bias[h] = elman.bias().value[h];
                r.bias = std::move(bias);

                // The cell's internal nonlinearity becomes the
                // activation table (pre-act range from all steps).
                const LayerCapture &cap =
                    captures.compute[computeIdx];
                double lo = cap.preActLo, hi = cap.preActHi;
                activationDomain(elman.activation(), lo, hi);
                r.activation = quant::ActivationTable::build(
                    elman.activation(), _config.activationRows,
                    _config.spacing, lo, hi);
                r.activationKind = elman.activation();

                out.push_back(std::move(r));
                pending = &out.back();
                ++computeIdx;
                break;
              }
              case LayerKind::Residual: {
                auto &res = static_cast<nn::ResidualLayer &>(layer);
                RLayer composite;
                composite.kind = RLayerKind::Residual;
                ++residualIdx;
                RLayer *innerPending = nullptr;
                build(res.inner(), composite.inner, innerPending);
                RAPIDNN_ASSERT(!composite.inner.empty(),
                               "empty residual block");
                out.push_back(std::move(composite));
                pending = &out.back();
                break;
              }
            }
        }
    };

    RLayer *pending = nullptr;
    build(net.layers(), model.layers(), pending);
    wireLayers(model.layers(), nullptr);
    model.setCanonicalInputShape(train.featureShape());
    return model;
}

ComposeResult
Composer::compose(nn::Network &net, const nn::Dataset &train,
                  const nn::Dataset &validation)
{
    const auto startTime = std::chrono::steady_clock::now();

    ComposeResult result;
    const nn::Dataset *valPtr = &validation;
    nn::Dataset capped;
    Rng rng(_config.seed + 4);
    if (_config.validationCap > 0 &&
        validation.size() > _config.validationCap) {
        capped = validation.subset(_config.validationCap, rng);
        valPtr = &capped;
    }

    result.baselineError = nn::Trainer::errorRate(net, *valPtr);

    // Figure 6a snapshot: first compute layer's weight distribution.
    auto snapshotWeights = [&net](Histogram &hist) {
        for (auto &layerPtr : net.layers()) {
            if (!isCompute(layerPtr->kind()))
                continue;
            nn::Param *w = layerPtr->parameters().front();
            double lo = 0.0, hi = 0.0;
            for (size_t i = 0; i < w->value.numel(); ++i) {
                lo = std::min(lo, double(w->value[i]));
                hi = std::max(hi, double(w->value[i]));
            }
            hist = Histogram(lo, hi + 1e-9, 48);
            for (size_t i = 0; i < w->value.numel(); ++i)
                hist.add(w->value[i]);
            return;
        }
    };
    snapshotWeights(result.weightsBefore);

    nn::TrainConfig retrain = _config.retrainConfig;
    retrain.epochs = _config.retrainEpochs;

    double bestError = 1.0;
    for (size_t iter = 0; iter < _config.maxIterations; ++iter) {
        projectWeights(net);
        ReinterpretedModel candidate = reinterpret(net, train);
        const double err = candidate.errorRate(*valPtr);
        result.history.push_back(
            {iter, err, err - result.baselineError});
        inform("composer iteration ", iter, ": clustered error ", err,
               " (baseline ", result.baselineError, ")");

        if (err < bestError || iter == 0) {
            bestError = err;
            result.model = std::move(candidate);
        }
        if (err - result.baselineError <= _config.epsilon)
            break;
        if (iter + 1 < _config.maxIterations) {
            nn::Trainer trainer(retrain);
            trainer.train(net, train);
            result.epochsRun += retrain.epochs;
        }
    }

    snapshotWeights(result.weightsAfter);
    result.clusteredError = bestError;
    result.deltaE = bestError - result.baselineError;
    result.composeSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - startTime).count();
    return result;
}

} // namespace rapidnn::composer
