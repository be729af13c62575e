#include "composer/reinterpreted_model.hh"

#include <algorithm>
#include <sstream>

#include "common/check.hh"

namespace rapidnn::composer {

namespace {

/** Weighted-sum -> activation -> encode for one neuron output. */
double
applyActivation(const RLayer &layer, double weightedSum)
{
    if (!layer.activation)
        return weightedSum;
    return layer.activation->lookup(weightedSum);
}

} // namespace

EncodedTensor
ReinterpretedModel::forwardEncoded(const RLayer &layer,
                                   const EncodedTensor &input,
                                   std::vector<double> *rawOut) const
{
    switch (layer.kind) {
      case RLayerKind::Dense: {
        RAPIDNN_ASSERT(input.codes.size() == layer.inCount,
                       "dense layer fan-in mismatch: got ",
                       input.codes.size(), " want ", layer.inCount);
        EncodedTensor out;
        out.shape = {layer.outCount};
        const bool last = layer.outputEncoder.empty();
        if (!last)
            out.codes.resize(layer.outCount);
        if (rawOut)
            rawOut->assign(layer.outCount, 0.0);

        const auto &codes = layer.weightCodes[0];
        for (size_t j = 0; j < layer.outCount; ++j) {
            double sum = layer.bias[j];
            for (size_t i = 0; i < layer.inCount; ++i) {
                const uint16_t w = codes[i * layer.outCount + j];
                sum += layer.product(0, w, input.codes[i]);
            }
            const double z = applyActivation(layer, sum);
            if (rawOut)
                (*rawOut)[j] = z;
            if (!last)
                out.codes[j] = static_cast<uint16_t>(
                    layer.outputEncoder.encode(z));
        }
        return out;
      }
      case RLayerKind::Conv: {
        RAPIDNN_ASSERT(input.shape.size() == 3,
                       "conv layer needs [C, H, W] input");
        const size_t inC = input.shape[0];
        const size_t h = input.shape[1], w = input.shape[2];
        RAPIDNN_ASSERT(inC == layer.inChannels, "conv channel mismatch");
        const size_t k = layer.kernel;
        const size_t oh = layer.samePadding ? h : h - k + 1;
        const size_t ow = layer.samePadding ? w : w - k + 1;
        const long off = layer.samePadding ? -long(k / 2) : 0;

        EncodedTensor out;
        out.shape = {layer.outCount, oh, ow};
        const bool last = layer.outputEncoder.empty();
        if (!last)
            out.codes.resize(layer.outCount * oh * ow);
        if (rawOut)
            rawOut->assign(layer.outCount * oh * ow, 0.0);

        for (size_t oc = 0; oc < layer.outCount; ++oc) {
            const auto &codes = layer.weightCodes[oc];
            for (size_t y = 0; y < oh; ++y) {
                for (size_t x = 0; x < ow; ++x) {
                    double sum = layer.bias[oc];
                    for (size_t ic = 0; ic < inC; ++ic) {
                        for (size_t ky = 0; ky < k; ++ky) {
                            const long iy = long(y) + long(ky) + off;
                            if (iy < 0 || iy >= long(h))
                                continue;
                            for (size_t kx = 0; kx < k; ++kx) {
                                const long ix = long(x) + long(kx) + off;
                                if (ix < 0 || ix >= long(w))
                                    continue;
                                const size_t widx =
                                    (ic * k + ky) * k + kx;
                                const size_t xidx =
                                    (ic * h + size_t(iy)) * w
                                    + size_t(ix);
                                sum += layer.product(
                                    oc, codes[widx], input.codes[xidx]);
                            }
                        }
                    }
                    const double z = applyActivation(layer, sum);
                    const size_t oidx = (oc * oh + y) * ow + x;
                    if (rawOut)
                        (*rawOut)[oidx] = z;
                    if (!last)
                        out.codes[oidx] = static_cast<uint16_t>(
                            layer.outputEncoder.encode(z));
                }
            }
        }
        return out;
      }
      case RLayerKind::MaxPool: {
        // Max pooling operates directly on encoded values: per-level
        // sorted codebooks make code order equal value order.
        RAPIDNN_ASSERT(input.shape.size() == 3,
                       "maxpool needs [C, H, W] input");
        const size_t ch = input.shape[0];
        const size_t h = input.shape[1], w = input.shape[2];
        const size_t win = layer.poolWindow;
        const size_t oh = h / win, ow = w / win;

        EncodedTensor out;
        out.shape = {ch, oh, ow};
        out.codes.resize(ch * oh * ow);
        for (size_t c = 0; c < ch; ++c)
            for (size_t y = 0; y < oh; ++y)
                for (size_t x = 0; x < ow; ++x) {
                    uint16_t best = 0;
                    bool first = true;
                    for (size_t ky = 0; ky < win; ++ky)
                        for (size_t kx = 0; kx < win; ++kx) {
                            const size_t idx =
                                (c * h + y * win + ky) * w + x * win + kx;
                            if (first || input.codes[idx] > best) {
                                best = input.codes[idx];
                                first = false;
                            }
                        }
                    out.codes[(c * oh + y) * ow + x] = best;
                }
        return out;
      }
      case RLayerKind::AvgPool: {
        // Average pooling decodes, accumulates in the crossbar, and
        // re-encodes (division folded into offline weight scaling).
        RAPIDNN_ASSERT(input.shape.size() == 3,
                       "avgpool needs [C, H, W] input");
        RAPIDNN_ASSERT(!layer.inputCodebook.empty(),
                       "avgpool needs the consumer codebook");
        const size_t ch = input.shape[0];
        const size_t h = input.shape[1], w = input.shape[2];
        const size_t win = layer.poolWindow;
        const size_t oh = h / win, ow = w / win;
        const double norm = 1.0 / double(win * win);

        EncodedTensor out;
        out.shape = {ch, oh, ow};
        out.codes.resize(ch * oh * ow);
        for (size_t c = 0; c < ch; ++c)
            for (size_t y = 0; y < oh; ++y)
                for (size_t x = 0; x < ow; ++x) {
                    double acc = 0.0;
                    for (size_t ky = 0; ky < win; ++ky)
                        for (size_t kx = 0; kx < win; ++kx) {
                            const size_t idx =
                                (c * h + y * win + ky) * w + x * win + kx;
                            acc += layer.inputCodebook.value(
                                input.codes[idx]);
                        }
                    out.codes[(c * oh + y) * ow + x] =
                        static_cast<uint16_t>(
                            layer.inputCodebook.encode(acc * norm));
                }
        return out;
      }
      case RLayerKind::Flatten: {
        EncodedTensor out;
        out.shape = {input.codes.size()};
        out.codes = input.codes;
        return out;
      }
      case RLayerKind::Recurrent: {
        // Elman cell unrolled over `steps`: each step accumulates the
        // x-operand products plus the hidden-state products fed back
        // through the input FIFO as the previous step's encoded
        // output (paper Section 4.3).
        const size_t hidden = layer.outCount;
        const size_t features = layer.inCount;
        RAPIDNN_ASSERT(input.codes.size() == layer.steps * features,
                       "recurrent layer expects [T*F] codes: got ",
                       input.codes.size(), " want ",
                       layer.steps * features);
        RAPIDNN_ASSERT(!layer.stateCodebook.empty(),
                       "recurrent layer without a state codebook");

        // Initial hidden state: encoded zero.
        std::vector<uint16_t> hCodes(
            hidden,
            static_cast<uint16_t>(layer.stateCodebook.encode(0.0)));
        std::vector<double> hRaw(hidden, 0.0);

        const auto &wxCodes = layer.weightCodes[0];
        const auto &whCodes = layer.stateWeightCodes[0];
        for (size_t t = 0; t < layer.steps; ++t) {
            std::vector<uint16_t> next(hidden);
            std::vector<double> nextRaw(hidden);
            for (size_t h = 0; h < hidden; ++h) {
                double sum = layer.bias[h];
                for (size_t f = 0; f < features; ++f)
                    sum += layer.product(
                        0, wxCodes[f * hidden + h],
                        input.codes[t * features + f]);
                for (size_t hp = 0; hp < hidden; ++hp)
                    sum += layer.stateProduct(
                        whCodes[hp * hidden + h], hCodes[hp]);
                const double z = applyActivation(layer, sum);
                nextRaw[h] = z;
                next[h] = static_cast<uint16_t>(
                    layer.stateCodebook.encode(z));
            }
            hCodes = std::move(next);
            hRaw = std::move(nextRaw);
        }

        EncodedTensor out;
        out.shape = {hidden};
        const bool last = layer.outputEncoder.empty();
        if (rawOut)
            *rawOut = hRaw;
        if (!last) {
            out.codes.resize(hidden);
            for (size_t h = 0; h < hidden; ++h)
                out.codes[h] = static_cast<uint16_t>(
                    layer.outputEncoder.encode(hRaw[h]));
        }
        return out;
      }
      case RLayerKind::Residual: {
        // The controller parks the encoded skip values in the FIFO,
        // runs the inner stack (its last compute layer leaves raw
        // values), folds the decoded skip into the sum in the
        // crossbar, then activation-encodes the result.
        RAPIDNN_ASSERT(!layer.inner.empty(), "empty residual block");
        RAPIDNN_ASSERT(!layer.inputCodebook.empty(),
                       "residual block needs its input codebook");

        EncodedTensor value = input;
        std::vector<double> raw;
        for (size_t i = 0; i < layer.inner.size(); ++i) {
            const bool lastInner = i + 1 == layer.inner.size();
            value = forwardEncoded(layer.inner[i], value,
                                   lastInner ? &raw : nullptr);
        }
        RAPIDNN_ASSERT(raw.size() == input.codes.size(),
                       "residual inner stack changed shape: ",
                       raw.size(), " != ", input.codes.size());

        EncodedTensor out;
        out.shape = input.shape;
        const bool last = layer.outputEncoder.empty();
        if (!last)
            out.codes.resize(raw.size());
        if (rawOut)
            rawOut->resize(raw.size());
        for (size_t i = 0; i < raw.size(); ++i) {
            double summed =
                raw[i] + layer.inputCodebook.value(input.codes[i]);
            // Post-add activation (e.g. ResNet's add-then-ReLU).
            summed = applyActivation(layer, summed);
            if (rawOut)
                (*rawOut)[i] = summed;
            if (!last)
                out.codes[i] = static_cast<uint16_t>(
                    layer.outputEncoder.encode(summed));
        }
        return out;
      }
    }
    panic("unknown reinterpreted layer kind");
}

std::vector<double>
ReinterpretedModel::forward(const nn::Tensor &x) const
{
    RAPIDNN_ASSERT(!_layers.empty(), "forward on empty model");
    RAPIDNN_ASSERT(!_inputEncoder.empty(), "input encoder unconfigured");

    // Virtual input layer: encode raw data.
    EncodedTensor enc;
    enc.shape = x.shape();
    enc.codes.resize(x.numel());
    for (size_t i = 0; i < x.numel(); ++i)
        enc.codes[i] = static_cast<uint16_t>(_inputEncoder.encode(x[i]));

    // The last value-producing layer emits raw logits.
    size_t lastCompute = _layers.size() - 1;
    for (size_t l = _layers.size(); l-- > 0;) {
        const RLayerKind kind = _layers[l].kind;
        if (kind == RLayerKind::Dense || kind == RLayerKind::Conv ||
            kind == RLayerKind::Residual ||
            kind == RLayerKind::Recurrent) {
            lastCompute = l;
            break;
        }
    }

    std::vector<double> logits;
    for (size_t l = 0; l < _layers.size(); ++l) {
        std::vector<double> raw;
        enc = forwardEncoded(_layers[l], enc,
                             l == lastCompute ? &raw : nullptr);
        if (l == lastCompute)
            logits = std::move(raw);
    }
    return logits;
}

int
ReinterpretedModel::predict(const nn::Tensor &x) const
{
    const std::vector<double> logits = forward(x);
    RAPIDNN_ASSERT(!logits.empty(), "model produced no logits");
    return static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
}

double
ReinterpretedModel::errorRate(const nn::Dataset &data) const
{
    RAPIDNN_ASSERT(data.size() > 0, "errorRate on empty dataset");
    size_t wrong = 0;
    for (const auto &sample : data.samples())
        if (predict(sample.x) != sample.label)
            ++wrong;
    return static_cast<double>(wrong) / static_cast<double>(data.size());
}

namespace {

size_t
layerBits(const RLayer &layer)
{
    size_t bits = 0;
    if (layer.kind == RLayerKind::Residual) {
        for (const RLayer &inner : layer.inner)
            bits += layerBits(inner);
        if (layer.activation)
            bits += layer.activation->rows() * 64;
        bits += layer.outputEncoder.entries() * 64;
        return bits;
    }
    if (layer.kind != RLayerKind::Dense &&
        layer.kind != RLayerKind::Conv &&
        layer.kind != RLayerKind::Recurrent)
        return 0;
    const size_t wBits = layer.weightCodebooks.empty()
        ? 0 : layer.weightCodebooks[0].bits();
    for (const auto &codes : layer.weightCodes)
        bits += codes.size() * wBits;
    for (const auto &table : layer.productTables)
        bits += table.size() * 32;
    // Recurrent layers also store the feedback-path tables.
    for (const auto &codes : layer.stateWeightCodes)
        bits += codes.size() * wBits;
    for (const auto &table : layer.stateProductTables)
        bits += table.size() * 32;
    bits += layer.stateCodebook.size() * 64;
    if (layer.activation)
        bits += layer.activation->rows() * 64;
    bits += layer.outputEncoder.entries() * 64;
    bits += layer.bias.size() * 32;
    return bits;
}

} // namespace

size_t
ReinterpretedModel::memoryBytes() const
{
    size_t bits = 0;
    bits += _inputEncoder.entries() * 64;  // key + payload rows
    for (const auto &layer : _layers)
        bits += layerBits(layer);
    return (bits + 7) / 8;
}

std::string
ReinterpretedModel::describe() const
{
    std::ostringstream os;
    for (size_t i = 0; i < _layers.size(); ++i) {
        const RLayer &l = _layers[i];
        if (i)
            os << " | ";
        switch (l.kind) {
          case RLayerKind::Dense:
            os << "dense(" << l.inCount << "->" << l.outCount << ") w="
               << l.weightEntries() << " u=" << l.inputEntries();
            break;
          case RLayerKind::Conv:
            os << "conv(" << l.inChannels << "->" << l.outCount << ","
               << l.kernel << "x" << l.kernel << ") w="
               << l.weightEntries() << " u=" << l.inputEntries();
            break;
          case RLayerKind::MaxPool:
            os << "maxpool(" << l.poolWindow << ")";
            break;
          case RLayerKind::AvgPool:
            os << "avgpool(" << l.poolWindow << ")";
            break;
          case RLayerKind::Flatten:
            os << "flatten";
            break;
          case RLayerKind::Residual:
            os << "residual{" << l.inner.size() << " layers}";
            break;
          case RLayerKind::Recurrent:
            os << "elman(" << l.inCount << "x" << l.steps << "->"
               << l.outCount << ") w=" << l.weightEntries() << " u="
               << l.inputEntries();
            break;
        }
    }
    return os.str();
}

bool
tallyPacks(const RLayer &layer)
{
    if (layer.kind != RLayerKind::Dense && layer.kind != RLayerKind::Conv &&
        layer.kind != RLayerKind::Recurrent)
        return false;
    bool packs = !layer.weightCodebooks.empty();
    for (const auto &cb : layer.weightCodebooks)
        packs = packs && cb.size() <= 256;
    if (layer.kind == RLayerKind::Recurrent)
        packs = packs && !layer.stateWeightCodebooks.empty() &&
                layer.stateWeightCodebooks[0].size() <= 256;
    return packs;
}

std::vector<uint8_t>
tallyRows8Of(const RLayer &layer, bool statePath)
{
    RAPIDNN_ASSERT(tallyPacks(layer),
                   "tally rows need weight codebooks of <= 256 entries");
    const size_t stride = tallyRowStride(layer.outCount);
    const size_t rows = tallyRowCount(layer, statePath);
    std::vector<uint8_t> out(rows * stride, 0);
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < layer.outCount; ++j)
            out[i * stride + j] = static_cast<uint8_t>(
                tallyWeightCode(layer, statePath, i, j));
    return out;
}

nn::Shape
layerOutputShape(const RLayer &layer, const nn::Shape &in)
{
    auto numel = [](const nn::Shape &s) {
        size_t n = 1;
        for (size_t d : s)
            n *= d;
        return n;
    };
    switch (layer.kind) {
      case RLayerKind::Dense:
        return {layer.outCount};
      case RLayerKind::Conv: {
        RAPIDNN_CHECK(in.size() == 3, "conv layer needs [C, H, W] input");
        const size_t h = in[1], w = in[2];
        const size_t k = layer.kernel;
        RAPIDNN_CHECK(layer.samePadding || (h >= k && w >= k),
                      "conv input smaller than kernel");
        const size_t oh = layer.samePadding ? h : h - k + 1;
        const size_t ow = layer.samePadding ? w : w - k + 1;
        return {layer.outCount, oh, ow};
      }
      case RLayerKind::MaxPool:
      case RLayerKind::AvgPool: {
        RAPIDNN_CHECK(in.size() == 3, "pool layer needs [C, H, W] input");
        RAPIDNN_CHECK(layer.poolWindow >= 1, "pool window must be >= 1");
        return {in[0], in[1] / layer.poolWindow,
                in[2] / layer.poolWindow};
      }
      case RLayerKind::Flatten:
        return {numel(in)};
      case RLayerKind::Residual:
        return in;
      case RLayerKind::Recurrent:
        return {layer.outCount};
    }
    panic("unknown reinterpreted layer kind");
}

void
walkLayerShapes(const std::vector<RLayer> &layers, const nn::Shape &input,
                const std::function<void(const RLayer &, const nn::Shape &,
                                         const nn::Shape &)> &fn)
{
    nn::Shape shape = input;
    for (const RLayer &layer : layers) {
        nn::Shape out = layerOutputShape(layer, shape);
        fn(layer, shape, out);
        if (layer.kind == RLayerKind::Residual)
            walkLayerShapes(layer.inner, shape, fn);
        shape = std::move(out);
    }
}

} // namespace rapidnn::composer
