#include "nn/topology.hh"

#include "common/check.hh"
#include "nn/recurrent.hh"

namespace rapidnn::nn {

uint64_t
NetworkShape::totalMacs() const
{
    uint64_t total = 0;
    for (const auto &l : layers)
        total += l.macs();
    return total;
}

uint64_t
NetworkShape::totalOps() const
{
    uint64_t total = 0;
    for (const auto &l : layers) {
        if (l.kind == LayerKind::MaxPool2D ||
            l.kind == LayerKind::AvgPool2D) {
            // One compare (or add) per pooled input element.
            total += static_cast<uint64_t>(l.neurons) * l.fanIn;
        } else {
            total += 2 * l.macs();  // multiply + add
        }
    }
    return total;
}

size_t
NetworkShape::totalParams() const
{
    size_t total = 0;
    for (const auto &l : layers)
        total += l.params;
    return total;
}

size_t
NetworkShape::maxFanIn() const
{
    size_t worst = 0;
    for (const auto &l : layers)
        worst = std::max(worst, l.fanIn);
    return worst;
}

bool
NetworkShape::hasConvolution() const
{
    for (const auto &l : layers)
        if (l.kind == LayerKind::Conv2D)
            return true;
    return false;
}

namespace {

/** Walk a layer stack, tracking the activation shape. */
void
collectShapes(const std::vector<LayerPtr> &layers, Shape &shape,
              std::vector<LayerShape> &out)
{
    for (const auto &layerPtr : layers) {
        const Layer &layer = *layerPtr;
        switch (layer.kind()) {
          case LayerKind::Dense: {
            const auto &dense = static_cast<const DenseLayer &>(layer);
            out.push_back({LayerKind::Dense, dense.outFeatures(),
                           dense.inFeatures(),
                           dense.inFeatures() * dense.outFeatures()
                               + dense.outFeatures(),
                           dense.outFeatures()});
            shape = {dense.outFeatures()};
            break;
          }
          case LayerKind::Conv2D: {
            const auto &conv = static_cast<const Conv2DLayer &>(layer);
            RAPIDNN_ASSERT(shape.size() == 3, "conv after non-image shape");
            const size_t oh = conv.outSize(shape[1]);
            const size_t ow = conv.outSize(shape[2]);
            const size_t fanIn =
                conv.inChannels() * conv.kernel() * conv.kernel();
            out.push_back({LayerKind::Conv2D,
                           conv.outChannels() * oh * ow, fanIn,
                           fanIn * conv.outChannels() + conv.outChannels(),
                           conv.outChannels()});
            shape = {conv.outChannels(), oh, ow};
            break;
          }
          case LayerKind::MaxPool2D: {
            const auto &pool = static_cast<const MaxPool2DLayer &>(layer);
            RAPIDNN_ASSERT(shape.size() == 3, "pool after non-image shape");
            const size_t oh = shape[1] / pool.window();
            const size_t ow = shape[2] / pool.window();
            out.push_back({LayerKind::MaxPool2D, shape[0] * oh * ow,
                           pool.window() * pool.window(), 0, shape[0]});
            shape = {shape[0], oh, ow};
            break;
          }
          case LayerKind::AvgPool2D: {
            const auto &pool = static_cast<const AvgPool2DLayer &>(layer);
            RAPIDNN_ASSERT(shape.size() == 3, "pool after non-image shape");
            const size_t oh = shape[1] / pool.window();
            const size_t ow = shape[2] / pool.window();
            out.push_back({LayerKind::AvgPool2D, shape[0] * oh * ow,
                           pool.window() * pool.window(), 0, shape[0]});
            shape = {shape[0], oh, ow};
            break;
          }
          case LayerKind::Flatten: {
            shape = {shapeNumel(shape)};
            break;
          }
          case LayerKind::Residual: {
            const auto &res = static_cast<const ResidualLayer &>(layer);
            Shape inner = shape;
            collectShapes(res.inner(), inner, out);
            RAPIDNN_ASSERT(inner == shape,
                           "residual inner stack changed shape");
            break;
          }
          case LayerKind::Recurrent: {
            const auto &rec = static_cast<const ElmanLayer &>(layer);
            // Each of T steps computes H neurons over F inputs plus
            // the H-wide hidden-state feedback; the weight matrices
            // (Wx, Wh) and bias are shared across steps.
            const size_t fanIn = rec.features() + rec.hidden();
            out.push_back({LayerKind::Recurrent,
                           rec.hidden() * rec.steps(), fanIn,
                           fanIn * rec.hidden() + rec.hidden(),
                           rec.hidden(), rec.steps()});
            shape = {rec.hidden()};
            break;
          }
          case LayerKind::Activation:
          case LayerKind::Dropout:
          case LayerKind::Softmax:
            break;  // shape-preserving, no accumulation hardware
        }
    }
}

/** Helper to append a conv layer shape for the catalog topologies. */
void
conv(std::vector<LayerShape> &out, size_t outC, size_t inC, size_t k,
     size_t outSide)
{
    const size_t fanIn = inC * k * k;
    out.push_back({LayerKind::Conv2D, outC * outSide * outSide, fanIn,
                   fanIn * outC + outC, outC});
}

void
dense(std::vector<LayerShape> &out, size_t in, size_t outN)
{
    out.push_back({LayerKind::Dense, outN, in, in * outN + outN, outN});
}

void
maxpool(std::vector<LayerShape> &out, size_t channels, size_t k,
        size_t outSide)
{
    out.push_back({LayerKind::MaxPool2D, channels * outSide * outSide,
                   k * k, 0, channels});
}

void
avgpool(std::vector<LayerShape> &out, size_t channels, size_t k,
        size_t outSide)
{
    out.push_back({LayerKind::AvgPool2D, channels * outSide * outSide,
                   k * k, 0, channels});
}

NetworkShape
alexNetShape()
{
    // Standard single-tower AlexNet dimensions (~0.7 G MACs).
    NetworkShape net{"AlexNet", {}};
    auto &l = net.layers;
    conv(l, 96, 3, 11, 55);
    maxpool(l, 96, 2, 27);
    conv(l, 256, 96, 5, 27);
    maxpool(l, 256, 2, 13);
    conv(l, 384, 256, 3, 13);
    conv(l, 384, 384, 3, 13);
    conv(l, 256, 384, 3, 13);
    maxpool(l, 256, 2, 6);
    dense(l, 256 * 6 * 6, 4096);
    dense(l, 4096, 4096);
    dense(l, 4096, 1000);
    return net;
}

NetworkShape
vgg16Shape()
{
    // VGG-16 configuration D (~15.5 G MACs).
    NetworkShape net{"VGGNet", {}};
    auto &l = net.layers;
    conv(l, 64, 3, 3, 224);
    conv(l, 64, 64, 3, 224);
    maxpool(l, 64, 2, 112);
    conv(l, 128, 64, 3, 112);
    conv(l, 128, 128, 3, 112);
    maxpool(l, 128, 2, 56);
    conv(l, 256, 128, 3, 56);
    conv(l, 256, 256, 3, 56);
    conv(l, 256, 256, 3, 56);
    maxpool(l, 256, 2, 28);
    conv(l, 512, 256, 3, 28);
    conv(l, 512, 512, 3, 28);
    conv(l, 512, 512, 3, 28);
    maxpool(l, 512, 2, 14);
    conv(l, 512, 512, 3, 14);
    conv(l, 512, 512, 3, 14);
    conv(l, 512, 512, 3, 14);
    maxpool(l, 512, 2, 7);
    dense(l, 512 * 7 * 7, 4096);
    dense(l, 4096, 4096);
    dense(l, 4096, 1000);
    return net;
}

/** One Inception module: parallel 1x1 / 3x3 / 5x5 / pool-proj branches. */
void
inception(std::vector<LayerShape> &l, size_t inC, size_t side, size_t c1,
          size_t c3r, size_t c3, size_t c5r, size_t c5, size_t proj)
{
    conv(l, c1, inC, 1, side);
    conv(l, c3r, inC, 1, side);
    conv(l, c3, c3r, 3, side);
    conv(l, c5r, inC, 1, side);
    conv(l, c5, c5r, 5, side);
    maxpool(l, inC, 1, side);  // 3x3/s1 pool approximated as pass cost
    conv(l, proj, inC, 1, side);
}

NetworkShape
googLeNetShape()
{
    // GoogLeNet (Inception v1), nine inception modules (~1.5 G MACs).
    NetworkShape net{"GoogLeNet", {}};
    auto &l = net.layers;
    conv(l, 64, 3, 7, 112);
    maxpool(l, 64, 2, 56);
    conv(l, 64, 64, 1, 56);
    conv(l, 192, 64, 3, 56);
    maxpool(l, 192, 2, 28);
    inception(l, 192, 28, 64, 96, 128, 16, 32, 32);   // 3a -> 256
    inception(l, 256, 28, 128, 128, 192, 32, 96, 64); // 3b -> 480
    maxpool(l, 480, 2, 14);
    inception(l, 480, 14, 192, 96, 208, 16, 48, 64);  // 4a -> 512
    inception(l, 512, 14, 160, 112, 224, 24, 64, 64); // 4b
    inception(l, 512, 14, 128, 128, 256, 24, 64, 64); // 4c
    inception(l, 512, 14, 112, 144, 288, 32, 64, 64); // 4d -> 528
    inception(l, 528, 14, 256, 160, 320, 32, 128, 128); // 4e -> 832
    maxpool(l, 832, 2, 7);
    inception(l, 832, 7, 256, 160, 320, 32, 128, 128); // 5a
    inception(l, 832, 7, 384, 192, 384, 48, 128, 128); // 5b -> 1024
    avgpool(l, 1024, 7, 1);
    dense(l, 1024, 1000);
    return net;
}

/** One ResNet bottleneck: 1x1 down, 3x3, 1x1 up. */
void
bottleneck(std::vector<LayerShape> &l, size_t inC, size_t midC,
           size_t outC, size_t side)
{
    conv(l, midC, inC, 1, side);
    conv(l, midC, midC, 3, side);
    conv(l, outC, midC, 1, side);
}

NetworkShape
resNet152Shape()
{
    // ResNet-152: stages of [3, 8, 36, 3] bottlenecks (~11.3 G MACs).
    NetworkShape net{"ResNet", {}};
    auto &l = net.layers;
    conv(l, 64, 3, 7, 112);
    maxpool(l, 64, 2, 56);

    const struct { size_t blocks, mid, outC, side; } stages[] = {
        {3, 64, 256, 56},
        {8, 128, 512, 28},
        {36, 256, 1024, 14},
        {3, 512, 2048, 7},
    };
    size_t inC = 64;
    for (const auto &s : stages) {
        for (size_t b = 0; b < s.blocks; ++b) {
            bottleneck(l, inC, s.mid, s.outC, s.side);
            inC = s.outC;
        }
    }
    avgpool(l, 2048, 7, 1);
    dense(l, 2048, 1000);
    return net;
}

} // namespace

NetworkShape
shapeOfNetwork(const Network &net, const Shape &inputShape,
               const std::string &name)
{
    NetworkShape out{name, {}};
    Shape shape = inputShape;
    collectShapes(net.layers(), shape, out.layers);
    return out;
}

std::string
imageNetModelName(ImageNetModel m)
{
    switch (m) {
      case ImageNetModel::AlexNet: return "AlexNet";
      case ImageNetModel::Vgg16: return "VGGNet";
      case ImageNetModel::GoogLeNet: return "GoogLeNet";
      case ImageNetModel::ResNet152: return "ResNet";
    }
    panic("unknown ImageNet model");
}

const std::vector<ImageNetModel> &
allImageNetModels()
{
    static const std::vector<ImageNetModel> all = {
        ImageNetModel::AlexNet, ImageNetModel::Vgg16,
        ImageNetModel::GoogLeNet, ImageNetModel::ResNet152,
    };
    return all;
}

NetworkShape
imageNetShape(ImageNetModel m)
{
    switch (m) {
      case ImageNetModel::AlexNet: return alexNetShape();
      case ImageNetModel::Vgg16: return vgg16Shape();
      case ImageNetModel::GoogLeNet: return googLeNetShape();
      case ImageNetModel::ResNet152: return resNet152Shape();
    }
    panic("unknown ImageNet model");
}

namespace {

/** Table 2 MLP: IN -> 512 -> 512 -> classes. */
NetworkShape
fcBenchmarkShape(const std::string &name, size_t inputs, size_t classes)
{
    NetworkShape net{name, {}};
    dense(net.layers, inputs, 512);
    dense(net.layers, 512, 512);
    dense(net.layers, 512, classes);
    return net;
}

/** Table 2 CNN at 32x32: CV:32, PL:2, CV:64, CV:64, FC:512, FC:c. */
NetworkShape
cifarBenchmarkShape(const std::string &name, size_t classes)
{
    NetworkShape net{name, {}};
    auto &l = net.layers;
    conv(l, 32, 3, 3, 32);
    maxpool(l, 32, 2, 16);
    conv(l, 64, 32, 3, 16);
    conv(l, 64, 64, 3, 16);
    maxpool(l, 64, 2, 8);
    dense(l, 64 * 8 * 8, 512);
    dense(l, 512, classes);
    return net;
}

} // namespace

NetworkShape
paperBenchmarkShape(Benchmark b)
{
    switch (b) {
      case Benchmark::Mnist:
        return fcBenchmarkShape("MNIST", 784, 10);
      case Benchmark::Isolet:
        return fcBenchmarkShape("ISOLET", 617, 26);
      case Benchmark::Har:
        return fcBenchmarkShape("HAR", 561, 19);
      case Benchmark::Cifar10:
        return cifarBenchmarkShape("CIFAR-10", 10);
      case Benchmark::Cifar100:
        return cifarBenchmarkShape("CIFAR-100", 100);
      case Benchmark::ImageNet: {
        NetworkShape net = vgg16Shape();
        net.name = "ImageNet";
        return net;
      }
    }
    panic("unknown benchmark");
}

} // namespace rapidnn::nn
