#include "rna/controller.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/bitops.hh"
#include "common/check.hh"

namespace rapidnn::rna {

using composer::RLayer;
using composer::RLayerKind;

namespace {

std::string
layerDescription(const RLayer &layer)
{
    std::ostringstream os;
    switch (layer.kind) {
      case RLayerKind::Dense:
        os << "dense(" << layer.inCount << "->" << layer.outCount
           << ")";
        break;
      case RLayerKind::Conv:
        os << "conv(" << layer.inChannels << "->" << layer.outCount
           << "," << layer.kernel << "x" << layer.kernel << ")";
        break;
      case RLayerKind::MaxPool:
        os << "maxpool(" << layer.poolWindow << ")";
        break;
      case RLayerKind::AvgPool:
        os << "avgpool(" << layer.poolWindow << ")";
        break;
      case RLayerKind::Flatten:
        os << "flatten";
        break;
      case RLayerKind::Residual:
        os << "residual{" << layer.inner.size() << "}";
        break;
      case RLayerKind::Recurrent:
        os << "elman(" << layer.inCount << "x" << layer.steps << "->"
           << layer.outCount << ")";
        break;
    }
    return os.str();
}

bool
isPooling(RLayerKind kind)
{
    return kind == RLayerKind::MaxPool || kind == RLayerKind::AvgPool;
}

/** Bits of one code of a `target` codebook a layer's outputs leave in
 *  (0 when it emits none). */
size_t
codeBits(const quant::Codebook &target)
{
    return target.empty() ? 0 : target.bits();
}

} // namespace

size_t
blockWaves(const ChipConfig &config, size_t items)
{
    const size_t blocks = std::max<size_t>(1, config.totalRnas());
    return (items + blocks - 1) / blocks;
}

size_t
computeWaves(const ChipConfig &config, size_t evaluations)
{
    const double effective = static_cast<double>(config.totalRnas())
                           * (1.0 - config.rnaSharing);
    return static_cast<size_t>(std::ceil(
        static_cast<double>(evaluations) / std::max(1.0, effective)));
}

void
Controller::schedule(LayerAssignment a, MappingPlan &out) const
{
    const size_t total = _config.totalRnas();
    const size_t rnasPerTile = _config.cost.rnasPerTile;
    if (a.evaluations > 0)
        a.waves = isPooling(a.kind)
            ? blockWaves(_config, a.evaluations)
            : computeWaves(_config, a.evaluations);
    if (a.tableSets > 0) {
        // Layers take consecutive blocks, tile after tile.
        a.rnaBlocks = std::min(a.tableSets, total);
        a.firstTile = out.totalRnasUsed / rnasPerTile;
        out.totalRnasUsed += a.rnaBlocks;
        a.lastTile = (out.totalRnasUsed - 1) / rnasPerTile;
    }
    out.maxFifoDepth = std::max(out.maxFifoDepth, a.fifoDepth);
    out.fits = out.fits && a.waves <= 1;
    out.assignments.push_back(std::move(a));
}

MappingPlan
Controller::finish(MappingPlan out) const
{
    const size_t total = _config.totalRnas();
    const size_t rnasPerTile = _config.cost.rnasPerTile;
    const size_t rnasPerChip = rnasPerTile * _config.cost.tilesPerChip;
    out.tilesUsed = (out.totalRnasUsed + rnasPerTile - 1) / rnasPerTile;
    out.chipsUsed = std::min(
        std::max<size_t>(
            1, (out.totalRnasUsed + rnasPerChip - 1) / rnasPerChip),
        _config.chips);
    out.utilization = static_cast<double>(std::max<size_t>(
                          1, std::min(out.totalRnasUsed, total)))
                    / static_cast<double>(total);
    return out;
}

MappingPlan
Controller::plan(const composer::ReinterpretedModel &model) const
{
    const nn::Shape &shape = model.canonicalInputShape();
    RAPIDNN_CHECK(!shape.empty(),
                  "controller: the model has no canonical input shape");

    MappingPlan out;
    // The walk visits a residual block's inner layers right after it;
    // `open` counts the inner layers each enclosing block has left.
    std::vector<size_t> open;
    composer::walkLayerShapes(
        model.layers(), shape,
        [&](const RLayer &layer, const nn::Shape &,
            const nn::Shape &outShape) {
            while (!open.empty() && open.back() == 0)
                open.pop_back();
            LayerAssignment a;
            a.description = layerDescription(layer);
            a.kind = layer.kind;
            a.depth = open.size();
            if (!open.empty())
                --open.back();
            switch (layer.kind) {
              case RLayerKind::Dense:
              case RLayerKind::Conv:
              case RLayerKind::Recurrent:
                a.evaluations = nn::shapeNumel(outShape);
                a.tableSets = layer.outCount;
                a.fifoDepth = layer.inCount;
                if (layer.kind == RLayerKind::Recurrent) {
                    a.feedbackLoop = true;
                    // The FIFO also holds the fed-back hidden state.
                    a.fifoDepth += layer.outCount;
                }
                a.broadcastBits = codeBits(layer.outputEncoder.target());
                break;
              case RLayerKind::MaxPool:
              case RLayerKind::AvgPool:
                // Pooling reuses the upstream layer's encoding AM
                // blocks, one window per block per pass.
                a.evaluations = nn::shapeNumel(outShape);
                a.fifoDepth = layer.poolWindow * layer.poolWindow;
                // Pool and flatten layers pass codes of the consumer's
                // codebook on.
                a.broadcastBits = codeBits(layer.inputCodebook);
                break;
              case RLayerKind::Residual:
                a.skipRoute = true;
                a.fifoDepth = 1;  // the skip value parks one entry deep
                a.broadcastBits = codeBits(layer.outputEncoder.target());
                open.push_back(layer.inner.size());
                break;
              case RLayerKind::Flatten:
                a.broadcastBits = codeBits(layer.inputCodebook);
                break;
            }
            schedule(std::move(a), out);
        });
    return finish(std::move(out));
}

MappingPlan
Controller::plan(const nn::NetworkShape &shape) const
{
    MappingPlan out;
    for (const nn::LayerShape &layer : shape.layers) {
        using nn::LayerKind;
        LayerAssignment a;
        a.kind = layer.kind == LayerKind::Conv2D    ? RLayerKind::Conv
               : layer.kind == LayerKind::MaxPool2D ? RLayerKind::MaxPool
               : layer.kind == LayerKind::AvgPool2D ? RLayerKind::AvgPool
               : layer.kind == LayerKind::Recurrent ? RLayerKind::Recurrent
                                                    : RLayerKind::Dense;
        a.description = "layer(" + std::to_string(layer.fanIn) + "->"
                      + std::to_string(layer.neurons) + ")";
        a.evaluations = layer.stepNeurons();
        a.tableSets = isPooling(a.kind) ? 0 : layer.distinctNeurons;
        a.fifoDepth = layer.fanIn;
        a.feedbackLoop = a.kind == RLayerKind::Recurrent;
        schedule(std::move(a), out);
    }
    return finish(std::move(out));
}

std::string
MappingPlan::describe() const
{
    std::ostringstream os;
    os << "mapping plan: " << totalRnasUsed << " RNA blocks over "
       << tilesUsed << " tiles (" << chipsUsed << " chip"
       << (chipsUsed == 1 ? "" : "s") << "), utilization "
       << utilization * 100.0 << "%, max FIFO depth " << maxFifoDepth
       << (fits ? ", fully resident" : ", wave-scheduled") << "\n";
    for (const auto &a : assignments) {
        os << std::string(2 + 2 * a.depth, ' ') << a.description;
        if (a.tableSets > 0) {
            os << ": " << a.rnaBlocks << " blocks, tiles ["
               << a.firstTile << ", " << a.lastTile << "], waves "
               << a.waves << ", fifo " << a.fifoDepth;
            if (a.broadcastBits > 0)
                os << ", " << a.broadcastBits << "-bit broadcast";
            if (a.feedbackLoop)
                os << ", feedback loop";
        } else if (a.skipRoute) {
            os << ": skip FIFO parked";
        } else if (isPooling(a.kind)) {
            os << ": pooling window fifo " << a.fifoDepth << ", waves "
               << a.waves;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace rapidnn::rna
