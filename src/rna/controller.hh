/**
 * @file
 * The RAPIDNN controller's mapping plan (paper Section 4.3).
 *
 * The controller "maps the computation of different DNN layers into
 * RNA blocks", assigns per-tile configuration registers, sizes the
 * input FIFOs (whose depth is set by the largest layer's fan-in),
 * routes residual skip values and recurrent feedback, and sequences
 * the layer pipeline. This module is the one place that mapping is
 * decided. Walking a model at its canonical input shape, the plan
 * records per layer the evaluations it performs (which set its waves),
 * the table sets it holds (which set the blocks it occupies), its tile
 * range, FIFO depth and transfer schedule. Chip::configure builds the
 * plan once and charges every layer walk from it; RnaPerfModel plans
 * a NetworkShape by the same per-layer rule.
 */

#ifndef RAPIDNN_RNA_CONTROLLER_HH
#define RAPIDNN_RNA_CONTROLLER_HH

#include <string>
#include <vector>

#include "composer/reinterpreted_model.hh"
#include "nn/topology.hh"
#include "rna/chip.hh"

namespace rapidnn::rna {

/** Passes `items` take at one per RNA block (or broadcast lane) per
 *  pass: pooling windows, broadcast values. */
size_t blockWaves(const ChipConfig &config, size_t items);

/** Passes a compute layer's `evaluations` take over the blocks left
 *  once config.rnaSharing folds shared neurons together (at least
 *  one). */
size_t computeWaves(const ChipConfig &config, size_t evaluations);

/** How a layer maps onto the fabric. */
struct LayerAssignment
{
    std::string description;      //!< e.g. "dense(784->512)"
    composer::RLayerKind kind;
    /** Neuron evaluations (per recurrent step) or pooling windows per
     *  inference; a conv layer evaluates every channel at every
     *  output position. Sets the waves. */
    size_t evaluations = 0;
    /** Distinct table sets the layer holds: one per neuron, one per
     *  channel on a conv layer. Sets the blocks it occupies. */
    size_t tableSets = 0;
    size_t rnaBlocks = 0;         //!< physical blocks assigned
    size_t waves = 1;             //!< sequential passes over blocks
    size_t firstTile = 0;         //!< tile range [firstTile, lastTile]
    size_t lastTile = 0;
    size_t fifoDepth = 0;         //!< input FIFO entries per block
    size_t broadcastBits = 0;     //!< encoded bits leaving the layer
    bool feedbackLoop = false;    //!< recurrent self-route
    bool skipRoute = false;       //!< residual skip FIFO parked
    size_t depth = 0;             //!< nesting depth (residual inner)
};

/** The whole mapping plan. */
struct MappingPlan
{
    /** One entry per layer in execution order, residual inner layers
     *  right after their block (composer::walkLayerShapes order). */
    std::vector<LayerAssignment> assignments;
    size_t totalRnasUsed = 0;     //!< blocks the layers' tables occupy
    size_t tilesUsed = 0;
    size_t chipsUsed = 0;
    size_t maxFifoDepth = 0;      //!< controller FIFO sizing
    /** Occupied blocks (clamped to [1, all]) over all blocks: the share
     *  of the chip that leaks while it runs; the rest clock gates. */
    double utilization = 0.0;
    bool fits = true;             //!< true when no layer needs waves

    /** Multi-line human-readable rendering. */
    std::string describe() const;
};

/**
 * The controller: plans layer-to-block mappings for a chip
 * configuration.
 */
class Controller
{
  public:
    explicit Controller(ChipConfig config) : _config(config) {}

    /** Plan a composed model at its canonical input shape (fatal when
     *  it has none). */
    MappingPlan plan(const composer::ReinterpretedModel &model) const;

    /** Plan a layer-shape summary (the analytic model's input): each
     *  layer evaluates the output values of one step (a recurrent
     *  layer runs `steps` of them) and holds its distinct neurons'
     *  tables. */
    MappingPlan plan(const nn::NetworkShape &shape) const;

  private:
    ChipConfig _config;

    /** Append an assignment, its waves, blocks and tile range set
     *  from its evaluations and table sets. */
    void schedule(LayerAssignment a, MappingPlan &out) const;

    /** The plan with its chip-wide totals. */
    MappingPlan finish(MappingPlan out) const;
};

} // namespace rapidnn::rna

#endif // RAPIDNN_RNA_CONTROLLER_HH
