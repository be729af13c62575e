#include "rna/perf_model.hh"

#include <algorithm>
#include <cmath>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "nvm/crossbar.hh"
#include "rna/controller.hh"

namespace rapidnn::rna {

namespace {

/** Imbalance margin on parallel counting (max vs mean bucket). */
constexpr double kCountingBalanceFactor = 1.2;

/** Banked crossbar read ports serving product fetches. */
constexpr double kFetchBanks = 4.0;

} // namespace

size_t
RnaPerfModel::expectedAddends(size_t fanIn) const
{
    // A neuron with n incoming edges touches at most min(n, w*u)
    // distinct counters. When counters exceed 1, the CSD decomposition
    // contributes roughly one extra addend per doubling of the mean
    // repeat count (nonzero signed digits grow with log2 of the value).
    const double cells = static_cast<double>(
        _model.weightEntries * _model.inputEntries);
    const double n = static_cast<double>(fanIn);
    const double distinct = std::min(n, cells);
    const double meanCount = std::max(1.0, n / cells);
    const double digitsPerCounter =
        1.0 + std::max(0.0, std::log2(meanCount)) / 3.0;
    return static_cast<size_t>(std::ceil(distinct * digitsPerCounter));
}

uint64_t
RnaPerfModel::neuronCycles(size_t fanIn) const
{
    const nvm::CostModel &cost = _chip.cost;

    // Parallel counting: ~ceil(n / w) cycles plus imbalance margin.
    const double counting = std::ceil(
        static_cast<double>(fanIn)
        / static_cast<double>(_model.weightEntries))
        * kCountingBalanceFactor;

    // Product fetches: one crossbar read per distinct product used.
    const double fetch = std::min<double>(
        static_cast<double>(fanIn),
        static_cast<double>(_model.weightEntries
                            * _model.inputEntries));

    // Adder tree: log_{3/2} stages of 13 cycles + 13*N propagate.
    const size_t addends = expectedAddends(fanIn) + 1;  // + bias
    const size_t stages = nvm::CrossbarArray::treeStages(addends);
    const double adder = static_cast<double>(
        cost.csaStageCycles * stages
        + cost.carryPropagateCyclesPerBit * _model.accumulatorBits);

    // Activation + encoding AM searches (pipelined stages) + reads.
    const double amCycles = static_cast<double>(
        cost.camSearch(_model.activationRows, 32).cycles + 1
        + cost.camSearch(_model.inputEntries, 32).cycles + 1);

    return static_cast<uint64_t>(
        std::ceil(counting + fetch + adder + amCycles));
}

Energy
RnaPerfModel::neuronEnergy(size_t fanIn) const
{
    const nvm::CostModel &cost = _chip.cost;
    const double n = static_cast<double>(fanIn);

    Energy e = cost.counterIncrementEnergy * n;
    const double distinct = std::min<double>(
        n, static_cast<double>(_model.weightEntries
                               * _model.inputEntries));
    e += cost.crossbarReadEnergy * distinct;

    const size_t addends = expectedAddends(fanIn) + 1;
    const size_t stages = nvm::CrossbarArray::treeStages(addends);
    // Per CSA stage: one NOR per bit slice per cycle for each surviving
    // group (groups decay by 2/3 per stage) — mirrors
    // CrossbarArray::csaStage's charge.
    const Energy perGroup = cost.norEnergyPerBit
        * static_cast<double>(_model.accumulatorBits
                              * cost.csaStageCycles);
    double remaining = static_cast<double>(addends);
    for (size_t s = 0; s < stages; ++s) {
        const double groups = remaining / 3.0;
        e += perGroup * groups;
        remaining = remaining * 2.0 / 3.0;
    }
    e += cost.norEnergyPerBit
         * static_cast<double>(_model.accumulatorBits
                               * cost.carryPropagateCyclesPerBit);

    e += cost.camSearch(_model.activationRows, 32).energy;
    e += cost.amResultReadEnergy;
    e += cost.camSearch(_model.inputEntries, 32).energy;
    e += cost.amResultReadEnergy;
    return e;
}

double
RnaPerfModel::interval(size_t fanIn) const
{
    // Steady-state initiation interval of one RNA streaming neurons:
    // counting, banked product fetch and the 13-cycle adder segments
    // overlap across consecutive inputs, so the slowest phase governs.
    const double counting = std::ceil(
        static_cast<double>(fanIn)
        / static_cast<double>(_model.weightEntries))
        * kCountingBalanceFactor;
    const double fetch = std::min<double>(
        static_cast<double>(fanIn),
        static_cast<double>(_model.weightEntries
                            * _model.inputEntries)) / kFetchBanks;
    return std::max(
        {counting, fetch, static_cast<double>(_chip.cost.csaStageCycles)});
}

uint64_t
RnaPerfModel::neuronInterval(size_t fanIn) const
{
    return static_cast<uint64_t>(std::ceil(interval(fanIn)));
}

PerfReport
RnaPerfModel::estimate(const nn::NetworkShape &shape) const
{
    const nvm::CostModel &cost = _chip.cost;
    const Time cycle = cost.cyclePeriod;
    const MappingPlan plan = Controller(_chip).plan(shape);

    PerfReport report;
    report.totalOps = shape.totalOps();

    // Residency: when every layer's neurons fit on the chip at once
    // (one wave for the whole network), layers pipeline across blocks
    // and the slowest stage limits throughput; otherwise the chip is
    // time-shared across layers and stage times add.
    size_t totalNeurons = 0;
    for (const auto &layer : shape.layers)
        totalNeurons += layer.stepNeurons();
    const bool resident = computeWaves(_chip, totalNeurons) <= 1;

    uint64_t latencyCycles = 0;
    uint64_t worstStage = 1;
    uint64_t stageSum = 0;
    Energy energy{};
    Time accumTime{}, actTime{}, encTime{}, poolTime{}, otherTime{};
    Energy accumEnergy{}, actEnergy{}, encEnergy{}, poolEnergy{},
           otherEnergy{};

    for (size_t l = 0; l < shape.layers.size(); ++l) {
        const nn::LayerShape &layer = shape.layers[l];
        const size_t waves = plan.assignments[l].waves;
        if (layer.kind == nn::LayerKind::MaxPool2D ||
            layer.kind == nn::LayerKind::AvgPool2D) {
            // One AM load + search per pooled window.
            const nvm::OpCost one =
                cost.camSearch(layer.fanIn, 16) + nvm::OpCost{1,
                    cost.camWriteEnergy
                        * static_cast<double>(layer.fanIn)};
            const uint64_t stageCycles = one.cycles * waves;
            latencyCycles += stageCycles;
            worstStage = std::max<uint64_t>(worstStage, stageCycles);
            stageSum += stageCycles;
            const Energy layerEnergy =
                one.energy * static_cast<double>(layer.neurons);
            energy += layerEnergy;
            poolTime += cycle * double(one.cycles)
                        * double(layer.neurons);
            poolEnergy += layerEnergy;
            continue;
        }

        // Each step's waves run after the previous step's (the
        // recurrent feedback hazard), as the chip charges them.
        const uint64_t perNeuron = neuronCycles(layer.fanIn);
        const uint64_t stageCycles = perNeuron * waves * layer.steps;
        latencyCycles += stageCycles;
        // Throughput: consecutive inputs stream through the neuron's
        // phases at the initiation interval, not the full latency.
        const uint64_t pipelined =
            neuronInterval(layer.fanIn) * waves * layer.steps;
        worstStage = std::max<uint64_t>(worstStage, pipelined);
        stageSum += pipelined;

        const Energy perNeuronEnergy = neuronEnergy(layer.fanIn);
        const Energy layerEnergy =
            perNeuronEnergy * static_cast<double>(layer.neurons);
        energy += layerEnergy;

        // Split the per-neuron cost into the Figure 13 categories.
        const double amCyc = static_cast<double>(
            cost.camSearch(_model.activationRows, 32).cycles + 1);
        const double encCyc = static_cast<double>(
            cost.camSearch(_model.inputEntries, 32).cycles + 1);
        const double accumCyc =
            static_cast<double>(perNeuron) - amCyc - encCyc;
        accumTime += cycle * (accumCyc * double(layer.neurons));
        actTime += cycle * (amCyc * double(layer.neurons));
        encTime += cycle * (encCyc * double(layer.neurons));

        // Active-power energy: busy blocks draw their Table 1 power.
        const Energy accumActive =
            cost.crossbarPower.over(cycle)
            * (accumCyc * double(layer.neurons));
        const Energy counterActive =
            cost.counterPower.over(cycle)
            * (accumCyc * double(layer.neurons));
        const Energy actActive = cost.amBlockPower.over(cycle)
            * (amCyc * double(layer.neurons));
        const Energy encActive = cost.amBlockPower.over(cycle)
            * (encCyc * double(layer.neurons));
        energy += accumActive + counterActive + actActive + encActive;

        const Energy actE =
            (cost.camSearch(_model.activationRows, 32).energy
             + cost.amResultReadEnergy)
            * static_cast<double>(layer.neurons) + actActive;
        const Energy encE =
            (cost.camSearch(_model.inputEntries, 32).energy
             + cost.amResultReadEnergy)
            * static_cast<double>(layer.neurons) + encActive;
        actEnergy += actE;
        encEnergy += encE;
        accumEnergy += layerEnergy + accumActive - (actE - actActive)
                     - (encE - encActive);
        otherEnergy += counterActive;

        // Broadcast buffer between layers: the last step's outputs.
        const uint32_t bits = static_cast<uint32_t>(
            std::max<size_t>(1, static_cast<size_t>(
                std::ceil(std::log2(
                    static_cast<double>(_model.inputEntries))))));
        const uint64_t xferCycles = static_cast<uint64_t>(
            blockWaves(_chip, layer.stepNeurons())) * bits;
        latencyCycles += xferCycles;
        const Energy xferEnergy = cost.bufferBitEnergy
            * (static_cast<double>(layer.stepNeurons()) * bits);
        energy += xferEnergy;
        otherTime += cycle * double(xferCycles);
        otherEnergy += xferEnergy;
    }

    // Idle/leakage charge over the run (controller, buffers, MUXes and
    // power-ungated blocks), scaled to the chips the workload keeps
    // busy — a small FC model on an 8-chip deployment runs on one chip
    // while the others stay clock gated.
    size_t maxLayerNeurons = 1;
    for (const auto &layer : shape.layers)
        maxLayerNeurons = std::max(maxLayerNeurons, layer.stepNeurons());
    const size_t rnasPerChip = cost.rnasPerTile * cost.tilesPerChip;
    const size_t chipsUsed = std::min<size_t>(
        _chip.chips,
        (maxLayerNeurons + rnasPerChip - 1) / rnasPerChip);
    const Power idle = Power::watts(
        153.6 * static_cast<double>(std::max<size_t>(1, chipsUsed)))
        * cost.idleLeakageFraction;
    const Energy idleEnergy =
        idle.over(cycle * static_cast<double>(latencyCycles));
    energy += idleEnergy;
    otherEnergy += idleEnergy;

    report.latency = cycle * static_cast<double>(latencyCycles);
    report.stageTime = cycle * static_cast<double>(
        resident ? worstStage : std::max<uint64_t>(1, stageSum));
    report.energy = energy;
    report.addCategory("weighted_accum", accumTime, accumEnergy);
    report.addCategory("activation", actTime, actEnergy);
    report.addCategory("encoding", encTime, encEnergy);
    report.addCategory("pooling", poolTime, poolEnergy);
    report.addCategory("other", otherTime, otherEnergy);
    return report;
}

double
RnaPerfModel::gopsPerMm2(const nn::NetworkShape &shape) const
{
    // Steady-state pipelined throughput density evaluated at the
    // paper's canonical neuron (1024 incoming branches, Section 4.1):
    // each RNA streams neurons with its accumulation phases overlapped
    // across consecutive inputs, so its initiation interval is the
    // slowest phase (counting, banked product fetch, or one 13-cycle
    // adder segment), not the sum.
    (void)shape;  // the density metric is workload-independent
    const size_t fanIn = 1024;
    const double opsPerNeuron = 2.0 * double(fanIn);
    const double perRnaGops = opsPerNeuron
        / (interval(fanIn) * _chip.cost.cyclePeriod.sec()) / 1e9;
    // Sharing keeps throughput (shared RNAs fill pipeline bubbles of
    // their layer) while shedding RNA area, so density rises
    // (Section 5.6, Table 4).
    const double rnas = static_cast<double>(_chip.totalRnas());
    const double areaMm2 = 124.1 * static_cast<double>(_chip.chips)
        * (1.0 - _chip.rnaSharing * 0.567);  // RNAs are 56.7 % of area
    return perRnaGops * rnas / areaMm2;
}

size_t
RnaPerfModel::memoryBytes(const nn::NetworkShape &shape) const
{
    const size_t w = _model.weightEntries;
    const size_t u = _model.inputEntries;
    const uint32_t wBits = indexBits(w);

    size_t bits = 0;
    for (const auto &layer : shape.layers) {
        if (layer.kind == nn::LayerKind::MaxPool2D ||
            layer.kind == nn::LayerKind::AvgPool2D)
            continue;
        // Encoded weights: every parameter stored at log2(w) bits.
        bits += static_cast<size_t>(layer.params) * wBits;
        // Per distinct RNA table set: the w*u product table, the
        // activation table and the encoding table (32-bit rows).
        const size_t perTable = w * u * 32
            + _model.activationRows * 64 + u * 64;
        bits += layer.distinctNeurons * perTable;
    }
    return (bits + 7) / 8;
}

double
RnaPerfModel::gopsPerWatt(const nn::NetworkShape &shape) const
{
    // Power efficiency at steady-state pipelining, evaluated at the
    // paper's canonical 1024-fan-in neuron (like gopsPerMm2): ops per
    // second per RNA over its active power plus switching-energy rate.
    (void)shape;
    const nvm::CostModel &cost = _chip.cost;
    const size_t fanIn = 1024;
    const double intervalSec = interval(fanIn) * cost.cyclePeriod.sec();

    const double opsPerSec = 2.0 * double(fanIn) / intervalSec;
    const Power rnaPower = cost.crossbarPower + cost.counterPower
        + cost.amBlockPower + cost.amBlockPower;
    const double switchingWatts =
        neuronEnergy(fanIn).j() / intervalSec;
    return opsPerSec / 1e9 / (rnaPower.w() + switchingWatts);
}

} // namespace rapidnn::rna
