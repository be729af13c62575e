/**
 * @file
 * Reusable per-chip inference workspace.
 *
 * One Workspace is built at Chip::configure time and leased to each
 * inferBatch() call, so the steady-state per-neuron hot loop performs
 * zero heap allocations: the counting scratch resets sparsely and the
 * batch-strided arenas are sized up front for ChipConfig::maxBatch
 * lanes. Everything that depends only on the model (packed rows,
 * gather plans, counting cycles) lives in the shared layer contexts.
 * The busy flag lets concurrent infer() calls on one chip stay safe:
 * the loser of the exchange falls back to a private spare workspace.
 */

#ifndef RAPIDNN_RNA_WORKSPACE_HH
#define RAPIDNN_RNA_WORKSPACE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/simd.hh"
#include "common/units.hh"
#include "composer/reinterpreted_model.hh"
#include "nvm/op_cost.hh"
#include "rna/accumulation.hh"

namespace rapidnn::rna {

/**
 * Per-phase cost breakdown of one neuron evaluation (Figure 13).
 * Lives here (rather than rna_block.hh, which includes this header)
 * because each LayerRun sums one over its layer.
 */
struct NeuronCost
{
    nvm::OpCost weightedAccum;
    nvm::OpCost activation;
    nvm::OpCost encoding;
    nvm::OpCost pooling;

    nvm::OpCost
    total() const
    {
        return weightedAccum + activation + encoding + pooling;
    }

    NeuronCost &
    operator+=(const NeuronCost &o)
    {
        weightedAccum += o.weightedAccum;
        activation += o.activation;
        encoding += o.encoding;
        pooling += o.pooling;
        return *this;
    }
};

/** One sample's result of one layer. */
struct LayerRun
{
    composer::EncodedTensor output;
    std::vector<double> raw;
    NeuronCost cost;             //!< summed over all neurons
    uint64_t stageCycles = 0;    //!< wall cycles with RNA parallelism

    /**
     * Ready for the next layer. The output codes and raw values must
     * already have been handed on; the shape keeps its capacity, so
     * a steady-state layer walk never reallocates it.
     */
    void
    reset()
    {
        output.shape.clear();
        cost = NeuronCost{};
        stageCycles = 0;
    }
};

/** Per-sample accounting accumulated across the layer walk, one per
 *  batch lane. */
struct InferTally
{
    uint64_t latencyCycles = 0;
    uint64_t worstStage = 0;
    Energy totalEnergy{};
    NeuronCost totals;
    uint64_t bufferCycles = 0;
    Energy bufferEnergy{};
    nvm::OpCost inputEncode;
};

/** Per-lane state of one residual block's inner walk. */
struct ResidualLanes
{
    std::vector<composer::EncodedTensor> values;
    std::vector<std::vector<double>> innerRaws;
    std::vector<LayerRun> innerRuns;
};

/**
 * Outputs of the tally calls in flight (KernelOps::tally): each neuron
 * slot's product sum, non-zero cells and CSD terms. A dense or conv
 * pass covers up to kPassNeurons neurons (8 groups, one cache line of
 * each packed row) at one output position for every lane, lane-major
 * (lane * kPassNeurons + k); a recurrent step one lane's x path at
 * [0, stride) and h path at [stride, 2 * stride).
 */
struct TallyScratch
{
    static constexpr size_t kPassNeurons = 64;

    simd::AlignedVec<int64_t> sums;
    simd::AlignedVec<uint32_t> distinct;
    simd::AlignedVec<uint32_t> addends;

    /** Grow to hold n neuron slots. */
    void
    ensure(size_t n)
    {
        sums.ensure(n);
        distinct.ensure(n);
        addends.ensure(n);
    }
};

/** All mutable scratch one inferBatch() call needs, reusable across
 *  calls. */
struct Workspace
{
    AccumScratch accum;

    /** Max-pool window gather target (sized to the widest window). */
    std::vector<uint16_t> gatherX;

    /**
     * Batch-strided staging of a dense or conv layer's every output,
     * arena-sized at configure time from ChipConfig::maxBatch (larger
     * batches still work — buffers grow on first use). valsB / codesB /
     * accumCostB are neuron-major (slot = output * lanes + lane), so a
     * contiguous output range over all lanes feeds one cross-lane AM
     * batch lookup; amKeys / amRows are the key and row scratch of one
     * lookup of up to kPassNeurons * lanes slots.
     */
    simd::AlignedVec<double> valsB;
    simd::AlignedVec<uint16_t> codesB;
    simd::AlignedVec<uint32_t> amKeys;
    simd::AlignedVec<uint32_t> amRows;
    /** Weighted-accumulation cost per slot: the activation and
     *  encoding query costs are per-layer constants the reduction
     *  re-adds per neuron in serial order. */
    std::vector<nvm::OpCost> accumCostB;

    /**
     * Tally inputs and outputs: each lane's window at the current
     * output position grouped by input code (a recurrent step uses the
     * first two, x_t and the previous state), and the tally outputs.
     */
    std::vector<InputBuckets> inputs;
    TallyScratch tally;

    /** One recurrent lane's hidden state, current and next step. */
    std::vector<uint16_t> hCodes;
    std::vector<uint16_t> hNext;
    std::vector<double> hRaw;
    std::vector<double> hRawNext;

    /** AvgPool fixed-point addend reuse. */
    std::vector<int64_t> addends;

    /**
     * Per-lane state of the layer walk: each lane's current encoded
     * tensor, the runs of the layer in flight and the samples' cost
     * tallies. They only grow, so a steady-state inferBatch() call
     * allocates nothing but the logits it returns.
     */
    std::vector<composer::EncodedTensor> lanesIn;
    std::vector<LayerRun> lanesRun;
    std::vector<InferTally> tallies;
    /** The same for residual blocks, one entry per nesting depth; a
     *  deque, so growing it keeps the outer blocks' entries in place. */
    std::deque<ResidualLanes> residual;
    size_t residualDepth = 0;

    /**
     * Recycled buffer pools for the per-layer activation tensors and
     * raw-value staging that flow through inferBatch(). take*() hands out
     * the deepest pooled buffer (capacity intact, size clobbered by
     * the caller); give*() returns it. Seeded at configure time from
     * the model's canonical input shape, so the steady-state serve
     * path allocates nothing — the arena the blob format's zero-copy
     * loading pairs with.
     */
    std::vector<std::vector<uint16_t>> codePool;
    std::vector<std::vector<double>> rawPool;

    std::vector<uint16_t>
    takeCodes()
    {
        if (codePool.empty())
            return {};
        std::vector<uint16_t> buf = std::move(codePool.back());
        codePool.pop_back();
        return buf;
    }

    void
    giveCodes(std::vector<uint16_t> &&buf)
    {
        if (buf.capacity() > 0)
            codePool.push_back(std::move(buf));
    }

    std::vector<double>
    takeRaw()
    {
        if (rawPool.empty())
            return {};
        std::vector<double> buf = std::move(rawPool.back());
        rawPool.pop_back();
        return buf;
    }

    void
    giveRaw(std::vector<double> &&buf)
    {
        if (buf.capacity() > 0)
            rawPool.push_back(std::move(buf));
    }

    /**
     * Lease flag: set while an inferBatch() call owns this workspace.
     * This is a lock-free capability guarding every other field of the
     * struct — conceptually GUARDED_BY(busy), but atomics are outside
     * clang's thread-safety analysis, so the protocol lives in
     * WorkspaceLease (rna/chip.cc) under a documented
     * RAPIDNN_NO_THREAD_SAFETY_ANALYSIS escape: false->true only by
     * the one winning exchange(acquire), true->false only by that
     * winner's store(release). See DESIGN.md §11.
     */
    std::atomic<bool> busy{false};

};

} // namespace rapidnn::rna

#endif // RAPIDNN_RNA_WORKSPACE_HH
