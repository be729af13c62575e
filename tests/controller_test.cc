/**
 * @file
 * Controller mapping-plan tests: block/tile assignment, wave
 * scheduling (with RNA sharing), FIFO sizing, residual skip routing
 * and recurrent feedback flags, and that the chip charges the waves
 * the plan gives each layer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "composer/composer.hh"
#include "nn/recurrent.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "rna/controller.hh"
#include "rna/perf_model.hh"

namespace rapidnn::rna {
namespace {

using composer::Composer;
using composer::ReinterpretedModel;
using composer::RLayerKind;

struct PlannedMlp
{
    nn::Dataset data;
    nn::Network net;
    ReinterpretedModel model;

    PlannedMlp()
    {
        data = nn::makeVectorTask({"plan", 20, 4, 200, 0.3, 1.0, 901});
        Rng rng(902);
        net = nn::buildMlp({.inputs = 20, .hidden = {16, 12},
                            .outputs = 4}, rng);
        nn::Trainer({.epochs = 4, .batchSize = 16,
                     .learningRate = 0.05}).train(net, data);
        Composer comp({});
        model = comp.reinterpret(net, data);
    }
};

TEST(Controller, MlpAssignmentsAndResidency)
{
    PlannedMlp fx;
    Controller controller(ChipConfig{});
    const MappingPlan plan = controller.plan(fx.model);

    ASSERT_EQ(plan.assignments.size(), 3u);
    EXPECT_EQ(plan.assignments[0].evaluations, 16u);
    EXPECT_EQ(plan.assignments[0].tableSets, 16u);
    EXPECT_EQ(plan.assignments[0].rnaBlocks, 16u);
    EXPECT_EQ(plan.assignments[0].waves, 1u);
    EXPECT_EQ(plan.assignments[0].fifoDepth, 20u);
    EXPECT_EQ(plan.totalRnasUsed, 16u + 12u + 4u);
    EXPECT_TRUE(plan.fits);
    EXPECT_EQ(plan.tilesUsed, 1u);
    EXPECT_EQ(plan.chipsUsed, 1u);
    EXPECT_GT(plan.utilization, 0.0);
    EXPECT_LT(plan.utilization, 0.01);
    // The FIFO must hold the largest fan-in (paper Section 4.1.1).
    EXPECT_EQ(plan.maxFifoDepth, 20u);
}

/** An 8-RNA chip sharing `sharing` of its blocks. */
ChipConfig
tinyChip(double sharing)
{
    ChipConfig config;
    config.cost.rnasPerTile = 8;
    config.cost.tilesPerChip = 1;
    config.rnaSharing = sharing;
    return config;
}

TEST(Controller, TinyChipForcesWaves)
{
    PlannedMlp fx;
    // 16 neurons on 8 RNAs take 2 waves; sharing half the blocks
    // leaves 4 of them, so 4 waves.
    for (const auto &[sharing, waves] :
         {std::pair<double, size_t>{0.0, 2}, {0.5, 4}}) {
        const MappingPlan plan = Controller(tinyChip(sharing)).plan(fx.model);
        EXPECT_FALSE(plan.fits);
        EXPECT_EQ(plan.assignments[0].waves, waves) << sharing;
        EXPECT_EQ(plan.assignments[0].rnaBlocks, 8u) << sharing;
    }
}

/** The chip's slowest stage on one sample, in cycles. */
uint64_t
stageCycles(const ChipConfig &config, const ReinterpretedModel &model,
            const nn::Tensor &x)
{
    Chip chip(config);
    chip.configure(model);
    PerfReport report;
    chip.infer(x, report);
    return static_cast<uint64_t>(std::llround(
        report.stageTime.sec() / config.cost.cyclePeriod.sec()));
}

/**
 * Each model holds one compute layer, whose stage is the slowest: its
 * worst neuron (summed over the steps of a recurrent layer) times its
 * waves. The default chip runs it in one wave, so a tiny chip's stage
 * over the default chip's is the waves the tiny chip charges.
 */
void
expectChargedWaves(const ReinterpretedModel &model, const nn::Tensor &x,
                   const ChipConfig &tiny, size_t waves)
{
    const MappingPlan plan = Controller(tiny).plan(model);
    ASSERT_EQ(plan.assignments.size(), 1u);
    EXPECT_EQ(plan.assignments[0].waves, waves);
    EXPECT_EQ(stageCycles(tiny, model, x),
              stageCycles(ChipConfig{}, model, x) * waves);
}

TEST(Controller, ChipChargesPlannedWaves)
{
    nn::Dataset dense =
        nn::makeVectorTask({"plan-one", 20, 4, 120, 0.3, 1.0, 909});
    Rng rng(910);
    nn::Network denseNet;
    denseNet.add(std::make_unique<nn::DenseLayer>(20, 16, rng));
    const ReinterpretedModel denseModel =
        Composer({}).reinterpret(denseNet, dense);
    expectChargedWaves(denseModel, dense.sample(0).x, tinyChip(0.0), 2);
    expectChargedWaves(denseModel, dense.sample(0).x, tinyChip(0.5), 4);

    // A recurrent layer of 10 hidden units on 8 RNAs: every one of its
    // 6 steps takes 2 waves.
    nn::SequenceTaskSpec spec;
    spec.name = "plan-seq-one";
    spec.features = 5;
    spec.steps = 6;
    spec.classes = 3;
    spec.samples = 120;
    spec.seed = 911;
    nn::Dataset seq = nn::makeSequenceTask(spec);
    nn::Network seqNet;
    seqNet.add(std::make_unique<nn::ElmanLayer>(
        5, 10, 6, nn::ActKind::Tanh, rng));
    const ReinterpretedModel seqModel =
        Composer({}).reinterpret(seqNet, seq);
    expectChargedWaves(seqModel, seq.sample(0).x, tinyChip(0.0), 2);
}

TEST(Controller, AnalyticRecurrentStageWavesEachStep)
{
    // The analytic model plans a recurrent layer as the chip runs it:
    // 10 hidden units on 8 RNAs take 2 waves in every one of 6 steps,
    // not ceil(60 / 8) waves in one stage.
    Rng rng(912);
    nn::Network net;
    net.add(std::make_unique<nn::ElmanLayer>(
        5, 10, 6, nn::ActKind::Tanh, rng));
    const nn::NetworkShape shape = nn::shapeOfNetwork(net, {30}, "elman");
    ASSERT_EQ(shape.layers.size(), 1u);
    EXPECT_EQ(shape.layers[0].steps, 6u);
    EXPECT_EQ(Controller(tinyChip(0.0)).plan(shape).assignments[0].waves,
              2u);

    // Its stage: 6 steps x 2 waves of one neuron's initiation interval
    // on the tiny chip, twice the one-wave stage of the default chip.
    const PerfModelConfig pm;
    auto stage = [&](const ChipConfig &chip) {
        const PerfReport r = RnaPerfModel(chip, pm).estimate(shape);
        return static_cast<uint64_t>(std::llround(
            r.stageTime.sec() / chip.cost.cyclePeriod.sec()));
    };
    const uint64_t interval =
        RnaPerfModel(ChipConfig{}, pm).neuronInterval(5 + 10);
    EXPECT_EQ(stage(tinyChip(0.0)), 6 * 2 * interval);
    EXPECT_EQ(stage(ChipConfig{}), 6 * interval);
}

TEST(Controller, BroadcastBitsMatchConsumerCodebook)
{
    PlannedMlp fx;
    Controller controller(ChipConfig{});
    const MappingPlan plan = controller.plan(fx.model);
    // Inner layers broadcast codes of their consumer's codebook; the
    // final layer emits raw.
    EXPECT_EQ(plan.assignments[0].broadcastBits,
              fx.model.layers()[1].inputCodebook.bits());
    EXPECT_EQ(plan.assignments[1].broadcastBits,
              fx.model.layers()[2].inputCodebook.bits());
    EXPECT_EQ(plan.assignments[2].broadcastBits, 0u);
}

TEST(Controller, RecurrentFeedbackFlaggedAndFifoSized)
{
    nn::SequenceTaskSpec spec;
    spec.name = "plan-seq";
    spec.features = 5;
    spec.steps = 6;
    spec.classes = 3;
    spec.samples = 150;
    spec.seed = 903;
    nn::Dataset data = nn::makeSequenceTask(spec);
    Rng rng(904);
    nn::Network net;
    net.add(std::make_unique<nn::ElmanLayer>(
        5, 10, 6, nn::ActKind::Tanh, rng));
    net.add(std::make_unique<nn::DenseLayer>(10, 3, rng));
    nn::Trainer({.epochs = 3, .batchSize = 16, .learningRate = 0.05})
        .train(net, data);
    Composer comp({});
    ReinterpretedModel model = comp.reinterpret(net, data);

    Controller controller(ChipConfig{});
    const MappingPlan plan = controller.plan(model);
    ASSERT_GE(plan.assignments.size(), 2u);
    const auto &rec = plan.assignments[0];
    EXPECT_TRUE(rec.feedbackLoop);
    // FIFO holds the x operands plus the fed-back hidden state.
    EXPECT_EQ(rec.fifoDepth, 5u + 10u);
    EXPECT_NE(plan.describe().find("feedback loop"),
              std::string::npos);
}

TEST(Controller, ResidualSkipRouting)
{
    nn::Dataset data =
        nn::makeVectorTask({"plan-res", 12, 3, 150, 0.3, 1.0, 905});
    Rng rng(906);
    nn::Network net;
    net.add(std::make_unique<nn::DenseLayer>(12, 8, rng));
    net.add(std::make_unique<nn::ActivationLayer>(nn::ActKind::Tanh));
    std::vector<nn::LayerPtr> inner;
    inner.push_back(std::make_unique<nn::DenseLayer>(8, 8, rng));
    net.add(std::make_unique<nn::ResidualLayer>(std::move(inner)));
    net.add(std::make_unique<nn::DenseLayer>(8, 3, rng));
    nn::Trainer({.epochs = 3, .batchSize = 16, .learningRate = 0.05})
        .train(net, data);
    Composer comp({});
    ReinterpretedModel model = comp.reinterpret(net, data);

    Controller controller(ChipConfig{});
    const MappingPlan plan = controller.plan(model);
    bool sawSkip = false, sawInner = false;
    for (const auto &a : plan.assignments) {
        if (a.skipRoute) {
            sawSkip = true;
            // The block's sum leaves encoded for the final layer.
            EXPECT_EQ(a.broadcastBits,
                      model.layers().back().inputCodebook.bits());
        }
        if (a.depth > 0) {
            sawInner = true;
            EXPECT_GT(a.rnaBlocks, 0u);
        }
    }
    EXPECT_TRUE(sawSkip);
    EXPECT_TRUE(sawInner);
    EXPECT_NE(plan.describe().find("skip FIFO"), std::string::npos);
}

TEST(Controller, PoolingReusesEncodingAm)
{
    nn::ImageTaskSpec spec;
    spec.name = "plan-img";
    spec.side = 8;
    spec.classes = 3;
    spec.samples = 120;
    spec.seed = 907;
    nn::Dataset data = nn::makeImageTask(spec);
    Rng rng(908);
    nn::CnnSpec cnn;
    cnn.channels = 3;
    cnn.height = cnn.width = 8;
    cnn.convChannels = {4};
    cnn.denseWidths = {};
    cnn.outputs = 3;
    nn::Network net = nn::buildCnn(cnn, rng);
    nn::Trainer({.epochs = 2, .batchSize = 16, .learningRate = 0.05})
        .train(net, data);
    Composer comp({});
    ReinterpretedModel model = comp.reinterpret(net, data);

    Controller controller(ChipConfig{});
    const MappingPlan plan = controller.plan(model);
    // Pool and flatten pass codes of the readout's codebook on.
    const size_t readoutBits = model.layers().back().inputCodebook.bits();
    bool sawConv = false, sawPooling = false;
    for (const auto &a : plan.assignments) {
        if (a.kind == RLayerKind::MaxPool || a.kind == RLayerKind::Flatten) {
            EXPECT_EQ(a.broadcastBits, readoutBits);
        }
        if (a.kind == RLayerKind::Conv) {
            sawConv = true;
            // Every channel at every same-padded 8x8 position, on one
            // table set per channel.
            EXPECT_EQ(a.evaluations, 4u * 8u * 8u);
            EXPECT_EQ(a.tableSets, 4u);
            EXPECT_EQ(a.rnaBlocks, 4u);
        }
        if (a.kind == RLayerKind::MaxPool) {
            sawPooling = true;
            EXPECT_EQ(a.evaluations, 4u * 4u * 4u);  // windows
            EXPECT_EQ(a.rnaBlocks, 0u);     // no dedicated blocks
            EXPECT_EQ(a.fifoDepth, 4u);     // 2x2 window
        }
    }
    EXPECT_TRUE(sawConv);
    EXPECT_TRUE(sawPooling);

    // On 8 RNAs sharing half of them, the conv's 256 evaluations take
    // 64 waves; its 64 pooling windows take 8 (pooling does not share).
    const MappingPlan tiny = Controller(tinyChip(0.5)).plan(model);
    for (const auto &a : tiny.assignments) {
        if (a.kind == RLayerKind::Conv) {
            EXPECT_EQ(a.waves, 64u);
        }
        if (a.kind == RLayerKind::MaxPool) {
            EXPECT_EQ(a.waves, 8u);
        }
    }
}

TEST(Controller, DescribeIsReadable)
{
    PlannedMlp fx;
    Controller controller(ChipConfig{});
    const std::string text = controller.plan(fx.model).describe();
    EXPECT_NE(text.find("mapping plan"), std::string::npos);
    EXPECT_NE(text.find("dense(20->16)"), std::string::npos);
    EXPECT_NE(text.find("fully resident"), std::string::npos);
}

} // namespace
} // namespace rapidnn::rna
