/**
 * @file
 * Tests for the DNN composer: weight projection, reinterpretation,
 * the encoded forward pass, the retraining loop, and the accuracy
 * properties the paper relies on.
 */

#include <gtest/gtest.h>

#include <set>

#include "blob/blob.hh"
#include "composer/composer.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"

namespace rapidnn::composer {
namespace {

using nn::ActKind;
using nn::Dataset;
using nn::Network;
using nn::Tensor;

/** A small trained MLP plus its data, shared across tests. */
struct TrainedMlp
{
    Dataset train;
    Dataset validation;
    Network net;

    TrainedMlp()
    {
        Dataset all =
            nn::makeVectorTask({"toy", 24, 5, 420, 0.35, 1.0, 71});
        auto [tr, va] = all.split(0.25);
        train = std::move(tr);
        validation = std::move(va);
        Rng rng(72);
        net = nn::buildMlp({.inputs = 24, .hidden = {20, 14},
                            .outputs = 5}, rng);
        nn::Trainer trainer({.epochs = 14, .batchSize = 16,
                             .learningRate = 0.05});
        trainer.train(net, train);
    }
};

TrainedMlp &
sharedMlp()
{
    static TrainedMlp instance;
    return instance;
}

// ------------------------------------------------------- projection

TEST(ProjectWeights, ReducesDistinctValues)
{
    TrainedMlp fixture;  // private copy: projection mutates weights
    ComposerConfig config;
    config.weightClusters = 8;
    Composer composer(config);
    const size_t rewritten = composer.projectWeights(fixture.net);
    EXPECT_GT(rewritten, 0u);

    for (auto &layerPtr : fixture.net.layers()) {
        if (layerPtr->kind() != nn::LayerKind::Dense)
            continue;
        auto &dense = static_cast<nn::DenseLayer &>(*layerPtr);
        std::set<float> distinct;
        for (size_t i = 0; i < dense.weights().value.numel(); ++i)
            distinct.insert(dense.weights().value[i]);
        EXPECT_LE(distinct.size(), 8u);
    }
}

TEST(ProjectWeights, ConvClusteredPerChannel)
{
    Rng rng(73);
    nn::CnnSpec spec;
    spec.channels = 2;
    spec.height = spec.width = 6;
    spec.convChannels = {4};
    spec.denseWidths = {};
    spec.outputs = 3;
    Network net = nn::buildCnn(spec, rng);

    ComposerConfig config;
    config.weightClusters = 4;
    Composer composer(config);
    composer.projectWeights(net);

    auto &conv = static_cast<nn::Conv2DLayer &>(net.layer(0));
    const size_t perChannel =
        conv.weights().value.numel() / conv.outChannels();
    for (size_t oc = 0; oc < conv.outChannels(); ++oc) {
        std::set<float> distinct;
        for (size_t i = 0; i < perChannel; ++i)
            distinct.insert(conv.weights().value[oc * perChannel + i]);
        EXPECT_LE(distinct.size(), 4u) << "channel " << oc;
    }
}

TEST(ProjectWeights, RecursesIntoResidualConvAndNestedBlocks)
{
    // reinterpret() clusters every compute layer inside residual
    // blocks, at any depth; projection must reach the same layers.
    Rng rng(74);
    std::vector<nn::LayerPtr> nested;
    nested.push_back(std::make_unique<nn::DenseLayer>(5, 5, rng));
    std::vector<nn::LayerPtr> inner;
    inner.push_back(std::make_unique<nn::Conv2DLayer>(
        2, 3, 3, nn::Padding::Same, rng));
    inner.push_back(std::make_unique<nn::ResidualLayer>(std::move(nested)));
    Network net;
    net.add(std::make_unique<nn::ResidualLayer>(std::move(inner)));

    const auto &block = static_cast<nn::ResidualLayer &>(net.layer(0));
    auto &conv = static_cast<nn::Conv2DLayer &>(*block.inner()[0]);
    auto &dense = static_cast<nn::DenseLayer &>(
        *static_cast<nn::ResidualLayer &>(*block.inner()[1]).inner()[0]);
    const Tensor &cw = conv.weights().value;
    const Tensor &dw = dense.weights().value;

    ComposerConfig config;
    config.weightClusters = 4;
    Composer composer(config);
    EXPECT_EQ(composer.projectWeights(net), cw.numel() + dw.numel());

    const size_t perChannel = cw.numel() / conv.outChannels();
    for (size_t oc = 0; oc < conv.outChannels(); ++oc) {
        std::set<float> distinct;
        for (size_t i = 0; i < perChannel; ++i)
            distinct.insert(cw[oc * perChannel + i]);
        EXPECT_LE(distinct.size(), 4u) << "conv channel " << oc;
    }
    std::set<float> distinct;
    for (size_t i = 0; i < dw.numel(); ++i)
        distinct.insert(dw[i]);
    EXPECT_LE(distinct.size(), 4u) << "nested dense";
}

// --------------------------------------------------- reinterpretation

TEST(Reinterpret, StructureMirrorsNetwork)
{
    TrainedMlp fixture;
    ComposerConfig config;
    config.weightClusters = 16;
    config.inputClusters = 16;
    Composer composer(config);
    ReinterpretedModel model =
        composer.reinterpret(fixture.net, fixture.train);

    // Three dense layers; activations folded into the first two.
    ASSERT_EQ(model.layers().size(), 3u);
    EXPECT_TRUE(model.layers()[0].activation.has_value());
    EXPECT_TRUE(model.layers()[1].activation.has_value());
    EXPECT_FALSE(model.layers()[2].activation.has_value());
    // Inner layers encode for their consumer; the last emits raw.
    EXPECT_FALSE(model.layers()[0].outputEncoder.empty());
    EXPECT_FALSE(model.layers()[1].outputEncoder.empty());
    EXPECT_TRUE(model.layers()[2].outputEncoder.empty());
    EXPECT_FALSE(model.inputEncoder().empty());
}

TEST(Reinterpret, CodebookSizesHonourConfig)
{
    TrainedMlp fixture;
    ComposerConfig config;
    config.weightClusters = 16;
    config.inputClusters = 8;
    Composer composer(config);
    ReinterpretedModel model =
        composer.reinterpret(fixture.net, fixture.train);
    for (const auto &layer : model.layers()) {
        EXPECT_LE(layer.weightEntries(), 16u);
        EXPECT_LE(layer.inputEntries(), 8u);
        EXPECT_GE(layer.weightEntries(), 2u);
    }
}

TEST(Reinterpret, WeightClustersBeyondEightBitCodesRefused)
{
    // The chip packs weight codes into 8 bits, so no configuration may
    // ask for more than kMaxWeightEntries weight entries.
    ComposerConfig config;
    config.weightClusters = kMaxWeightEntries + 1;
    EXPECT_EXIT(Composer{config}, ::testing::ExitedWithCode(1),
                "weightClusters = 257 exceeds 256");
}

TEST(Reinterpret, ProductTableMatchesCodebooks)
{
    TrainedMlp fixture;
    ComposerConfig config;
    config.weightClusters = 8;
    config.inputClusters = 8;
    Composer composer(config);
    ReinterpretedModel model =
        composer.reinterpret(fixture.net, fixture.train);
    const RLayer &layer = model.layers()[0];
    for (size_t w = 0; w < layer.weightEntries(); ++w)
        for (size_t u = 0; u < layer.inputEntries(); ++u)
            EXPECT_DOUBLE_EQ(layer.product(0, w, u),
                             layer.weightCodebooks[0].value(w)
                                 * layer.inputCodebook.value(u));
}

TEST(Reinterpret, EncodedForwardApproximatesFloatForward)
{
    TrainedMlp fixture;
    ComposerConfig config;
    config.weightClusters = 64;
    config.inputClusters = 64;
    config.treeDepth = 6;
    Composer composer(config);
    // Project first so the float weights equal their representatives.
    composer.projectWeights(fixture.net);
    ReinterpretedModel model =
        composer.reinterpret(fixture.net, fixture.train);

    // Prediction agreement between the float net and the encoded model.
    size_t agree = 0;
    const size_t n = std::min<size_t>(60, fixture.validation.size());
    for (size_t i = 0; i < n; ++i) {
        const auto &sample = fixture.validation.sample(i);
        if (fixture.net.predict(sample.x) == model.predict(sample.x))
            ++agree;
    }
    EXPECT_GT(double(agree) / double(n), 0.8);
}

TEST(Reinterpret, MemoryGrowsWithCodebookSize)
{
    TrainedMlp fixture;
    ComposerConfig small, large;
    small.weightClusters = small.inputClusters = 4;
    small.treeDepth = 2;
    large.weightClusters = large.inputClusters = 64;
    large.treeDepth = 6;
    Composer a(small), b(large);
    const size_t smallMem =
        a.reinterpret(fixture.net, fixture.train).memoryBytes();
    const size_t largeMem =
        b.reinterpret(fixture.net, fixture.train).memoryBytes();
    EXPECT_LT(smallMem, largeMem);
    EXPECT_GT(smallMem, 0u);
}

TEST(Reinterpret, ComposedBlobByteIdenticalAcrossRuns)
{
    // The whole pipeline (input codebooks, weight projection, codebook
    // trees) is deterministic: two runs emit the same model blob.
    auto composeOnce = [] {
        Dataset all = nn::makeVectorTask(
            {"iop-composer", 12, 3, 220, 0.35, 1.0, 91});
        auto [train, validation] = all.split(0.25);
        (void)validation;
        Rng rng(92);
        Network net = nn::buildMlp(
            {.inputs = 12, .hidden = {16, 10}, .outputs = 3}, rng);
        nn::Trainer({.epochs = 3, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, train);

        ComposerConfig config;
        config.weightClusters = 16;
        config.inputClusters = 16;
        Composer composer(config);
        composer.projectWeights(net);
        return blob::buildBlob(composer.reinterpret(net, train));
    };
    EXPECT_EQ(composeOnce(), composeOnce());
}

TEST(Reinterpret, DescribeMentionsLayers)
{
    TrainedMlp fixture;
    Composer composer({});
    ReinterpretedModel model =
        composer.reinterpret(fixture.net, fixture.train);
    const std::string desc = model.describe();
    EXPECT_NE(desc.find("dense(24->20)"), std::string::npos);
    EXPECT_NE(desc.find("w="), std::string::npos);
}

// ---------------------------------------------- accuracy properties

/** Delta-e improves (or stays) as codebooks grow: the Figure 10 trend. */
class CodebookSweep
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(CodebookSweep, ErrorWithinBudget)
{
    TrainedMlp &fixture = sharedMlp();
    const auto [w, u] = GetParam();
    ComposerConfig config;
    config.weightClusters = w;
    config.inputClusters = u;
    config.treeDepth = 6;
    Composer composer(config);
    Network copy = std::move(fixture.net);  // borrow
    ReinterpretedModel model = composer.reinterpret(copy, fixture.train);
    fixture.net = std::move(copy);

    const double baseline =
        nn::Trainer::errorRate(fixture.net, fixture.validation);
    const double clustered = model.errorRate(fixture.validation);
    // Coarse codebooks may lose accuracy, but fine ones must track the
    // baseline closely (paper: w=u=64 recovers accuracy).
    if (w >= 32 && u >= 32) {
        EXPECT_LE(clustered - baseline, 0.06);
    }
    EXPECT_LE(clustered - baseline, 0.6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodebookSweep,
    ::testing::Values(std::pair<size_t, size_t>{4, 4},
                      std::pair<size_t, size_t>{16, 16},
                      std::pair<size_t, size_t>{32, 32},
                      std::pair<size_t, size_t>{64, 16},
                      std::pair<size_t, size_t>{16, 64},
                      std::pair<size_t, size_t>{64, 64}));

// ----------------------------------------------------------- compose

TEST(Compose, ConvergesAndRecords)
{
    TrainedMlp fixture;
    ComposerConfig config;
    config.weightClusters = 16;
    config.inputClusters = 16;
    config.maxIterations = 3;
    config.retrainEpochs = 2;
    Composer composer(config);
    ComposeResult result =
        composer.compose(fixture.net, fixture.train, fixture.validation);

    EXPECT_FALSE(result.history.empty());
    EXPECT_LE(result.history.size(), 3u);
    EXPECT_GE(result.baselineError, 0.0);
    EXPECT_GE(result.clusteredError, 0.0);
    // The kept model is the best iteration.
    for (const auto &rec : result.history)
        EXPECT_LE(result.clusteredError, rec.clusteredError + 1e-9);
    EXPECT_GT(result.composeSeconds, 0.0);
    EXPECT_GT(result.weightsBefore.summary().count(), 0u);
    EXPECT_GT(result.weightsAfter.summary().count(), 0u);
}

TEST(Compose, RetrainingNotWorseThanOneShot)
{
    // Two identical fixtures: one-shot vs iterated composition.
    TrainedMlp a, b;
    ComposerConfig config;
    config.weightClusters = 8;
    config.inputClusters = 8;
    config.maxIterations = 4;
    config.retrainEpochs = 2;

    Composer oneShotComposer(config);
    oneShotComposer.projectWeights(a.net);
    ReinterpretedModel oneShot =
        oneShotComposer.reinterpret(a.net, a.train);
    const double oneShotError = oneShot.errorRate(a.validation);

    Composer iterComposer(config);
    ComposeResult iterated =
        iterComposer.compose(b.net, b.train, b.validation);

    EXPECT_LE(iterated.clusteredError, oneShotError + 0.05);
}

// ----------------------------------------------------- CNN pipeline

TEST(ComposeCnn, MaxPoolOnCodesMatchesValuePooling)
{
    // Build a CNN, reinterpret it, and verify the order-preserving
    // encoding property end-to-end: pooling encoded codes gives the
    // same selection as pooling the decoded values.
    Rng rng(81);
    nn::ImageTaskSpec ispec;
    ispec.name = "img";
    ispec.side = 8;
    ispec.classes = 3;
    ispec.samples = 200;
    ispec.seed = 82;
    Dataset data = nn::makeImageTask(ispec);
    auto [train, validation] = data.split(0.25);

    nn::CnnSpec spec;
    spec.channels = 3;
    spec.height = spec.width = 8;
    spec.convChannels = {6};
    spec.denseWidths = {16};
    spec.outputs = 3;
    Network net = nn::buildCnn(spec, rng);
    nn::Trainer trainer({.epochs = 6, .batchSize = 16,
                         .learningRate = 0.05});
    trainer.train(net, train);

    ComposerConfig config;
    config.weightClusters = 16;
    config.inputClusters = 16;
    Composer composer(config);
    ReinterpretedModel model = composer.reinterpret(net, train);

    // Find the maxpool layer and its consumer codebook.
    const RLayer *pool = nullptr;
    for (const auto &layer : model.layers())
        if (layer.kind == RLayerKind::MaxPool)
            pool = &layer;
    ASSERT_NE(pool, nullptr);
    ASSERT_FALSE(pool->inputCodebook.empty());

    // Codes are order preserving over the codebook.
    const auto &cb = pool->inputCodebook;
    for (size_t i = 1; i < cb.size(); ++i)
        EXPECT_LT(cb.value(i - 1), cb.value(i));

    // Sanity: the whole encoded model still runs and classifies.
    const double err = model.errorRate(validation);
    EXPECT_LE(err, 1.0);
    EXPECT_GE(err, 0.0);
}

TEST(ComposeCnn, AvgPoolNetworkRuns)
{
    Rng rng(83);
    Network net;
    net.add(std::make_unique<nn::Conv2DLayer>(1, 4, 3,
                                              nn::Padding::Same, rng));
    net.add(std::make_unique<nn::ActivationLayer>(ActKind::ReLU));
    net.add(std::make_unique<nn::AvgPool2DLayer>(2));
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::DenseLayer>(4 * 3 * 3, 2, rng));

    Dataset data("t", 2);
    Rng drng(84);
    for (int i = 0; i < 60; ++i) {
        Tensor x({1, 6, 6});
        for (size_t j = 0; j < x.numel(); ++j)
            x[j] = float(drng.gaussian(i % 2, 0.3));
        data.add(std::move(x), i % 2);
    }
    nn::Trainer trainer({.epochs = 4, .batchSize = 8,
                         .learningRate = 0.05});
    trainer.train(net, data);

    Composer composer({});
    ReinterpretedModel model = composer.reinterpret(net, data);
    bool sawAvgPool = false;
    for (const auto &layer : model.layers())
        if (layer.kind == RLayerKind::AvgPool)
            sawAvgPool = true;
    EXPECT_TRUE(sawAvgPool);
    EXPECT_LE(model.errorRate(data), 1.0);
}

TEST(Compose, SigmoidActivationsSupported)
{
    Dataset data = nn::makeVectorTask({"s", 12, 3, 200, 0.3, 1.0, 91});
    Rng rng(92);
    Network net = nn::buildMlp({.inputs = 12, .hidden = {10},
                                .outputs = 3,
                                .hiddenAct = ActKind::Sigmoid}, rng);
    nn::Trainer trainer({.epochs = 10, .batchSize = 16,
                         .learningRate = 0.1});
    trainer.train(net, data);

    ComposerConfig config;
    config.activationRows = 64;
    Composer composer(config);
    ReinterpretedModel model = composer.reinterpret(net, data);
    EXPECT_EQ(model.layers()[0].activationKind, ActKind::Sigmoid);
    EXPECT_EQ(model.layers()[0].activation->rows(), 64u);
    EXPECT_LE(model.errorRate(data), 1.0);
}

} // namespace
} // namespace rapidnn::composer
