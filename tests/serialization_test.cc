/**
 * @file
 * Model serialization round trips: every layer kind (dense, conv,
 * pooling, residual, recurrent) must survive a trip through the .rnnb
 * blob with its structure intact — same layer list, description and
 * memory footprint — and bit-identical software inference. The chip
 * side of the same round trip is pinned by blob_equivalence_test.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "blob/blob.hh"
#include "composer/composer.hh"
#include "nn/recurrent.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"

namespace rapidnn::composer {
namespace {

/** Assert two models produce identical logits on a dataset sample. */
void
expectSameInference(const ReinterpretedModel &a,
                    const ReinterpretedModel &b,
                    const nn::Dataset &data, size_t samples = 20)
{
    for (size_t i = 0; i < std::min(samples, data.size()); ++i)
        EXPECT_EQ(a.forward(data.sample(i).x), b.forward(data.sample(i).x))
            << "sample " << i;
}

/** Assert the loaded model carries the original's structure. */
void
expectSameStructure(const ReinterpretedModel &a,
                    const ReinterpretedModel &b)
{
    ASSERT_EQ(b.layers().size(), a.layers().size());
    for (size_t i = 0; i < a.layers().size(); ++i)
        EXPECT_EQ(b.layers()[i].kind, a.layers()[i].kind) << "layer " << i;
    EXPECT_EQ(b.describe(), a.describe());
    EXPECT_EQ(b.memoryBytes(), a.memoryBytes());
}

std::shared_ptr<const blob::ModelBlob>
roundTrip(const ReinterpretedModel &model)
{
    return blob::ModelBlob::fromBytes(blob::buildBlob(model));
}

TEST(Serialization, MlpRoundTrip)
{
    nn::Dataset data =
        nn::makeVectorTask({"ser", 20, 4, 260, 0.35, 1.0, 801});
    Rng rng(802);
    nn::Network net = nn::buildMlp({.inputs = 20, .hidden = {16, 10},
                                    .outputs = 4}, rng);
    nn::Trainer({.epochs = 8, .batchSize = 16, .learningRate = 0.05})
        .train(net, data);
    Composer comp({});
    ReinterpretedModel model = comp.reinterpret(net, data);
    auto blob = roundTrip(model);

    expectSameStructure(model, blob->model());
    expectSameInference(model, blob->model(), data);
}

TEST(Serialization, CnnWithPoolingRoundTrip)
{
    nn::ImageTaskSpec spec;
    spec.name = "ser-img";
    spec.side = 8;
    spec.classes = 3;
    spec.samples = 150;
    spec.seed = 803;
    nn::Dataset data = nn::makeImageTask(spec);
    Rng rng(804);
    nn::CnnSpec cnn;
    cnn.channels = 3;
    cnn.height = cnn.width = 8;
    cnn.convChannels = {6};
    cnn.denseWidths = {12};
    cnn.outputs = 3;
    nn::Network net = nn::buildCnn(cnn, rng);
    nn::Trainer({.epochs = 4, .batchSize = 16, .learningRate = 0.05})
        .train(net, data);
    Composer comp({});
    ReinterpretedModel model = comp.reinterpret(net, data);
    auto blob = roundTrip(model);

    expectSameStructure(model, blob->model());
    bool sawPool = false;
    for (const auto &layer : blob->model().layers())
        sawPool |= layer.kind == RLayerKind::MaxPool ||
            layer.kind == RLayerKind::AvgPool;
    EXPECT_TRUE(sawPool);
    expectSameInference(model, blob->model(), data, 10);
}

TEST(Serialization, ResidualRoundTrip)
{
    nn::Dataset data =
        nn::makeVectorTask({"ser-res", 12, 3, 200, 0.3, 1.0, 805});
    Rng rng(806);
    nn::Network net;
    net.add(std::make_unique<nn::DenseLayer>(12, 10, rng));
    net.add(std::make_unique<nn::ActivationLayer>(nn::ActKind::Tanh));
    std::vector<nn::LayerPtr> inner;
    inner.push_back(std::make_unique<nn::DenseLayer>(10, 10, rng));
    inner.push_back(
        std::make_unique<nn::ActivationLayer>(nn::ActKind::Tanh));
    net.add(std::make_unique<nn::ResidualLayer>(std::move(inner)));
    net.add(std::make_unique<nn::ActivationLayer>(nn::ActKind::ReLU));
    net.add(std::make_unique<nn::DenseLayer>(10, 3, rng));
    nn::Trainer({.epochs = 6, .batchSize = 16, .learningRate = 0.05})
        .train(net, data);

    Composer comp({});
    ReinterpretedModel model = comp.reinterpret(net, data);
    auto blob = roundTrip(model);

    // The residual block and its nested layers survive.
    expectSameStructure(model, blob->model());
    bool sawResidual = false;
    for (const auto &layer : blob->model().layers())
        if (layer.kind == RLayerKind::Residual) {
            sawResidual = true;
            EXPECT_FALSE(layer.inner.empty());
            EXPECT_TRUE(layer.activation.has_value());
        }
    EXPECT_TRUE(sawResidual);
    expectSameInference(model, blob->model(), data);
}

TEST(Serialization, RecurrentRoundTrip)
{
    nn::SequenceTaskSpec spec;
    spec.name = "ser-seq";
    spec.features = 5;
    spec.steps = 6;
    spec.classes = 3;
    spec.samples = 180;
    spec.seed = 807;
    nn::Dataset data = nn::makeSequenceTask(spec);
    Rng rng(808);
    nn::Network net;
    net.add(std::make_unique<nn::ElmanLayer>(
        5, 10, 6, nn::ActKind::Tanh, rng));
    net.add(std::make_unique<nn::DenseLayer>(10, 3, rng));
    nn::Trainer({.epochs = 6, .batchSize = 16, .learningRate = 0.05})
        .train(net, data);

    Composer comp({});
    ReinterpretedModel model = comp.reinterpret(net, data);
    auto blob = roundTrip(model);

    expectSameStructure(model, blob->model());
    const auto &rec = blob->model().layers()[0];
    EXPECT_EQ(rec.kind, RLayerKind::Recurrent);
    EXPECT_EQ(rec.steps, 6u);
    EXPECT_FALSE(rec.stateCodebook.empty());
    EXPECT_EQ(rec.stateProductTables.size(), 1u);
    expectSameInference(model, blob->model(), data);
}

TEST(Serialization, FileRoundTrip)
{
    nn::Dataset data =
        nn::makeVectorTask({"ser-f", 10, 3, 150, 0.3, 1.0, 809});
    Rng rng(810);
    nn::Network net = nn::buildMlp({.inputs = 10, .hidden = {8},
                                    .outputs = 3}, rng);
    nn::Trainer({.epochs = 4, .batchSize = 16, .learningRate = 0.05})
        .train(net, data);
    Composer comp({});
    ReinterpretedModel model = comp.reinterpret(net, data);

    const std::string path = ::testing::TempDir() +
        "rapidnn_serialization_" + std::to_string(::getpid()) + ".rnnb";
    blob::writeBlobFile(model, path);
    auto blob = blob::ModelBlob::open(path);
    std::remove(path.c_str());
    expectSameStructure(model, blob->model());
    expectSameInference(model, blob->model(), data, 10);
}

} // namespace
} // namespace rapidnn::composer
