/**
 * @file
 * Bitwise-equivalence guard for the .rnnb model blob: a blob-backed
 * model (Arrays viewing the packed bytes, precomputed columns and conv
 * plans loaded from the file) must be indistinguishable from the
 * heap-backed model it was written from. Every observable — logits,
 * output codes, PerfReport totals and breakdowns — is compared EQ, not
 * NEAR, across dense, conv+pool, recurrent and residual models, both
 * fast-path settings, and both NDCAM search modes. Also pins the
 * sharing properties: blob Arrays are views (zero per-replica copies)
 * and clones of a blob-backed Chip agree bitwise.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "blob/blob.hh"
#include "blob/format.hh"
#include "composer/composer.hh"
#include "nn/recurrent.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "rna/chip.hh"
#include "runtime/serving_engine.hh"
#include "telemetry/metrics.hh"

namespace rapidnn::blob {
namespace {

using composer::Composer;
using composer::ComposerConfig;
using composer::ReinterpretedModel;
using composer::RLayerKind;

composer::ReinterpretedModel
compose(nn::Network &net, const nn::Dataset &train)
{
    ComposerConfig config;
    config.weightClusters = 16;
    config.inputClusters = 16;
    Composer composer(config);
    ReinterpretedModel model = composer.reinterpret(net, train);
    model.setCanonicalInputShape(train.featureShape());
    return model;
}

struct Fixture
{
    nn::Dataset train;
    nn::Dataset validation;
    ReinterpretedModel model;
};

Fixture &
denseFixture()
{
    static Fixture *fx = [] {
        auto *f = new Fixture;
        nn::Dataset all = nn::makeVectorTask(
            {"blob-dense", 16, 4, 260, 0.35, 1.0, 901});
        auto [tr, va] = all.split(0.25);
        f->train = std::move(tr);
        f->validation = std::move(va);
        Rng rng(902);
        nn::Network net = nn::buildMlp(
            {.inputs = 16, .hidden = {18, 12}, .outputs = 4}, rng);
        nn::Trainer({.epochs = 4, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, f->train);
        f->model = compose(net, f->train);
        return f;
    }();
    return *fx;
}

Fixture &
convFixture()
{
    static Fixture *fx = [] {
        auto *f = new Fixture;
        nn::ImageTaskSpec spec;
        spec.name = "blob-conv";
        spec.side = 8;
        spec.classes = 3;
        spec.samples = 200;
        spec.seed = 903;
        nn::Dataset all = nn::makeImageTask(spec);
        auto [tr, va] = all.split(0.25);
        f->train = std::move(tr);
        f->validation = std::move(va);
        Rng rng(904);
        nn::CnnSpec cnn;
        cnn.channels = 3;
        cnn.height = cnn.width = 8;
        cnn.convChannels = {5, 6};
        cnn.denseWidths = {16};
        cnn.outputs = 3;
        nn::Network net = nn::buildCnn(cnn, rng);
        nn::Trainer({.epochs = 3, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, f->train);
        f->model = compose(net, f->train);
        return f;
    }();
    return *fx;
}

Fixture &
recurrentFixture()
{
    static Fixture *fx = [] {
        auto *f = new Fixture;
        nn::SequenceTaskSpec spec;
        spec.name = "blob-seq";
        spec.features = 5;
        spec.steps = 6;
        spec.classes = 3;
        spec.samples = 220;
        spec.noise = 0.25;
        spec.seed = 905;
        nn::Dataset all = nn::makeSequenceTask(spec);
        auto [tr, va] = all.split(0.25);
        f->train = std::move(tr);
        f->validation = std::move(va);
        Rng rng(906);
        nn::Network net;
        net.add(std::make_unique<nn::ElmanLayer>(
            5, 10, 6, nn::ActKind::Tanh, rng));
        net.add(std::make_unique<nn::DenseLayer>(10, 3, rng));
        nn::Trainer({.epochs = 4, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, f->train);
        f->model = compose(net, f->train);
        return f;
    }();
    return *fx;
}

Fixture &
residualFixture()
{
    static Fixture *fx = [] {
        auto *f = new Fixture;
        nn::Dataset all = nn::makeVectorTask(
            {"blob-res", 12, 3, 200, 0.3, 1.0, 907});
        auto [tr, va] = all.split(0.25);
        f->train = std::move(tr);
        f->validation = std::move(va);
        Rng rng(908);
        nn::Network net;
        net.add(std::make_unique<nn::DenseLayer>(12, 10, rng));
        net.add(std::make_unique<nn::ActivationLayer>(
            nn::ActKind::Tanh));
        std::vector<nn::LayerPtr> inner;
        inner.push_back(std::make_unique<nn::DenseLayer>(10, 10, rng));
        inner.push_back(std::make_unique<nn::ActivationLayer>(
            nn::ActKind::Tanh));
        net.add(std::make_unique<nn::ResidualLayer>(std::move(inner)));
        net.add(std::make_unique<nn::ActivationLayer>(
            nn::ActKind::ReLU));
        net.add(std::make_unique<nn::DenseLayer>(10, 3, rng));
        nn::Trainer({.epochs = 4, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, f->train);
        f->model = compose(net, f->train);
        return f;
    }();
    return *fx;
}

/** Every observable of heap and blob chips must be bit-identical. */
void
expectBitwiseEqual(const Fixture &fx, bool fastPath,
                   nvm::SearchMode mode, size_t samples = 10)
{
    auto blob = ModelBlob::fromBytes(buildBlob(fx.model));

    rna::ChipConfig config;
    config.fastPath = fastPath;
    config.searchMode = mode;
    rna::Chip heap(config);
    heap.configure(fx.model);
    rna::Chip mapped(config);
    mapped.configure(blob->model());

    for (size_t s = 0; s < samples && s < fx.validation.size(); ++s) {
        const nn::Tensor &x = fx.validation.sample(s).x;
        rna::PerfReport heapReport, blobReport;
        const std::vector<double> heapLogits = heap.infer(x, heapReport);
        const std::vector<double> blobLogits =
            mapped.infer(x, blobReport);

        ASSERT_EQ(heapLogits.size(), blobLogits.size());
        for (size_t j = 0; j < heapLogits.size(); ++j)
            EXPECT_EQ(heapLogits[j], blobLogits[j])
                << "logit " << j << " sample " << s;

        EXPECT_EQ(heapReport.latency.ns(), blobReport.latency.ns());
        EXPECT_EQ(heapReport.stageTime.ns(), blobReport.stageTime.ns());
        EXPECT_EQ(heapReport.energy.j(), blobReport.energy.j());
        EXPECT_EQ(heapReport.totalOps, blobReport.totalOps);
        ASSERT_EQ(heapReport.breakdown.size(),
                  blobReport.breakdown.size());
        for (size_t c = 0; c < heapReport.breakdown.size(); ++c) {
            EXPECT_EQ(heapReport.breakdown[c].name,
                      blobReport.breakdown[c].name);
            EXPECT_EQ(heapReport.breakdown[c].time.ns(),
                      blobReport.breakdown[c].time.ns())
                << heapReport.breakdown[c].name;
            EXPECT_EQ(heapReport.breakdown[c].energy.j(),
                      blobReport.breakdown[c].energy.j())
                << heapReport.breakdown[c].name;
        }
    }
}

TEST(BlobEquivalence, DenseBitwise)
{
    expectBitwiseEqual(denseFixture(), true,
                       nvm::SearchMode::AbsoluteExact);
    expectBitwiseEqual(denseFixture(), false,
                       nvm::SearchMode::AbsoluteExact, 6);
}

TEST(BlobEquivalence, ConvWithPoolingBitwise)
{
    expectBitwiseEqual(convFixture(), true,
                       nvm::SearchMode::AbsoluteExact, 6);
    expectBitwiseEqual(convFixture(), false,
                       nvm::SearchMode::AbsoluteExact, 4);
}

TEST(BlobEquivalence, RecurrentBitwise)
{
    expectBitwiseEqual(recurrentFixture(), true,
                       nvm::SearchMode::AbsoluteExact);
    expectBitwiseEqual(recurrentFixture(), false,
                       nvm::SearchMode::AbsoluteExact, 6);
}

TEST(BlobEquivalence, ResidualBitwise)
{
    expectBitwiseEqual(residualFixture(), true,
                       nvm::SearchMode::AbsoluteExact);
    expectBitwiseEqual(residualFixture(), false,
                       nvm::SearchMode::AbsoluteExact, 6);
}

TEST(BlobEquivalence, StagedSearchModeBitwise)
{
    expectBitwiseEqual(denseFixture(), true,
                       nvm::SearchMode::CircuitStaged, 5);
    expectBitwiseEqual(convFixture(), true,
                       nvm::SearchMode::CircuitStaged, 3);
}

TEST(BlobEquivalence, SoftwareForwardBitwise)
{
    // The composer's software evaluation path reads the same Arrays.
    const Fixture &fx = convFixture();
    auto blob = ModelBlob::fromBytes(buildBlob(fx.model));
    for (size_t s = 0; s < 8 && s < fx.validation.size(); ++s) {
        const auto heap = fx.model.forward(fx.validation.sample(s).x);
        const auto mapped =
            blob->model().forward(fx.validation.sample(s).x);
        ASSERT_EQ(heap.size(), mapped.size());
        for (size_t j = 0; j < heap.size(); ++j)
            EXPECT_EQ(heap[j], mapped[j]) << "sample " << s;
    }
}

TEST(BlobEquivalence, BlobModelIsZeroCopy)
{
    const Fixture &fx = recurrentFixture();
    auto blob = ModelBlob::fromBytes(buildBlob(fx.model));
    const ReinterpretedModel &m = blob->model();
    ASSERT_FALSE(m.layers().empty());
    for (const auto &layer : m.layers()) {
        for (const auto &codes : layer.weightCodes)
            EXPECT_FALSE(codes.owning());
        for (const auto &table : layer.productTables)
            EXPECT_FALSE(table.owning());
        if (!layer.bias.empty()) {
            EXPECT_FALSE(layer.bias.owning());
        }
        if (!layer.denseRows8.empty()) {
            EXPECT_FALSE(layer.denseRows8.owning());
        }
        if (layer.convPlan.has_value()) {
            EXPECT_FALSE(layer.convPlan->start.owning());
            EXPECT_FALSE(layer.convPlan->weightIdx.owning());
            EXPECT_FALSE(layer.convPlan->inputIdx.owning());
        }
    }
    // The recurrent layer carries its precomputed packed transposes.
    EXPECT_FALSE(m.layers()[0].recXColumns8.empty());
    EXPECT_FALSE(m.layers()[0].recXColumns8.owning());
    EXPECT_EQ(m.canonicalInputShape(), fx.model.canonicalInputShape());
}

TEST(BlobEquivalence, ConvPlanPrecomputedInBlob)
{
    const Fixture &fx = convFixture();
    auto blob = ModelBlob::fromBytes(buildBlob(fx.model));
    bool sawConv = false;
    for (const auto &layer : blob->model().layers())
        if (layer.kind == RLayerKind::Conv) {
            sawConv = true;
            ASSERT_TRUE(layer.convPlan.has_value());
            EXPECT_GT(layer.convPlan->weightIdx.size(), 0u);
        }
    EXPECT_TRUE(sawConv);
}

TEST(BlobEquivalence, CloneOfBlobBackedChipAgrees)
{
    const Fixture &fx = convFixture();
    auto blob = ModelBlob::fromBytes(buildBlob(fx.model));
    rna::Chip chip{rna::ChipConfig{}};
    chip.configure(blob->model());
    rna::Chip replica = chip.clone();

    for (size_t s = 0; s < 5; ++s) {
        const nn::Tensor &x = fx.validation.sample(s).x;
        rna::PerfReport a, b;
        EXPECT_EQ(chip.infer(x, a), replica.infer(x, b));
        EXPECT_EQ(a.energy.j(), b.energy.j());
    }
}

TEST(BlobEquivalence, FileRoundTripMapsAndAgrees)
{
    const Fixture &fx = denseFixture();
    const std::string path = "/tmp/rapidnn_blob_roundtrip.rnnb";
    writeBlobFile(fx.model, path);
    auto blob = ModelBlob::open(path);
    EXPECT_TRUE(blob->mapped());
    EXPECT_GT(blob->fileBytes(), size_t(kHeaderBytes));

    rna::Chip heap{rna::ChipConfig{}};
    heap.configure(fx.model);
    rna::Chip mapped{rna::ChipConfig{}};
    mapped.configure(blob->model());
    for (size_t s = 0; s < 8; ++s) {
        const nn::Tensor &x = fx.validation.sample(s).x;
        rna::PerfReport a, b;
        EXPECT_EQ(heap.infer(x, a), mapped.infer(x, b));
    }
    std::remove(path.c_str());
}

TEST(BlobEquivalence, RewriteOfLoadedBlobIsIdentical)
{
    // Writer determinism: re-serializing a blob-backed model must
    // reproduce the original bytes exactly.
    const Fixture &fx = convFixture();
    const std::vector<uint8_t> first = buildBlob(fx.model);
    auto blob = ModelBlob::fromBytes(first);
    const std::vector<uint8_t> second = buildBlob(blob->model());
    EXPECT_EQ(first, second);
}

TEST(BlobEquivalence, ServingFromSharedBlobMatchesHeap)
{
    // Four worker replicas all view the one blob mapping; logits must
    // match the heap-backed chip bitwise for every request.
    const Fixture &fx = denseFixture();
    auto blob = ModelBlob::fromBytes(buildBlob(fx.model));

    rna::Chip heap{rna::ChipConfig{}};
    heap.configure(fx.model);

    runtime::ServingConfig serving;
    serving.workers = 4;
    serving.maxBatch = 4;
    runtime::ServingEngine engine(blob, rna::ChipConfig{}, serving);
    blob.reset(); // the engine holds the mapping alive

    std::vector<std::future<runtime::InferResult>> futures;
    const size_t requests = 24;
    for (size_t i = 0; i < requests; ++i)
        futures.push_back(engine.submit(
            fx.validation.sample(i % fx.validation.size()).x));
    for (size_t i = 0; i < requests; ++i) {
        const runtime::InferResult got = futures[i].get();
        rna::PerfReport report;
        const std::vector<double> want = heap.infer(
            fx.validation.sample(i % fx.validation.size()).x, report);
        EXPECT_EQ(want, got.logits) << "request " << i;
    }
    engine.shutdown();
}

TEST(BlobEquivalence, TelemetryGaugeTracksResidentBytes)
{
    const Fixture &fx = denseFixture();
    telemetry::Gauge &gauge = telemetry::Registry::global().gauge(
        "rapidnn_model_blob_bytes",
        "Bytes of model blobs currently resident (mapped or owned)");
    const int64_t before = gauge.value();
    {
        auto blob = ModelBlob::fromBytes(buildBlob(fx.model));
        EXPECT_EQ(gauge.value(),
                  before + int64_t(blob->fileBytes()));
    }
    EXPECT_EQ(gauge.value(), before);
}

} // namespace
} // namespace rapidnn::blob
