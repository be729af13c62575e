/**
 * @file
 * Bitwise-equivalence guard for the .rnnb model blob: a blob-backed
 * model (Arrays viewing the packed bytes) must be indistinguishable
 * from the heap-backed model it was written from. Every observable — logits,
 * output codes, PerfReport totals and breakdowns — is compared EQ, not
 * NEAR, across dense, conv+pool, recurrent and residual models, both
 * fast-path settings, and both NDCAM search modes. Also pins the
 * sharing properties: blob Arrays are views (zero per-replica copies)
 * and clones of a blob-backed Chip agree bitwise. Version 4 and 5
 * blobs of older writers (tests/data), whose derived sections the
 * loader ignores, still load and agree bitwise with the reference
 * walk.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>

#include "blob/blob.hh"
#include "blob/format.hh"
#include "common/rng.hh"
#include "composer/composer.hh"
#include "nn/recurrent.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "rna/chip.hh"
#include "rna/kernels/kernels.hh"
#include "runtime/serving_engine.hh"
#include "telemetry/metrics.hh"

namespace rapidnn::blob {
namespace {

using composer::Composer;
using composer::ComposerConfig;
using composer::ReinterpretedModel;

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

/** Two PerfReports agree in every field, bit for bit. */
void
expectSameReport(const rna::PerfReport &want, const rna::PerfReport &got)
{
    EXPECT_EQ(want.latency.ns(), got.latency.ns());
    EXPECT_EQ(want.stageTime.ns(), got.stageTime.ns());
    EXPECT_EQ(want.energy.j(), got.energy.j());
    EXPECT_EQ(want.totalOps, got.totalOps);
    ASSERT_EQ(want.breakdown.size(), got.breakdown.size());
    for (size_t c = 0; c < want.breakdown.size(); ++c) {
        EXPECT_EQ(want.breakdown[c].name, got.breakdown[c].name);
        EXPECT_EQ(want.breakdown[c].time.ns(), got.breakdown[c].time.ns())
            << want.breakdown[c].name;
        EXPECT_EQ(want.breakdown[c].energy.j(),
                  got.breakdown[c].energy.j())
            << want.breakdown[c].name;
    }
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

        expectSameReport(heapReport, blobReport);
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
        for (const auto &codes : layer.stateWeightCodes)
            EXPECT_FALSE(codes.owning());
    }
    EXPECT_EQ(m.canonicalInputShape(), fx.model.canonicalInputShape());
}

/** Section-table indices of a blob's sections of `kind`. */
std::vector<uint64_t>
sectionsOfKind(const std::vector<uint8_t> &bytes, SectionKind kind)
{
    std::vector<uint64_t> out;
    const uint64_t count = getU64(bytes.data() + 24);
    for (uint64_t i = 0; i < count; ++i)
        if (getU32(bytes.data() + kHeaderBytes + i * kSectionEntryBytes) ==
            uint32_t(kind))
            out.push_back(i);
    return out;
}

/**
 * A blob an older writer left under tests/data loads, and every SIMD
 * variant's production chip agrees bit for bit with the reference walk
 * over it: over the file as written, over the file with every byte of
 * its U8 and U32 sections inverted, and over the blob it rewrites to.
 * Those sections hold only derived data (packed codes, tally rows,
 * conv gather plans) that the loader ignores: the inverted file holds
 * the same model, down to its rewritten bytes.
 */
void
expectBlobMatchesReference(const char *name, uint32_t version)
{
    std::ifstream is(std::string(RAPIDNN_TEST_DATA_DIR) + "/" + name,
                     std::ios::binary);
    ASSERT_TRUE(is.good()) << name;
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                               std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), size_t(kHeaderBytes));
    ASSERT_EQ(getU32(bytes.data() + 4), version) << name;

    std::vector<uint8_t> inverted = bytes;
    size_t derived = 0;
    for (SectionKind kind : {SectionKind::U8, SectionKind::U32})
        for (uint64_t i : sectionsOfKind(bytes, kind)) {
            const uint8_t *e =
                bytes.data() + kHeaderBytes + i * kSectionEntryBytes;
            for (uint64_t b = 0; b < getU64(e + 16); ++b)
                inverted[getU64(e + 8) + b] ^= 0xff;
            ++derived;
        }
    ASSERT_GT(derived, 0u) << name << " holds no derived sections";

    auto original = ModelBlob::fromBytes(std::move(bytes));
    auto flipped = ModelBlob::fromBytes(std::move(inverted));
    const std::vector<uint8_t> rewritten = buildBlob(original->model());
    EXPECT_EQ(buildBlob(flipped->model()), rewritten) << name;
    auto current = ModelBlob::fromBytes(rewritten);

    Rng rng(941);
    std::vector<nn::Tensor> inputs;
    for (size_t s = 0; s < 6; ++s) {
        nn::Tensor x(original->model().canonicalInputShape());
        for (size_t i = 0; i < x.numel(); ++i)
            x[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
        inputs.push_back(std::move(x));
    }
    rna::ChipConfig refConfig;
    refConfig.fastPath = false;
    rna::Chip reference(refConfig);
    reference.configure(original->model());
    for (simd::Variant v : rna::kernels::availableVariants()) {
        rna::ChipConfig config;
        config.simd = v;
        for (const ModelBlob *blob :
             {original.get(), flipped.get(), current.get()}) {
            rna::Chip chip(config);
            chip.configure(blob->model());
            for (const nn::Tensor &x : inputs) {
                rna::PerfReport want, got;
                EXPECT_EQ(reference.infer(x, want), chip.infer(x, got))
                    << name << " " << simd::variantName(v);
                expectSameReport(want, got);
            }
        }
    }
}

TEST(BlobEquivalence, V4ConvBlobMatchesReference)
{
    expectBlobMatchesReference("conv_v4.rnnb", 4);
}

TEST(BlobEquivalence, V4RecurrentBlobMatchesReference)
{
    expectBlobMatchesReference("recurrent_v4.rnnb", 4);
}

TEST(BlobEquivalence, V5ConvBlobMatchesReference)
{
    expectBlobMatchesReference("conv_v5.rnnb", 5);
}

TEST(BlobEquivalence, V5RecurrentBlobMatchesReference)
{
    expectBlobMatchesReference("recurrent_v5.rnnb", 5);
}

TEST(BlobEquivalence, WrittenBlobHoldsNoDerivedSections)
{
    // The writer stores the composed model only: no packed rows (U8)
    // and no conv gather plans (U32), for any layer kind.
    for (const Fixture *fx : {&denseFixture(), &convFixture(),
                              &recurrentFixture(), &residualFixture()}) {
        const std::vector<uint8_t> bytes = buildBlob(fx->model);
        EXPECT_EQ(getU32(bytes.data() + 4), kBlobVersion);
        EXPECT_TRUE(sectionsOfKind(bytes, SectionKind::U8).empty());
        EXPECT_TRUE(sectionsOfKind(bytes, SectionKind::U32).empty());
    }
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
