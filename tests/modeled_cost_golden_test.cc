/**
 * @file
 * Modeled-cost goldens: the chip's PerfReport on fixed models and
 * seeded inputs, pinned to the last bit.
 *
 * The models are the four checked-in blobs under tests/data (conv with
 * pooling, recurrent; each in two blob versions) and one seeded MLP
 * composed here without training. Each runs on a default ChipConfig,
 * on the production path and on the reference walk (fastPath = false),
 * and every report's latency, stage time, energy and per-category time
 * and energy must equal the hexfloat values below.
 *
 * On x86-64 the comparison is exact. Elsewhere it allows 1e-12
 * relative: the values were captured on x86-64, and a compiler that
 * contracts multiply-adds (gcc does on aarch64) may round the composed
 * MLP's codebooks and the report's energy sums differently in the last
 * bits. A change that should leave modeled cost alone must leave this
 * test green unchanged; a change that means to move it re-captures the
 * table from the failure messages, which print every value in hexfloat.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "blob/blob.hh"
#include "common/rng.hh"
#include "composer/composer.hh"
#include "nn/synthetic.hh"
#include "rna/chip.hh"

namespace rapidnn::rna {
namespace {

/** Report categories, in the order the chip writes them. */
constexpr const char *kCategories[] = {"weighted_accum", "activation",
                                       "encoding", "pooling", "other"};
constexpr size_t kCategoryCount = std::size(kCategories);

/** One report in seconds and joules. */
struct Golden
{
    double latency;
    double stageTime;
    double energy;
    double time[kCategoryCount];
    double categoryEnergy[kCategoryCount];
};

/** Inputs per model. */
constexpr size_t kInputs = 2;

std::shared_ptr<const blob::ModelBlob>
loadFixture(const std::string &name)
{
    std::ifstream is(std::string(RAPIDNN_TEST_DATA_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(is.good()) << name;
    return blob::ModelBlob::fromBytes(std::vector<uint8_t>(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>()));
}

/** A 24-16-12-5 MLP with seeded weights, composed on seeded data. */
composer::ReinterpretedModel
seededMlp()
{
    nn::Dataset data =
        nn::makeVectorTask({"golden-mlp", 24, 5, 120, 0.3, 1.0, 961});
    Rng rng(962);
    nn::Network net = nn::buildMlp(
        {.inputs = 24, .hidden = {16, 12}, .outputs = 5}, rng);
    composer::ComposerConfig config;
    config.weightClusters = 16;
    config.inputClusters = 16;
    return composer::Composer(config).reinterpret(net, data);
}

/** kInputs seeded inputs of the model's shape, values in [-1, 1). */
std::vector<nn::Tensor>
seededInputs(const composer::ReinterpretedModel &model)
{
    Rng rng(963);
    std::vector<nn::Tensor> inputs;
    for (size_t s = 0; s < kInputs; ++s) {
        nn::Tensor x(model.canonicalInputShape());
        for (size_t i = 0; i < x.numel(); ++i)
            x[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
        inputs.push_back(std::move(x));
    }
    return inputs;
}

std::string
hex(double v)
{
    std::ostringstream os;
    os << std::hexfloat << v;
    return os.str();
}

void
expectValue(double want, double got, const std::string &what)
{
#if defined(__x86_64__)
    EXPECT_EQ(want, got) << what << ": got " << hex(got);
#else
    EXPECT_NEAR(want, got, std::abs(want) * 1e-12)
        << what << ": got " << hex(got);
#endif
}

void
expectGolden(const composer::ReinterpretedModel &model,
             const Golden (&goldens)[kInputs], const std::string &name)
{
    const std::vector<nn::Tensor> inputs = seededInputs(model);
    for (bool fast : {true, false}) {
        ChipConfig config;
        config.fastPath = fast;
        Chip chip(config);
        chip.configure(model);
        for (size_t s = 0; s < kInputs; ++s) {
            PerfReport r;
            chip.infer(inputs[s], r);
            const Golden &g = goldens[s];
            const std::string at = name + (fast ? " fast" : " reference")
                + " input " + std::to_string(s);
            expectValue(g.latency, r.latency.sec(), at + " latency");
            expectValue(g.stageTime, r.stageTime.sec(), at + " stageTime");
            expectValue(g.energy, r.energy.j(), at + " energy");
            ASSERT_EQ(r.breakdown.size(), kCategoryCount) << at;
            for (size_t c = 0; c < kCategoryCount; ++c) {
                const CategoryCost &cat = r.breakdown[c];
                EXPECT_EQ(cat.name, kCategories[c]) << at;
                expectValue(g.time[c], cat.time.sec(),
                            at + " " + cat.name + " time");
                expectValue(g.categoryEnergy[c], cat.energy.j(),
                            at + " " + cat.name + " energy");
            }
        }
    }
}

void
expectBlobGolden(const char *name, const Golden (&goldens)[kInputs])
{
    const auto blob = loadFixture(name);
    expectGolden(blob->model(), goldens, name);
}

// Per input: latency, stage time and energy, then every category's
// time and energy in kCategories order. Both blob versions of each
// fixture hold the same model, so they share one table.
// clang-format off
const Golden kConv[kInputs] = {
    {0x1.b0fc8416f2d82p-20, 0x1.328da4767504fp-21, 0x1.ede417e279a09p-22,
     {0x1.a2a00622e260cp-14, 0x1.2ecb91dbac86p-21, 0x1.2ecb91dbac86p-21,
      0x1.828c0be769dc2p-24, 0x1.353cd652bb168p-26},
     {0x1.94b6205971819p-22, 0x1.5f67670df523cp-32, 0x1.005172527691fp-32,
      0x1.23eb9b3791e42p-34, 0x1.620f2a63f22b8p-24}},
    {0x1.b1caaca5d4aa3p-20, 0x1.331714d5b63bap-21, 0x1.ee2716cc0fac5p-22,
     {0x1.a2caf940a6c1ep-14, 0x1.2ecb91dbac86p-21, 0x1.2ecb91dbac86p-21,
      0x1.828c0be769dc2p-24, 0x1.353cd652bb168p-26},
     {0x1.94eb16b7b0cafp-22, 0x1.5f67670df523cp-32, 0x1.005172527691fp-32,
      0x1.23eb9b3791e42p-34, 0x1.62474c914d355p-24}},
};
const Golden kRecurrent[kInputs] = {
    {0x1.c38228ed3cb78p-19, 0x1.8043ee5294b3ap-19, 0x1.2a38acfb04fb7p-23,
     {0x1.c4882722d107cp-16, 0x1.5be4711d12795p-24, 0x1.715dffff43058p-24,
      0x0p+0, 0x1.353cd652bb168p-27},
     {0x1.afa5c3e528bf4p-24, 0x1.93bd9c87ddbcp-35, 0x1.38f7099124043p-35,
      0x0p+0, 0x1.48e3fef83c2ecp-25}},
    {0x1.c3e93d34ada08p-19, 0x1.8088a682354efp-19, 0x1.29938ba3a11ecp-23,
     {0x1.c35b815272602p-16, 0x1.5be4711d12795p-24, 0x1.715dffff43058p-24,
      0x0p+0, 0x1.353cd652bb168p-27},
     {0x1.ae7e5ed3f1e78p-24, 0x1.93bd9c87ddbcp-35, 0x1.38f7099124043p-35,
      0x0p+0, 0x1.489e43bd1a6bap-25}},
};
const Golden kMlp[kInputs] = {
    {0x1.a4e823b7b7894p-20, 0x1.21e908ed8f651p-21, 0x1.b3d9f980979dcp-24,
     {0x1.1f177af97905ep-16, 0x1.68c6fa0b2f9a4p-24, 0x1.68c6fa0b2f9a4p-24,
      0x0p+0, 0x1.12e0be826d695p-26},
     {0x1.14b70a5d3d8c3p-24, 0x1.129d30afd985dp-33, 0x1.a2b1abcf44c2dp-35,
      0x0p+0, 0x1.3cca94ab10788p-25}},
    {0x1.a5719416f8bffp-20, 0x1.21e908ed8f651p-21, 0x1.b4bf68e61e2b1p-24,
     {0x1.1f9408cfcc1f7p-16, 0x1.68c6fa0b2f9a4p-24, 0x1.68c6fa0b2f9a4p-24,
      0x0p+0, 0x1.12e0be826d695p-26},
     {0x1.15634d9c9d104p-24, 0x1.129d30afd985dp-33, 0x1.a2b1abcf44c2dp-35,
      0x0p+0, 0x1.3d3cecf75e8aep-25}},
};
// clang-format on

TEST(ModeledCostGolden, ConvV4Blob)
{
    expectBlobGolden("conv_v4.rnnb", kConv);
}

TEST(ModeledCostGolden, ConvV5Blob)
{
    expectBlobGolden("conv_v5.rnnb", kConv);
}

TEST(ModeledCostGolden, RecurrentV4Blob)
{
    expectBlobGolden("recurrent_v4.rnnb", kRecurrent);
}

TEST(ModeledCostGolden, RecurrentV5Blob)
{
    expectBlobGolden("recurrent_v5.rnnb", kRecurrent);
}

TEST(ModeledCostGolden, SeededMlp)
{
    expectGolden(seededMlp(), kMlp, "seeded MLP");
}

} // namespace
} // namespace rapidnn::rna
