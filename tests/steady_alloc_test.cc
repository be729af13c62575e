/**
 * @file
 * Steady-state allocation of the chip's serve path. After warm-up
 * calls, Chip::infer() allocates only the logits vector it returns,
 * and inferBatch() of N lanes only its result vector and the N
 * logits: N + 1 calls. Every global operator new is counted the way
 * bench/bench_model_load.cc counts it, on an MLP, a CNN with max
 * pooling, a residual model and a recurrent model.
 *
 * The counter is process-wide, so the suite stays single-threaded and
 * out of the threaded `runtime` label.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "composer/composer.hh"
#include "nn/dense.hh"
#include "nn/misc_layers.hh"
#include "nn/network.hh"
#include "nn/recurrent.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "rna/chip.hh"

// Counts every unaligned global allocation. The aligned overloads stay
// default; new/delete pairs stay matched either way. The replacements
// are never inlined: GCC's -Wmismatched-new-delete would otherwise see
// free() meet a pointer from the builtin operator new.

namespace {
std::atomic<uint64_t> g_allocCalls{0};
} // namespace

[[gnu::noinline]] void *
operator new(size_t n)
{
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

namespace rapidnn::rna {
namespace {

using composer::ReinterpretedModel;

/** The widest batch measured; the default chip's maxBatch hint is 1,
 *  so the warm-up also grows the batch arenas to this. */
constexpr size_t kLanes = 8;
constexpr size_t kWarmRounds = 4;
constexpr size_t kMeasuredCalls = 6;

struct Fixture
{
    ReinterpretedModel model;
    std::vector<nn::Tensor> inputs;  //!< kLanes held-out samples
};

Fixture
makeFixture(nn::Dataset all, nn::Network net)
{
    auto [train, validation] = all.split(0.25);
    nn::Trainer({.epochs = 2, .batchSize = 16, .learningRate = 0.05})
        .train(net, train);
    composer::ComposerConfig config;
    config.weightClusters = 16;
    config.inputClusters = 16;
    Fixture fx;
    fx.model = composer::Composer(config).reinterpret(net, train);
    fx.model.setCanonicalInputShape(train.featureShape());
    for (size_t i = 0; i < kLanes; ++i)
        fx.inputs.push_back(validation.sample(i % validation.size()).x);
    return fx;
}

Fixture
mlpFixture()
{
    Rng rng(601);
    return makeFixture(
        nn::makeVectorTask({"alloc-mlp", 24, 4, 200, 0.35, 1.0, 602}),
        nn::buildMlp({.inputs = 24, .hidden = {32, 16}, .outputs = 4},
                     rng));
}

Fixture
cnnFixture()
{
    nn::ImageTaskSpec spec;
    spec.name = "alloc-cnn";
    spec.side = 8;
    spec.classes = 3;
    spec.samples = 160;
    spec.seed = 604;
    Rng rng(603);
    nn::CnnSpec cnn;
    cnn.channels = 3;
    cnn.height = cnn.width = 8;
    cnn.convChannels = {4, 6};
    cnn.denseWidths = {12};
    cnn.outputs = 3;
    return makeFixture(nn::makeImageTask(spec), nn::buildCnn(cnn, rng));
}

Fixture
residualFixture()
{
    Rng rng(605);
    nn::Network net;
    net.add(std::make_unique<nn::DenseLayer>(16, 12, rng));
    net.add(std::make_unique<nn::ActivationLayer>(nn::ActKind::Tanh));
    std::vector<nn::LayerPtr> inner;
    inner.push_back(std::make_unique<nn::DenseLayer>(12, 12, rng));
    inner.push_back(
        std::make_unique<nn::ActivationLayer>(nn::ActKind::Tanh));
    net.add(std::make_unique<nn::ResidualLayer>(std::move(inner)));
    net.add(std::make_unique<nn::DenseLayer>(12, 4, rng));
    return makeFixture(
        nn::makeVectorTask({"alloc-res", 16, 4, 200, 0.35, 1.0, 606}),
        std::move(net));
}

Fixture
recurrentFixture()
{
    nn::SequenceTaskSpec spec;
    spec.name = "alloc-seq";
    spec.features = 5;
    spec.steps = 6;
    spec.classes = 3;
    spec.samples = 160;
    spec.noise = 0.25;
    spec.seed = 608;
    Rng rng(607);
    nn::Network net;
    net.add(std::make_unique<nn::ElmanLayer>(5, 10, 6, nn::ActKind::Tanh,
                                             rng));
    net.add(std::make_unique<nn::DenseLayer>(10, 3, rng));
    return makeFixture(nn::makeSequenceTask(spec), std::move(net));
}

/** Global operator new calls made by fn(). */
template <typename Fn>
uint64_t
allocCalls(Fn &&fn)
{
    const uint64_t before = g_allocCalls.load(std::memory_order_relaxed);
    fn();
    return g_allocCalls.load(std::memory_order_relaxed) - before;
}

void
expectSteadyCounts(const Fixture &fx)
{
    Chip chip{ChipConfig{}};
    chip.configure(fx.model);
    PerfReport report;
    std::vector<PerfReport> reports(kLanes);
    auto infer = [&](size_t i) { return chip.infer(fx.inputs[i], report); };
    auto batch = [&](size_t lanes) {
        return chip.inferBatch(
            std::span<const nn::Tensor>(fx.inputs.data(), lanes), reports);
    };
    for (size_t round = 0; round < kWarmRounds; ++round) {
        for (size_t i = 0; i < kLanes; ++i)
            infer(i);
        batch(1);
        batch(kLanes);
    }

    for (size_t c = 0; c < kMeasuredCalls; ++c) {
        EXPECT_EQ(allocCalls([&] { infer(c % kLanes); }), 1u)
            << "infer() call " << c;
        EXPECT_EQ(allocCalls([&] { batch(1); }), 2u)
            << "1-lane inferBatch() call " << c;
        EXPECT_EQ(allocCalls([&] { batch(kLanes); }), kLanes + 1)
            << kLanes << "-lane inferBatch() call " << c;
    }
}

TEST(SteadyAlloc, Mlp)
{
    expectSteadyCounts(mlpFixture());
}

TEST(SteadyAlloc, CnnWithPooling)
{
    expectSteadyCounts(cnnFixture());
}

TEST(SteadyAlloc, Residual)
{
    expectSteadyCounts(residualFixture());
}

TEST(SteadyAlloc, Recurrent)
{
    expectSteadyCounts(recurrentFixture());
}

} // namespace
} // namespace rapidnn::rna
