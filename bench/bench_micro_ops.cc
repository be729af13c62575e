/**
 * @file
 * Google-benchmark micro timings of the simulator's hot primitives:
 * tree-codebook builds, the accumulation engine, NDCAM search, the
 * in-memory adder model, and the encoded forward pass. These measure
 * the *simulator's* host-side performance (useful when scaling studies
 * up), not the modelled hardware.
 */

#include <benchmark/benchmark.h>

#include "composer/composer.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "nvm/crossbar.hh"
#include "nvm/ndcam.hh"
#include "quant/codebook.hh"
#include "rna/accumulation.hh"

using namespace rapidnn;

namespace {

void
BM_TreeCodebook(benchmark::State &state)
{
    Rng rng(1);
    std::vector<double> samples(size_t(state.range(0)));
    for (double &s : samples)
        s = rng.gaussian(0, 1);
    for (auto _ : state) {
        quant::TreeCodebook tree(samples, 7);
        benchmark::DoNotOptimize(tree.finest().size());
    }
}
BENCHMARK(BM_TreeCodebook)->Arg(10000)->Arg(400000);

void
BM_AccumulationEngine(benchmark::State &state)
{
    Rng rng(2);
    const size_t w = 64, u = 64;
    std::vector<double> table(w * u);
    for (double &t : table)
        t = rng.gaussian(0, 0.5);
    rna::AccumulationEngine engine(table, w, u, nvm::CostModel{});
    const size_t fanIn = size_t(state.range(0));
    std::vector<uint16_t> wc(fanIn), uc(fanIn);
    for (size_t i = 0; i < fanIn; ++i) {
        wc[i] = uint16_t(rng.uniformInt(0, w - 1));
        uc[i] = uint16_t(rng.uniformInt(0, u - 1));
    }
    for (auto _ : state) {
        auto result = engine.run(wc, uc, 0.1);
        benchmark::DoNotOptimize(result.value);
    }
    state.SetItemsProcessed(int64_t(state.iterations())
                            * int64_t(fanIn));
}
BENCHMARK(BM_AccumulationEngine)->Arg(64)->Arg(784)->Arg(4096);

void
BM_NdcamSearch(benchmark::State &state)
{
    nvm::CostModel model;
    nvm::Ndcam cam(16, model, nvm::SearchMode::CircuitStaged);
    Rng rng(3);
    std::vector<uint32_t> keys(size_t(state.range(0)));
    for (auto &k : keys)
        k = uint32_t(rng.uniformInt(0, 65535));
    cam.program(keys);
    for (auto _ : state) {
        nvm::OpCost cost;
        benchmark::DoNotOptimize(
            cam.search(uint32_t(rng.uniformInt(0, 65535)), cost));
    }
}
BENCHMARK(BM_NdcamSearch)->Arg(16)->Arg(64)->Arg(256);

void
BM_InMemoryAddMany(benchmark::State &state)
{
    Rng rng(4);
    std::vector<int64_t> addends(size_t(state.range(0)));
    for (auto &a : addends)
        a = rng.uniformInt(-1000000, 1000000);
    nvm::CostModel model;
    for (auto _ : state) {
        nvm::OpCost cost;
        benchmark::DoNotOptimize(
            nvm::CrossbarArray::addMany(addends, 32, model, cost));
    }
}
BENCHMARK(BM_InMemoryAddMany)->Arg(16)->Arg(256)->Arg(4096);

void
BM_EncodedForward(benchmark::State &state)
{
    nn::Dataset data =
        nn::makeVectorTask({"bench", 64, 8, 300, 0.4, 1.0, 5});
    Rng rng(6);
    nn::Network net = nn::buildMlp({.inputs = 64, .hidden = {48, 32},
                                    .outputs = 8}, rng);
    nn::Trainer trainer({.epochs = 4, .batchSize = 16,
                         .learningRate = 0.05});
    trainer.train(net, data);
    composer::ComposerConfig config;
    config.weightClusters = size_t(state.range(0));
    config.inputClusters = size_t(state.range(0));
    composer::Composer comp(config);
    composer::ReinterpretedModel model = comp.reinterpret(net, data);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.predict(data.sample(i % data.size()).x));
        ++i;
    }
}
BENCHMARK(BM_EncodedForward)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
