/**
 * @file
 * Pins the workspace lease protocol (rna/chip.cc WorkspaceLease): const
 * Chip::infer() calls may race on one chip, and the atomic try-acquire
 * on Workspace::busy must hand the shared workspace to AT MOST one of
 * them — every concurrent loser takes a freshly allocated private
 * spare. The lease is a lock-free capability that clang -Wthread-safety
 * cannot track (see the documented RAPIDNN_NO_THREAD_SAFETY_ANALYSIS
 * escape in chip.cc and DESIGN.md §11), so this test is the executable
 * statement of its invariant; the "runtime" label runs it under the
 * TSan preset where an actual double-grant would surface as a data
 * race on the workspace buffers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "composer/composer.hh"
#include "rna/chip.hh"
#include "rna/workspace.hh"

namespace rapidnn::rna {
namespace {

TEST(WorkspaceLease, BusyFlagGrantsAtMostOneOwner)
{
    // The protocol WorkspaceLease runs, replayed directly against a
    // Workspace: only an exchange(acquire) that observes false wins
    // ownership; release is a store(false). At no instant may two
    // threads believe they own the shared workspace.
    Workspace shared;
    std::atomic<int> owners{0};
    std::atomic<int> overlaps{0};
    std::atomic<size_t> wins{0};
    std::atomic<size_t> losses{0};

    constexpr size_t kThreads = 4;
    constexpr size_t kRounds = 2000;
    // After the contended hammer the threads pass a token around a
    // ring, and only the holder touches the flag: every such round is
    // uncontended by construction, so it must win. (How many of the
    // hammer's rounds win depends on scheduling and is not checked.)
    constexpr size_t kHandoffRounds = 50;
    std::atomic<size_t> hammered{0};
    std::atomic<size_t> turn{0};
    std::atomic<size_t> handoffLosses{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (size_t r = 0; r < kRounds; ++r) {
                const bool won = !shared.busy.exchange(
                    true, std::memory_order_acquire);
                if (won) {
                    if (owners.fetch_add(1) != 0)
                        overlaps.fetch_add(1);
                    wins.fetch_add(1);
                    std::this_thread::yield();
                    owners.fetch_sub(1);
                    shared.busy.store(false,
                                      std::memory_order_release);
                } else {
                    // A loser must leave the flag alone: it belongs
                    // to the current owner.
                    losses.fetch_add(1);
                }
            }
            // Barrier: nobody hammers while the token circulates.
            hammered.fetch_add(1, std::memory_order_acq_rel);
            while (hammered.load(std::memory_order_acquire) < kThreads)
                std::this_thread::yield();
            for (size_t r = 0; r < kHandoffRounds; ++r) {
                const size_t mine = r * kThreads + t;
                while (turn.load(std::memory_order_acquire) != mine)
                    std::this_thread::yield();
                if (shared.busy.exchange(true, std::memory_order_acquire))
                    handoffLosses.fetch_add(1);
                else
                    shared.busy.store(false, std::memory_order_release);
                turn.store(mine + 1, std::memory_order_release);
            }
        });
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(overlaps.load(), 0);
    EXPECT_EQ(wins.load() + losses.load(), kThreads * kRounds);
    EXPECT_EQ(handoffLosses.load(), 0u);  // uncontended rounds win
    EXPECT_EQ(turn.load(), kThreads * kHandoffRounds);
    EXPECT_FALSE(shared.busy.load()); // all leases returned
}

TEST(WorkspaceLease, ConcurrentConstInferNeverSharesAWorkspace)
{
    // Two (and more) concurrent const infer() callers on ONE chip:
    // if the lease ever granted the shared workspace twice, the
    // callers would scribble over each other's activations and the
    // logits would diverge from the serial answer. Bitwise equality
    // across a synchronized hammer is therefore a direct observation
    // of never-shared workspaces (and TSan checks the memory orders).
    nn::Dataset all = nn::makeVectorTask(
        {"lease", 12, 3, 200, 0.35, 1.0, 101});
    auto [train, validation] = all.split(0.25);
    Rng rng(102);
    nn::Network net = nn::buildMlp(
        {.inputs = 12, .hidden = {18, 10}, .outputs = 3}, rng);
    nn::Trainer({.epochs = 3, .batchSize = 16, .learningRate = 0.05})
        .train(net, train);
    composer::ComposerConfig config;
    config.weightClusters = 16;
    config.inputClusters = 16;
    composer::ReinterpretedModel model =
        composer::Composer(config).reinterpret(net, train);

    Chip chip{ChipConfig{}};
    chip.configure(model);

    const size_t samples = std::min<size_t>(4, validation.size());
    std::vector<std::vector<double>> expected(samples);
    for (size_t s = 0; s < samples; ++s) {
        PerfReport report;
        expected[s] = chip.infer(validation.sample(s).x, report);
    }

    constexpr size_t kCallers = 4;
    constexpr size_t kRounds = 25;
    std::atomic<size_t> armed{0};
    std::atomic<bool> go{false};
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> callers;
    for (size_t t = 0; t < kCallers; ++t)
        callers.emplace_back([&, t] {
            armed.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (size_t round = 0; round < kRounds; ++round) {
                const size_t s = (t + round) % samples;
                PerfReport report;
                const std::vector<double> logits =
                    chip.infer(validation.sample(s).x, report);
                if (logits != expected[s])
                    mismatches.fetch_add(1);
            }
        });
    while (armed.load() != kCallers)
        std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto &caller : callers)
        caller.join();

    EXPECT_EQ(mismatches.load(), 0u);

    // The winner's release must leave the chip in its steady state:
    // one more serial call still matches.
    PerfReport report;
    EXPECT_EQ(chip.infer(validation.sample(0).x, report), expected[0]);
}

} // namespace
} // namespace rapidnn::rna
