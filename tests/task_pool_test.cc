/**
 * @file
 * The shared task pool (common/task_pool.hh). The pool's contract:
 * every shard runs exactly once, lanes are distinct within a run,
 * and nested runs cannot deadlock. Threaded, so the runtime label puts
 * it under the TSan preset.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/task_pool.hh"

namespace rapidnn {
namespace {

TEST(TaskPool, RunsEveryShardExactlyOnce)
{
    TaskPool pool(3);
    for (const size_t shards : {size_t(1), size_t(7), size_t(64)}) {
        std::vector<std::atomic<int>> hits(shards);
        for (auto &h : hits)
            h.store(0);
        pool.run(shards, 4, [&](size_t shard, size_t lane) {
            ASSERT_LT(shard, shards);
            ASSERT_LT(lane, 4u);
            hits[shard].fetch_add(1);
        });
        for (size_t s = 0; s < shards; ++s)
            EXPECT_EQ(hits[s].load(), 1) << "shard " << s;
    }
}

TEST(TaskPool, LanesAreDistinctWithinARun)
{
    TaskPool pool(3);
    std::vector<std::atomic<int>> inUse(4);
    for (auto &l : inUse)
        l.store(0);
    std::atomic<bool> collision{false};
    pool.run(32, 4, [&](size_t, size_t lane) {
        if (inUse[lane].fetch_add(1) != 0)
            collision.store(true);
        std::this_thread::yield();
        inUse[lane].fetch_sub(1);
    });
    EXPECT_FALSE(collision.load());
}

TEST(TaskPool, MaxLanesOneStaysOnCaller)
{
    TaskPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    pool.run(8, 1, [&](size_t, size_t lane) {
        EXPECT_EQ(lane, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(TaskPool, ReentrantNestedRuns)
{
    // A shard that starts a nested run() must not deadlock: every
    // run() starts its own helpers and the caller drains shards too.
    TaskPool pool(2);
    std::atomic<size_t> innerTotal{0};
    pool.run(4, 3, [&](size_t, size_t) {
        pool.run(4, 2, [&](size_t, size_t) {
            innerTotal.fetch_add(1);
        });
    });
    EXPECT_EQ(innerTotal.load(), 16u);
}

TEST(TaskPool, SharedPoolHasAtLeastTwoLanes)
{
    // Even on a one-core host the shared pool keeps one helper, so
    // threaded code paths get real cross-thread coverage.
    EXPECT_GE(TaskPool::shared().lanes(), 2u);
}

} // namespace
} // namespace rapidnn
