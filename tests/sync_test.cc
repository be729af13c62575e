/**
 * @file
 * Runtime semantics of the capability-annotated sync wrappers
 * (common/sync.hh): the annotations are compile-time only, so these
 * tests pin the behavior side — RAII acquire/release pairing, tryLock
 * semantics, and CondVar wait and timed-wait semantics in the explicit
 * wait loops callers write. The static side (guarded
 * fields must not compile without the lock, scoped locks must not
 * copy) lives in tests/sync_compile_fail.cc, driven as WILL_FAIL
 * compile tests from tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/sync.hh"

namespace rapidnn {
namespace {

using namespace std::chrono_literals;

// Scoped locks must be move-proof RAII: copying or assigning one
// would double-release its mutex.
static_assert(!std::is_copy_constructible_v<MutexLock>);
static_assert(!std::is_copy_assignable_v<MutexLock>);
static_assert(!std::is_copy_constructible_v<Mutex>);
static_assert(!std::is_copy_constructible_v<CondVar>);

TEST(SyncMutex, MutexLockProvidesMutualExclusion)
{
    Mutex mutex;
    int counter = 0;  // deliberately non-atomic: the lock is the guard
    constexpr int kThreads = 4;
    constexpr int kIncrements = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i) {
                MutexLock lock(mutex);
                ++counter;
            }
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncMutex, TryLockFailsWhileHeldAndAcquiresWhenFree)
{
    Mutex mutex;
    {
        MutexLock lock(mutex);
        std::atomic<int> observed{-1};
        // try from another thread: std::mutex::try_lock from the
        // owning thread would be UB.
        std::thread([&] {
            if (mutex.tryLock()) {
                observed.store(1);
                mutex.unlock();
            } else {
                observed.store(0);
            }
        }).join();
        EXPECT_EQ(observed.load(), 0);
    }
    ASSERT_TRUE(mutex.tryLock());
    mutex.unlock();
}

TEST(SyncCondVar, WaitWakesOnNotifyWithStateChange)
{
    Mutex mutex;
    CondVar cv;
    bool ready = false;
    int payload = 0;

    std::thread consumer([&] {
        MutexLock lock(mutex);
        while (!ready)
            cv.wait(mutex);
        EXPECT_EQ(payload, 42);
    });
    {
        MutexLock lock(mutex);
        payload = 42;
        ready = true;
    }
    cv.notifyOne();
    consumer.join();
}

TEST(SyncCondVar, WaitUntilTimesOut)
{
    Mutex mutex;
    CondVar cv;
    MutexLock lock(mutex);
    const auto deadline = std::chrono::steady_clock::now() + 5ms;
    EXPECT_EQ(cv.waitUntil(mutex, deadline), std::cv_status::timeout);
    EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

/**
 * The deadline loop BoundedQueue::popUntil runs: wait until `flag`
 * holds or `timeout` passes, then report whether it holds.
 */
bool
waitForFlag(Mutex &mutex, CondVar &cv, const bool &flag,
            std::chrono::steady_clock::duration timeout)
    RAPIDNN_REQUIRES(mutex)
{
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!flag) {
        if (cv.waitUntil(mutex, deadline) == std::cv_status::timeout)
            break;
    }
    return flag;
}

TEST(SyncCondVar, TimedPredicateWaitReportsOutcome)
{
    Mutex mutex;
    CondVar cv;
    bool flag = false;

    {
        // Never signalled: times out with the predicate unsatisfied.
        MutexLock lock(mutex);
        EXPECT_FALSE(waitForFlag(mutex, cv, flag, 5ms));
    }

    std::thread producer([&] {
        MutexLock lock(mutex);
        flag = true;
        cv.notifyOne();
    });
    {
        MutexLock lock(mutex);
        EXPECT_TRUE(waitForFlag(mutex, cv, flag, 5s));
    }
    producer.join();
}

} // namespace
} // namespace rapidnn
