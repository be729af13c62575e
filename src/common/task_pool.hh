/**
 * @file
 * A shared work-stealing task pool for deterministic sharded
 * parallelism.
 *
 * Benches and tools use it to run independent jobs side by side (the
 * serving benchmark computes its reference answers on it). Determinism
 * is structural, not scheduled: callers shard work over a
 * thread-count-independent grid, give every lane its own scratch,
 * write only disjoint output slots from inside shards, and do all
 * floating-point reductions serially in shard order afterwards — so
 * results are bitwise identical at any thread count, including one.
 *
 * One process-wide pool (TaskPool::shared()) serves them all. run() is
 * reentrant: the caller always participates (lane 0), so a pool helper
 * that enters a nested run() can never deadlock waiting for a free
 * helper.
 */

#ifndef RAPIDNN_COMMON_TASK_POOL_HH
#define RAPIDNN_COMMON_TASK_POOL_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hh"

namespace rapidnn {

class TaskPool
{
  public:
    /** Spin up `helperThreads` workers (0 = caller-only pool). */
    explicit TaskPool(size_t helperThreads);

    /** Joins the helpers; outstanding run() calls must have returned. */
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /**
     * The process-wide pool. Sized once, on first use, to
     * defaultThreads() lanes (but at least 2, so sharded code paths
     * exercise real cross-thread execution even on one-core hosts).
     */
    static TaskPool &shared();

    /**
     * RAPIDNN_THREADS environment override, clamped to [1, 64].
     * Returns 0 when unset or unparsable.
     */
    static size_t envThreadOverride();

    /**
     * Default lane budget for "use the machine" callers (benches,
     * demos): the RAPIDNN_THREADS override when set, otherwise the
     * hardware concurrency (at least 1).
     */
    static size_t defaultThreads();

    /** Usable lanes: the helpers plus the calling thread. */
    size_t lanes() const { return _helpers.size() + 1; }

    /**
     * Run fn(shard, lane) for every shard in [0, shards), blocking
     * until all complete. The caller participates as lane 0; up to
     * maxLanes - 1 helpers join with distinct lanes in [1, maxLanes).
     * Shards are claimed dynamically (work stealing), so which lane
     * runs which shard is unspecified — fn must only write shard-owned
     * slots and lane-owned scratch. fn must not throw. Safe to call
     * concurrently from many threads and from inside a running shard.
     */
    void run(size_t shards, size_t maxLanes,
             const std::function<void(size_t shard, size_t lane)> &fn);

  private:
    /** One in-flight run() call, owned by its caller's stack frame.
     *  nextLane/activeHelpers are guarded by the owning pool's _mutex;
     *  that guard crosses objects, which the static analysis cannot
     *  express, so it is enforced by TSan and review (DESIGN.md §11). */
    struct Job
    {
        const std::function<void(size_t, size_t)> *fn = nullptr;
        size_t shards = 0;
        size_t maxLanes = 0;
        size_t nextLane = 1;             //!< guarded by _mutex
        size_t activeHelpers = 0;        //!< guarded by _mutex
        std::atomic<size_t> nextShard{0};
        std::atomic<size_t> completed{0};
    };

    void helperMain();
    Job *openJob() RAPIDNN_REQUIRES(_mutex);

    Mutex _mutex;
    CondVar _workCv;  //!< helpers wait for open jobs
    CondVar _doneCv;  //!< callers wait for completion
    /** Jobs with shards/lanes left. */
    std::vector<Job *> _jobs RAPIDNN_GUARDED_BY(_mutex);
    std::vector<std::thread> _helpers;
    bool _stop RAPIDNN_GUARDED_BY(_mutex) = false;
};

} // namespace rapidnn

#endif // RAPIDNN_COMMON_TASK_POOL_HH
