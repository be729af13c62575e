/**
 * @file
 * Deterministic sharded fan-out over plain per-call threads (the
 * serving benchmark computes its reference answers on it). Callers
 * shard work over a thread-count-independent grid, give every lane its
 * own scratch and write only disjoint output slots from inside shards,
 * so results are bitwise identical at any thread count, including one.
 */

#ifndef RAPIDNN_COMMON_TASK_POOL_HH
#define RAPIDNN_COMMON_TASK_POOL_HH

#include <cstddef>
#include <functional>

namespace rapidnn {

class TaskPool
{
  public:
    /** Allow up to `helperThreads` helpers per run() (0 = caller only). */
    explicit TaskPool(size_t helperThreads) : _lanes(helperThreads + 1) {}

    /** The process-wide pool: max(hardware concurrency, 2) lanes, so
     *  sharded code crosses threads even on one-core hosts. */
    static TaskPool &shared();

    /** Usable lanes: the helpers plus the calling thread. */
    size_t lanes() const { return _lanes; }

    /**
     * Run fn(shard, lane) for every shard in [0, shards). The caller is
     * lane 0; min(maxLanes, lanes(), shards) - 1 threads started for
     * this call take lanes 1 and up, and all are joined before run()
     * returns, so a nested run() starts its own and cannot deadlock.
     * Which lane runs which shard is unspecified: fn must only write
     * shard-owned slots and lane-owned scratch, and must not throw.
     */
    void run(size_t shards, size_t maxLanes,
             const std::function<void(size_t shard, size_t lane)> &fn) const;

  private:
    size_t _lanes;
};

} // namespace rapidnn

#endif // RAPIDNN_COMMON_TASK_POOL_HH
