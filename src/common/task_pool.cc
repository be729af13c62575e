#include "common/task_pool.hh"

#include <algorithm>
#include <cstdlib>

namespace rapidnn {

TaskPool::TaskPool(size_t helperThreads)
{
    _helpers.reserve(helperThreads);
    for (size_t i = 0; i < helperThreads; ++i)
        _helpers.emplace_back([this] { helperMain(); });
}

TaskPool::~TaskPool()
{
    {
        MutexLock lock(_mutex);
        _stop = true;
    }
    _workCv.notifyAll();
    for (std::thread &helper : _helpers)
        helper.join();
}

TaskPool &
TaskPool::shared()
{
    // At least one helper even on single-core hosts: shards
    // then really cross threads (timesliced), which keeps the
    // determinism and TSan coverage meaningful everywhere.
    static TaskPool pool(std::max<size_t>(defaultThreads(), 2) - 1);
    return pool;
}

size_t
TaskPool::envThreadOverride()
{
    const char *env = std::getenv("RAPIDNN_THREADS");
    if (env == nullptr || env[0] == '\0')
        return 0;
    char *end = nullptr;
    const unsigned long value = std::strtoul(env, &end, 10);
    if (end == env || value == 0)
        return 0;
    return std::min<size_t>(value, 64);
}

size_t
TaskPool::defaultThreads()
{
    const size_t override = envThreadOverride();
    if (override > 0)
        return override;
    return std::max<size_t>(std::thread::hardware_concurrency(), 1);
}

TaskPool::Job *
TaskPool::openJob()
{
    for (Job *job : _jobs)
        if (job->nextLane < job->maxLanes &&
            job->nextShard.load(std::memory_order_relaxed) < job->shards)
            return job;
    return nullptr;
}

void
TaskPool::run(size_t shards, size_t maxLanes,
              const std::function<void(size_t, size_t)> &fn)
{
    if (shards == 0)
        return;
    const size_t usable = std::min(maxLanes, lanes());
    if (usable <= 1 || shards == 1) {
        // Serial execution of the same shard grid in shard order:
        // bitwise-identical to any parallel schedule by construction.
        for (size_t shard = 0; shard < shards; ++shard)
            fn(shard, 0);
        return;
    }

    Job job;
    job.fn = &fn;
    job.shards = shards;
    job.maxLanes = usable;
    {
        MutexLock lock(_mutex);
        _jobs.push_back(&job);
    }
    _workCv.notifyAll();

    // The caller is lane 0 and steals shards like any helper.
    for (;;) {
        const size_t shard =
            job.nextShard.fetch_add(1, std::memory_order_relaxed);
        if (shard >= shards)
            break;
        fn(shard, 0);
        job.completed.fetch_add(1, std::memory_order_release);
    }

    MutexLock lock(_mutex);
    _jobs.erase(std::find(_jobs.begin(), _jobs.end(), &job));
    while (job.activeHelpers != 0 ||
           job.completed.load(std::memory_order_acquire) != shards)
        _doneCv.wait(_mutex);
}

void
TaskPool::helperMain()
{
    _mutex.lock();
    for (;;) {
        while (!_stop && openJob() == nullptr)
            _workCv.wait(_mutex);
        if (_stop) {
            _mutex.unlock();
            return;
        }
        Job *job = openJob();
        if (job == nullptr)
            continue;
        const size_t lane = job->nextLane++;
        ++job->activeHelpers;
        _mutex.unlock();

        for (;;) {
            const size_t shard =
                job->nextShard.fetch_add(1, std::memory_order_relaxed);
            if (shard >= job->shards)
                break;
            (*job->fn)(shard, lane);
            job->completed.fetch_add(1, std::memory_order_release);
        }

        _mutex.lock();
        // The caller may only destroy the job (its stack frame) after
        // activeHelpers drops to zero, so this decrement is the last
        // touch of `job` by this helper.
        --job->activeHelpers;
        _doneCv.notifyAll();
    }
}

} // namespace rapidnn
