#include "common/task_pool.hh"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>
#include <vector>

namespace rapidnn {

TaskPool &
TaskPool::shared()
{
    static TaskPool pool(
        std::max<size_t>(std::thread::hardware_concurrency(), 2) - 1);
    return pool;
}

void
TaskPool::run(size_t shards, size_t maxLanes,
              const std::function<void(size_t, size_t)> &fn) const
{
    std::atomic<size_t> next{0};
    const auto drain = [&](size_t lane) {
        for (size_t shard; (shard = next++) < shards;)
            fn(shard, lane);
    };
    const size_t usable = std::min({maxLanes, _lanes, shards});
    std::vector<std::thread> helpers;
    helpers.reserve(usable);  // no reallocation once threads run
    for (size_t lane = 1; lane < usable; ++lane)
        try {
            helpers.emplace_back(drain, lane);
        } catch (const std::system_error &) {
            break;  // fewer lanes; the shards and results are the same
        }
    drain(0);
    for (std::thread &helper : helpers)
        helper.join();
}

} // namespace rapidnn
