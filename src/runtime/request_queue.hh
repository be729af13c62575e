/**
 * @file
 * Bounded multi-producer / multi-consumer queue with blocking
 * backpressure, the front door of the serving runtime. Producers block
 * (or fail fast via tryPush) when the queue is full, so a flood of
 * requests degrades into admission latency instead of unbounded memory
 * growth. close() lets consumers drain remaining items and then
 * observe end-of-stream.
 *
 * Lock discipline (checked by clang -Wthread-safety via the
 * common/sync.hh capability wrappers): every field but _capacity is
 * guarded by _mutex; condition-variable notifications happen after the
 * lock is dropped so a woken thread never immediately blocks on the
 * mutex the notifier still holds.
 */

#ifndef RAPIDNN_RUNTIME_REQUEST_QUEUE_HH
#define RAPIDNN_RUNTIME_REQUEST_QUEUE_HH

#include <chrono>
#include <deque>
#include <optional>

#include "common/check.hh"
#include "common/sync.hh"

namespace rapidnn::runtime {

template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity) : _capacity(capacity)
    {
        RAPIDNN_ASSERT(capacity > 0, "queue capacity must be positive");
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Enqueue, blocking while the queue is full (backpressure).
     * @return false when the queue was closed instead.
     */
    bool
    push(T item) RAPIDNN_EXCLUDES(_mutex)
    {
        {
            MutexLock lock(_mutex);
            while (!_closed && _items.size() >= _capacity)
                _notFull.wait(_mutex);
            if (_closed)
                return false;
            _items.push_back(std::move(item));
        }
        _notEmpty.notifyOne();
        return true;
    }

    /** Enqueue without blocking; false when full or closed. */
    bool
    tryPush(T item) RAPIDNN_EXCLUDES(_mutex)
    {
        {
            MutexLock lock(_mutex);
            if (_closed || _items.size() >= _capacity)
                return false;
            _items.push_back(std::move(item));
        }
        _notEmpty.notifyOne();
        return true;
    }

    /**
     * Dequeue, blocking while empty. Returns nullopt once the queue is
     * closed and fully drained.
     */
    std::optional<T>
    pop() RAPIDNN_EXCLUDES(_mutex)
    {
        std::optional<T> item;
        {
            MutexLock lock(_mutex);
            while (!_closed && _items.empty())
                _notEmpty.wait(_mutex);
            item = takeFrontLocked();
        }
        if (item)
            _notFull.notifyOne();
        return item;
    }

    /**
     * Dequeue, waiting at most until `deadline`. Returns nullopt on
     * timeout or on closed-and-drained.
     */
    std::optional<T>
    popUntil(std::chrono::steady_clock::time_point deadline)
        RAPIDNN_EXCLUDES(_mutex)
    {
        std::optional<T> item;
        {
            MutexLock lock(_mutex);
            while (!_closed && _items.empty()) {
                if (_notEmpty.waitUntil(_mutex, deadline)
                    == std::cv_status::timeout)
                    break;
            }
            item = takeFrontLocked();
        }
        if (item)
            _notFull.notifyOne();
        return item;
    }

    /**
     * Refuse new items. Blocked producers wake and fail; consumers
     * drain the remainder and then see end-of-stream.
     */
    void
    close() RAPIDNN_EXCLUDES(_mutex)
    {
        {
            MutexLock lock(_mutex);
            _closed = true;
        }
        _notFull.notifyAll();
        _notEmpty.notifyAll();
    }

    /** Instantaneous depth (racy by nature; for stats snapshots). */
    size_t
    size() const RAPIDNN_EXCLUDES(_mutex)
    {
        MutexLock lock(_mutex);
        return _items.size();
    }

    size_t capacity() const { return _capacity; }

  private:
    /** Pop the front with _mutex held; nullopt when empty. The caller
     *  notifies _notFull after dropping the lock. */
    std::optional<T>
    takeFrontLocked() RAPIDNN_REQUIRES(_mutex)
    {
        if (_items.empty())
            return std::nullopt;
        T item = std::move(_items.front());
        _items.pop_front();
        return item;
    }

    mutable Mutex _mutex;
    CondVar _notFull;
    CondVar _notEmpty;
    std::deque<T> _items RAPIDNN_GUARDED_BY(_mutex);
    const size_t _capacity;
    bool _closed RAPIDNN_GUARDED_BY(_mutex) = false;
};

} // namespace rapidnn::runtime

#endif // RAPIDNN_RUNTIME_REQUEST_QUEUE_HH
