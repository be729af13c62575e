/**
 * @file
 * Capability-annotated synchronization primitives: the only place in
 * the tree where raw std::mutex / std::condition_variable may appear
 * (tools/lint_determinism.py `naked-sync` rule).
 *
 * Every wrapper carries Clang Thread Safety Analysis attributes, so a
 * clang build with -Wthread-safety -Werror=thread-safety-analysis
 * (cmake -DRAPIDNN_THREAD_SAFETY=ON, CI job `thread-safety`) proves at
 * compile time that every RAPIDNN_GUARDED_BY field is only touched
 * with its mutex held and that every lock taken is released on every
 * path. On non-Clang compilers the attributes expand to nothing and
 * the wrappers are zero-overhead shims over the std primitives.
 *
 * Usage pattern (see DESIGN.md §11 "Concurrency model"):
 *
 *     class Account {
 *         void deposit(int v) RAPIDNN_EXCLUDES(_mutex) {
 *             MutexLock lock(_mutex);
 *             _balance += v;
 *         }
 *         mutable Mutex _mutex;
 *         int _balance RAPIDNN_GUARDED_BY(_mutex) = 0;
 *     };
 *
 * Escape hatch: RAPIDNN_NO_THREAD_SAFETY_ANALYSIS disables the
 * analysis for one function. Every use MUST carry a comment explaining
 * the invariant that makes the unchecked code safe — a bare escape is
 * a review error (DESIGN.md §11 lists the sanctioned ones).
 */

#ifndef RAPIDNN_COMMON_SYNC_HH
#define RAPIDNN_COMMON_SYNC_HH

#include <chrono>
#include <condition_variable>
#include <mutex>

// ------------------------------------------------------------------
// Attribute macros (Clang Thread Safety Analysis; no-ops elsewhere).
// Names follow the capability vocabulary of the clang documentation
// and abseil's thread_annotations.h.
// ------------------------------------------------------------------

#if defined(__clang__)
#define RAPIDNN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RAPIDNN_THREAD_ANNOTATION(x)
#endif

/** Marks a class as a lockable capability (mutex-like). */
#define RAPIDNN_CAPABILITY(x) RAPIDNN_THREAD_ANNOTATION(capability(x))

/** Marks a RAII class that acquires in its ctor / releases in dtor. */
#define RAPIDNN_SCOPED_CAPABILITY \
    RAPIDNN_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be read/written with the given mutex held. */
#define RAPIDNN_GUARDED_BY(x) RAPIDNN_THREAD_ANNOTATION(guarded_by(x))

/** Function requires the listed mutexes held by the caller. */
#define RAPIDNN_REQUIRES(...) \
    RAPIDNN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the mutex and holds it on return. */
#define RAPIDNN_ACQUIRE(...) \
    RAPIDNN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the mutex (held on entry). */
#define RAPIDNN_RELEASE(...) \
    RAPIDNN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the mutex iff it returns the given value. */
#define RAPIDNN_TRY_ACQUIRE(...) \
    RAPIDNN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Caller must NOT hold the listed mutexes (deadlock prevention). */
#define RAPIDNN_EXCLUDES(...) \
    RAPIDNN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/**
 * Disables the analysis for one function. MANDATORY: a comment at the
 * use site stating the invariant that keeps the unchecked code safe.
 */
#define RAPIDNN_NO_THREAD_SAFETY_ANALYSIS \
    RAPIDNN_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace rapidnn {

class CondVar;

/**
 * Exclusive mutex capability. Same semantics (and, on every compiler,
 * same code) as std::mutex; the annotations let clang check the lock
 * discipline statically.
 */
class RAPIDNN_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() RAPIDNN_ACQUIRE() { _m.lock(); }
    void unlock() RAPIDNN_RELEASE() { _m.unlock(); }
    bool tryLock() RAPIDNN_TRY_ACQUIRE(true) { return _m.try_lock(); }

  private:
    friend class CondVar;
    std::mutex _m;
};

/**
 * Scoped exclusive lock (std::lock_guard analogue). Acquires in the
 * constructor, releases in the destructor; the SCOPED_CAPABILITY
 * annotation teaches clang the pairing.
 */
class RAPIDNN_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) RAPIDNN_ACQUIRE(mutex)
        : _mutex(mutex)
    {
        _mutex.lock();
    }

    ~MutexLock() RAPIDNN_RELEASE() { _mutex.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &_mutex;
};

/**
 * Condition variable bound to Mutex. Waits temporarily release the
 * mutex (std::condition_variable semantics) but are annotated
 * REQUIRES(mutex): to the static analysis the capability is held
 * across the call, which matches what the *caller* may assume —
 * guarded state reads in the caller's wait loop are legal before and
 * after each wait. The internal unlock/relock happens on the raw
 * std::mutex via the adopt-lock trick, invisible to the analysis and
 * free of extra synchronization.
 *
 * There are no predicate overloads: callers wait in an explicit while
 * loop, where clang sees the guarded reads of the condition under the
 * caller's annotations (a predicate lambda is analyzed as a separate,
 * unannotated function).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Block until notified; `mutex` must be held and is held again
     *  on return. Spurious wakeups possible — wait in a loop. */
    void
    wait(Mutex &mutex) RAPIDNN_REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> native(mutex._m,
                                            std::adopt_lock);
        _cv.wait(native);
        native.release();
    }

    /** Timed wait; cv_status::timeout once `deadline` passes. */
    template <typename Clock, typename Duration>
    std::cv_status
    waitUntil(Mutex &mutex,
              std::chrono::time_point<Clock, Duration> deadline)
        RAPIDNN_REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> native(mutex._m,
                                            std::adopt_lock);
        const std::cv_status status = _cv.wait_until(native, deadline);
        native.release();
        return status;
    }

    void notifyOne() { _cv.notify_one(); }
    void notifyAll() { _cv.notify_all(); }

  private:
    std::condition_variable _cv;
};

} // namespace rapidnn

#endif // RAPIDNN_COMMON_SYNC_HH
