/**
 * @file
 * Fixed-size worker pool shared by the parallel-chain runner and the
 * design-space explorer. Workers are started once and reused across
 * runs — under heavy multi-run traffic a job costs one enqueue per
 * task instead of a thread spawn per chain per run.
 *
 * Usage rule: a task must never block on the future of another task
 * submitted to the *same* pool. With every worker busy, the waiting
 * task would starve the task it waits for. All waiting in this
 * codebase therefore happens on the coordinating (submitting) thread:
 * the sampler runner and the DSE driver submit, then wait from outside
 * the pool.
 *
 * Pool activity is exported through the obs layer — `pool.*` counters
 * and histograms (queue depth at submit, per-task latency, worker idle
 * time) plus a `pool.task` trace span per executed task; the catalogue
 * lives in docs/observability.md.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "support/thread_safety.hpp"

namespace bayes::support {

/** Fixed set of worker threads draining a shared task queue. */
class ThreadPool
{
  public:
    /** Start @p workers threads. @pre workers >= 1 */
    explicit ThreadPool(int workers);

    /** Finishes every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    int workers() const { return static_cast<int>(workers_.size()); }

    /**
     * Enqueue @p task; the future resolves when it completes and
     * carries any exception it threw.
     */
    std::future<void> submit(std::function<void()> task);

    /** Tasks finished since construction (monitoring counter). */
    std::uint64_t tasksCompleted() const { return completed_.load(); }

  private:
    void workerLoop();

    Mutex mutex_;
    CondVar cv_;
    std::deque<std::function<void()>> queue_ BAYES_GUARDED_BY(mutex_);
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> completed_{0};
    bool stopping_ BAYES_GUARDED_BY(mutex_) = false;
};

/**
 * Process-wide pools reused across runs, keyed by worker count.
 * @param workers  pool size; 0 = the hardware concurrency (min 1)
 */
ThreadPool& sharedPool(int workers = 0);

/**
 * get() every future, clearing the vector; if any task failed, the
 * first exception is rethrown after all of them finished (so no task
 * still references caller state when the stack unwinds).
 */
void waitAll(std::vector<std::future<void>>& futures);

} // namespace bayes::support
