#include "support/thread_pool.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace bayes::support {
namespace {

/** Pool telemetry (catalogued in docs/observability.md). */
struct PoolMetrics
{
    obs::Counter& tasksSubmitted =
        obs::Registry::global().counter("pool.tasks_submitted");
    obs::Gauge& workers = obs::Registry::global().gauge("pool.workers");
    obs::Histogram& queueDepth =
        obs::Registry::global().histogram("pool.queue_depth");
    obs::Histogram& taskSeconds =
        obs::Registry::global().histogram("pool.task_seconds");
    obs::Histogram& idleSeconds =
        obs::Registry::global().histogram("pool.worker_idle_seconds");

    static PoolMetrics& get()
    {
        static PoolMetrics* m = new PoolMetrics; // leaked like the registry
        return *m;
    }
};

} // namespace

ThreadPool::ThreadPool(int workers)
{
    BAYES_CHECK(workers >= 1, "thread pool needs at least one worker, got "
                                  << workers);
    PoolMetrics::get().workers.set(workers);
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    std::size_t depth;
    {
        MutexLock lock(mutex_);
        BAYES_CHECK(!stopping_, "submit on a stopping thread pool");
        queue_.push_back(std::move(packaged));
        depth = queue_.size();
    }
    cv_.notify_one();
    PoolMetrics::get().tasksSubmitted.add();
    PoolMetrics::get().queueDepth.observe(static_cast<double>(depth));
    return future;
}

void
ThreadPool::workerLoop()
{
    PoolMetrics& metrics = PoolMetrics::get();
    for (;;) {
        std::packaged_task<void()> task;
        {
            const double idleFrom = Clock::now();
            MutexLock lock(mutex_);
            // Plain predicate loop instead of the wait(lock, pred)
            // overload: the analysis sees the guarded reads under the
            // held capability, not inside an unannotated lambda.
            while (!stopping_ && queue_.empty())
                cv_.wait(mutex_);
            if (queue_.empty()) {
                return; // stopping and drained; final wait is not idle
            }
            metrics.idleSeconds.observe(Clock::now() - idleFrom);
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        {
            obs::Span span("pool.task");
            const double taskFrom = Clock::now();
            task(); // exceptions land in the task's future
            metrics.taskSeconds.observe(Clock::now() - taskFrom);
        }
    }
}

ThreadPool&
sharedPool(int workers)
{
    BAYES_CHECK(workers >= 0, "pool worker count must be >= 0, got "
                                  << workers);
    int resolved = workers;
    if (resolved == 0)
        resolved =
            std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    // bayes-lint: allow(R011): function-local static — attributes cannot annotate local declarations; locked on the next line for the full map access
    static Mutex mutex;
    static std::map<int, std::unique_ptr<ThreadPool>> pools;
    MutexLock lock(mutex);
    auto& slot = pools[resolved];
    if (!slot)
        slot = std::make_unique<ThreadPool>(resolved);
    return *slot;
}

void
waitAll(std::vector<std::future<void>>& futures)
{
    std::exception_ptr first;
    for (auto& future : futures) {
        try {
            future.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    futures.clear();
    if (first)
        std::rethrow_exception(first);
}

} // namespace bayes::support
