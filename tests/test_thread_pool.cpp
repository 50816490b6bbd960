/**
 * @file
 * ThreadPool contract: tasks run to completion, futures carry
 * exceptions, the pool is reusable across batches (the segments of
 * the sampler executor), genuine concurrency with >= 2 workers, and the
 * shared-pool registry semantics.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace bayes::support {
namespace {

TEST(ThreadPool, ExecutesEveryTask)
{
    ThreadPool pool(2);
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 1; i <= 100; ++i)
        futures.push_back(pool.submit([&sum, i] { sum += i; }));
    waitAll(futures);
    EXPECT_EQ(sum.load(), 5050);
    EXPECT_TRUE(futures.empty());
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(2);
    for (int batch = 0; batch < 3; ++batch) {
        std::atomic<int> count{0};
        std::vector<std::future<void>> futures;
        for (int i = 0; i < 10; ++i)
            futures.push_back(pool.submit([&count] { ++count; }));
        waitAll(futures);
        EXPECT_EQ(count.load(), 10);
    }
}

TEST(ThreadPool, FuturePropagatesTaskException)
{
    ThreadPool pool(1);
    auto future = pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitAllSurfacesFirstFailureAfterAllFinished)
{
    ThreadPool pool(2);
    std::atomic<int> finished{0};
    std::vector<std::future<void>> futures;
    futures.push_back(pool.submit([] { throw Error("first"); }));
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit([&finished] { ++finished; }));
    EXPECT_THROW(waitAll(futures), Error);
    // Every non-throwing task still ran before the rethrow.
    EXPECT_EQ(finished.load(), 8);
}

TEST(ThreadPool, TwoWorkersRunConcurrently)
{
    // Both tasks wait for each other at a latch; this only completes
    // when two workers execute simultaneously.
    ThreadPool pool(2);
    std::latch rendezvous(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 2; ++i)
        futures.push_back(pool.submit([&rendezvous] {
            rendezvous.arrive_and_wait();
        }));
    waitAll(futures);
}

TEST(ThreadPool, RejectsNonPositiveWorkerCount)
{
    EXPECT_THROW(ThreadPool pool(0), Error);
    EXPECT_THROW(ThreadPool pool(-3), Error);
}

TEST(ThreadPool, WorkersAccessorReportsSize)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 3);
}

TEST(SharedPool, SameSizeReturnsSameInstance)
{
    ThreadPool& a = sharedPool(2);
    ThreadPool& b = sharedPool(2);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.workers(), 2);
}

TEST(SharedPool, DistinctSizesAreDistinctPools)
{
    ThreadPool& a = sharedPool(2);
    ThreadPool& b = sharedPool(3);
    EXPECT_NE(&a, &b);
}

TEST(SharedPool, ZeroMeansHardwareConcurrency)
{
    ThreadPool& pool = sharedPool(0);
    EXPECT_GE(pool.workers(), 1);
    EXPECT_EQ(&pool, &sharedPool(0));
}

TEST(SharedPool, RejectsNegativeWorkerCount)
{
    EXPECT_THROW(sharedPool(-1), Error);
}

} // namespace
} // namespace bayes::support
