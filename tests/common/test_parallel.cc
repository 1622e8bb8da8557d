/** @file WorkerPool coverage, nesting and sharing, its spin-then-park
 * hand-off, and the ALPHA_PIM_THREADS parse. */

#include <atomic>
#include <chrono>
#include <ctime>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"

using namespace alphapim;

namespace
{

/** Run `count` items on `pool` and expect each to run exactly once. */
void
expectEveryIndexOnce(WorkerPool &pool, std::size_t count)
{
    std::vector<std::atomic<int>> hits(count);
    pool.run(count, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

/**
 * Run one job on `pool` whose items on the calling thread wait until
 * another thread has run one, and return how many ran elsewhere. The
 * job finishes promptly only if a worker joins it.
 */
int
itemsOffTheCaller(WorkerPool &pool)
{
    const auto caller = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    pool.run(8, [&](std::size_t) {
        if (std::this_thread::get_id() != caller) {
            elsewhere.fetch_add(1);
            return;
        }
        while (elsewhere.load() == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    });
    return elsewhere.load();
}

/** CPU time of the whole process, every thread included. */
std::chrono::nanoseconds
processCpuTime()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::chrono::seconds(ts.tv_sec) +
           std::chrono::nanoseconds(ts.tv_nsec);
}

} // namespace

TEST(WorkerPool, EveryIndexRunsOnceInEachOf1000Runs)
{
    WorkerPool pool(4);
    for (int run = 0; run < 1000; ++run) {
        SCOPED_TRACE(run);
        expectEveryIndexOnce(pool, 1 + run % 97);
    }
}

TEST(WorkerPool, ZeroCountIsNoop)
{
    WorkerPool pool(4);
    bool called = false;
    pool.run(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(WorkerPool, SmallCountsRunSerially)
{
    WorkerPool pool(4);
    std::vector<int> order;
    pool.run(3, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(WorkerPool, ResultsAreDeterministicPerSlot)
{
    WorkerPool pool(4);
    std::vector<std::uint64_t> out(500);
    pool.run(500, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < 500; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(WorkerPool, WorkersTakeItemsWhileTheCallerIsBusy)
{
    WorkerPool pool(4);
    EXPECT_GT(itemsOffTheCaller(pool), 0); // starts the workers
    // Let them park: the next job needs a wake-up.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GT(itemsOffTheCaller(pool), 0);
}

TEST(WorkerPool, JobsSpacedWiderThanTheSpinWindowWakeParkedWorkers)
{
    WorkerPool pool(4);
    for (int job = 0; job < 20; ++job) {
        SCOPED_TRACE(job);
        EXPECT_GT(itemsOffTheCaller(pool), 0);
        std::this_thread::sleep_for(4 * WorkerPool::spinWindow);
    }
}

TEST(WorkerPool, BackToBackJobsReachSpinningWorkers)
{
    WorkerPool pool(4);
    for (int job = 0; job < 500; ++job) {
        SCOPED_TRACE(job);
        ASSERT_GT(itemsOffTheCaller(pool), 0);
        expectEveryIndexOnce(pool, 1 + job % 37);
    }
}

TEST(WorkerPool, WorkersParkOnceTheSpinWindowPasses)
{
    // Three workers spinning through the whole sleep would burn about
    // 3 x 200 ms of CPU; parked after the window, they burn about
    // 3 x 0.2 ms.
    WorkerPool pool(4);
    EXPECT_GT(itemsOffTheCaller(pool), 0);
    const auto before = processCpuTime();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LT(processCpuTime() - before, std::chrono::milliseconds(50));
    EXPECT_GT(itemsOffTheCaller(pool), 0);
}

TEST(WorkerPool, DestroyedWhileItsWorkersSpin)
{
    for (int round = 0; round < 200; ++round) {
        SCOPED_TRACE(round);
        WorkerPool pool(4);
        expectEveryIndexOnce(pool, 64);
        // The workers are inside their spin window as the pool dies.
    }
}

TEST(WorkerPool, NestedRunCompletesSeriallyOnItsItem)
{
    WorkerPool pool(4);
    std::vector<std::vector<int>> inner(16);
    std::vector<std::atomic<int>> foreign(16);
    pool.run(16, [&](std::size_t i) {
        const auto self = std::this_thread::get_id();
        pool.run(32, [&](std::size_t j) {
            inner[i].push_back(static_cast<int>(j));
            if (std::this_thread::get_id() != self)
                foreign[i].fetch_add(1);
        });
    });
    std::vector<int> in_order(32);
    for (int j = 0; j < 32; ++j)
        in_order[j] = j;
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(inner[i], in_order) << "item " << i;
        EXPECT_EQ(foreign[i].load(), 0) << "item " << i;
    }
    // The pool is free again once the outer run returns.
    expectEveryIndexOnce(pool, 64);
}

TEST(WorkerPool, TwoCallersAtOnceBothComplete)
{
    WorkerPool pool(4);
    std::atomic<bool> go{false};
    auto caller = [&] {
        while (!go.load())
            std::this_thread::yield();
        for (int run = 0; run < 200; ++run)
            expectEveryIndexOnce(pool, 256);
    };
    std::thread a(caller), b(caller);
    go.store(true);
    a.join();
    b.join();
}

TEST(WorkerPool, SecondCallerRunsSeriallyWhileThePoolIsHeld)
{
    WorkerPool pool(4);
    std::atomic<bool> held{false}, done{false};
    std::thread holder([&] {
        pool.run(8, [&](std::size_t) {
            held.store(true);
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(10);
            while (!done.load() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
        });
    });
    while (!held.load())
        std::this_thread::yield();
    const auto self = std::this_thread::get_id();
    std::vector<int> order;
    int foreign = 0;
    pool.run(32, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
        foreign += std::this_thread::get_id() != self;
    });
    done.store(true);
    holder.join();
    std::vector<int> in_order(32);
    for (int j = 0; j < 32; ++j)
        in_order[j] = j;
    EXPECT_EQ(order, in_order);
    EXPECT_EQ(foreign, 0);
    expectEveryIndexOnce(pool, 64);
}

TEST(WorkerPool, ItemThrowsWhileTheOtherWorkersSpin)
{
    // One item throws only after the others are done, so the other
    // workers have gone back to spinning for the next job; run()
    // rethrows once no item is left running, and the next job reaches
    // the spinning workers.
    WorkerPool pool(4);
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE(round);
        std::atomic<int> running{0}, finished{0};
        try {
            pool.run(16, [&](std::size_t i) {
                running.fetch_add(1);
                if (i == 0) {
                    const auto deadline =
                        std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
                    while (finished.load() < 15 &&
                           std::chrono::steady_clock::now() < deadline)
                        std::this_thread::yield();
                    std::this_thread::sleep_for(WorkerPool::spinWindow /
                                                4);
                    running.fetch_sub(1);
                    throw std::runtime_error("item");
                }
                finished.fetch_add(1);
                running.fetch_sub(1);
            });
            ADD_FAILURE() << "run() did not rethrow";
        } catch (const std::runtime_error &) {
            EXPECT_EQ(running.load(), 0);
        }
        EXPECT_EQ(finished.load(), 15);
        EXPECT_GT(itemsOffTheCaller(pool), 0);
    }
}

TEST(WorkerPool, ItemExceptionReachesTheCallerAndThePoolRecovers)
{
    WorkerPool pool(4);
    for (int run = 0; run < 50; ++run) {
        EXPECT_THROW(pool.run(100,
                              [](std::size_t i) {
                                  if (i == 37)
                                      throw std::runtime_error("item");
                              }),
                     std::runtime_error);
        expectEveryIndexOnce(pool, 100);
    }
}

TEST(ParallelThreadLimit, UnsetFallsBackToHardware)
{
    EXPECT_EQ(parallelThreadLimit(nullptr, 8), 8u);
    EXPECT_EQ(parallelThreadLimit(nullptr, 0), 1u);
}

TEST(ParallelThreadLimit, PositiveIntegerLowersLimit)
{
    EXPECT_EQ(parallelThreadLimit("1", 8), 1u);
    EXPECT_EQ(parallelThreadLimit("4", 8), 4u);
}

TEST(ParallelThreadLimit, CannotRaiseAboveHardware)
{
    EXPECT_EQ(parallelThreadLimit("64", 8), 8u);
    EXPECT_EQ(parallelThreadLimit("8", 8), 8u);
}

TEST(ParallelThreadLimit, GarbageAndZeroAreIgnored)
{
    EXPECT_EQ(parallelThreadLimit("", 8), 8u);
    EXPECT_EQ(parallelThreadLimit("0", 8), 8u);
    EXPECT_EQ(parallelThreadLimit("abc", 8), 8u);
    EXPECT_EQ(parallelThreadLimit("4x", 8), 8u);
    EXPECT_EQ(parallelThreadLimit("-2", 8), 8u);
    EXPECT_EQ(parallelThreadLimit(" 4", 8), 8u);
    EXPECT_EQ(parallelThreadLimit("+4", 8), 8u);
}

TEST(ParallelThreadLimit, SerialOverrideStillVisitsEverything)
{
    // ALPHA_PIM_THREADS=1 sizes a pool with no workers, as does a
    // thread count of 0: every item runs on the caller, in order.
    for (const unsigned threads : {parallelThreadLimit("1", 8), 0u}) {
        WorkerPool pool(threads);
        const auto caller = std::this_thread::get_id();
        std::vector<int> order;
        bool elsewhere = false;
        pool.run(100, [&](std::size_t i) {
            order.push_back(static_cast<int>(i));
            elsewhere |= std::this_thread::get_id() != caller;
        });
        ASSERT_EQ(order.size(), 100u) << threads << " threads";
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(order[i], i) << threads << " threads";
        EXPECT_FALSE(elsewhere) << threads << " threads";
    }
}
