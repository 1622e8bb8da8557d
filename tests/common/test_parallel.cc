/** @file WorkerPool coverage, nesting and sharing, and the
 * ALPHA_PIM_THREADS parse. */

#include <atomic>
#include <chrono>
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
    // Each item the caller takes waits until another thread has run
    // one, so a job finishes promptly only if the workers take items.
    WorkerPool pool(4);
    const auto caller = std::this_thread::get_id();
    auto itemsElsewhere = [&] {
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
    };
    EXPECT_GT(itemsElsewhere(), 0); // starts the workers
    // Let them fall asleep: the next job needs a wake-up.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GT(itemsElsewhere(), 0);
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
