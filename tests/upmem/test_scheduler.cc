/**
 * @file
 * Revolver-pipeline scheduler invariants: dispatch-gap enforcement,
 * stall accounting, DMA serialization, mutex exclusion, and barrier
 * semantics.
 */

#include <gtest/gtest.h>

#include "upmem/scheduler.hh"

using namespace alphapim;
using namespace alphapim::upmem;

namespace
{

DpuConfig
testConfig(unsigned tasklets = 4)
{
    DpuConfig cfg;
    cfg.tasklets = tasklets;
    return cfg;
}

Cycles
stall(const DpuProfile &p, StallReason r)
{
    return p.stallCycles[static_cast<std::size_t>(r)];
}

Cycles
allStalls(const DpuProfile &p)
{
    Cycles total = 0;
    for (auto c : p.stallCycles)
        total += c;
    return total;
}

} // namespace

TEST(Scheduler, SingleTaskletRevolverGap)
{
    const auto cfg = testConfig(1);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(1);
    traces[0].ops(OpClass::IntAdd, 10);

    const auto profile = sched.run(traces);
    // 10 instructions, consecutive dispatches 11 cycles apart:
    // total = 9 * 11 + 1 cycles.
    EXPECT_EQ(profile.issuedCycles, 10u);
    EXPECT_EQ(profile.totalCycles, 9 * cfg.revolverGap + 1);
    EXPECT_EQ(stall(profile, StallReason::Revolver),
              9 * (cfg.revolverGap - 1));
}

TEST(Scheduler, EnoughTaskletsSaturatePipeline)
{
    // With >= revolverGap tasklets and identical work, every cycle
    // dispatches (modulo rare RF hazards).
    DpuConfig cfg;
    cfg.tasklets = 12;
    cfg.rfBankBits = 8; // make hazards vanishingly rare
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(12);
    for (auto &t : traces)
        t.ops(OpClass::IntAdd, 100);

    const auto profile = sched.run(traces);
    EXPECT_EQ(profile.issuedCycles, 1200u);
    EXPECT_GE(profile.issuedFraction(), 0.95);
}

TEST(Scheduler, CycleAccountingIsComplete)
{
    const auto cfg = testConfig(3);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(3);
    traces[0].ops(OpClass::IntAdd, 20);
    traces[0].dmaRead(256);
    traces[0].ops(OpClass::Compare, 5);
    traces[1].ops(OpClass::Logic, 7);
    traces[1].dmaWrite(64);
    traces[2].ops(OpClass::Move, 30);

    const auto profile = sched.run(traces);
    EXPECT_EQ(profile.totalCycles,
              profile.issuedCycles + allStalls(profile));
}

TEST(Scheduler, DmaBlocksIssuingTasklet)
{
    const auto cfg = testConfig(1);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(1);
    traces[0].dmaRead(1024);
    traces[0].ops(OpClass::IntAdd, 1);

    const auto profile = sched.run(traces);
    const auto dma_cycles =
        cfg.dmaSetupCycles +
        static_cast<Cycles>(1024 / cfg.dmaBytesPerCycle);
    // Dispatch DMA at cycle 0, the add at dma completion.
    EXPECT_EQ(profile.totalCycles, dma_cycles + 1);
    EXPECT_GT(stall(profile, StallReason::Memory), 0u);
}

TEST(Scheduler, DmaEngineSerializesTransfers)
{
    const auto cfg = testConfig(4);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(4);
    for (auto &t : traces)
        t.dmaRead(2048);

    const auto profile = sched.run(traces);
    const Cycles occupancy =
        cfg.dmaEngineOverheadCycles +
        static_cast<Cycles>(2048 / cfg.dmaBytesPerCycle);
    // Four transfers through one engine occupy it back to back;
    // setup latency pipelines but occupancy serializes.
    EXPECT_GE(profile.totalCycles, 4 * occupancy);
    EXPECT_LT(profile.totalCycles,
              4 * (cfg.dmaSetupCycles + occupancy) + 100);
}

TEST(Scheduler, MutexProvidesExclusionAndSpins)
{
    const auto cfg = testConfig(2);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(2);
    for (auto &t : traces) {
        t.mutexLock(0);
        t.ops(OpClass::IntAdd, 50);
        t.mutexUnlock(0);
    }

    const auto profile = sched.run(traces);
    // The loser spins: lock attempts exceed the 2 successful locks.
    const auto locks = profile.instrByClass[static_cast<std::size_t>(
        OpClass::MutexLock)];
    EXPECT_GT(locks, 2u);
    EXPECT_EQ(profile.instrByClass[static_cast<std::size_t>(
                  OpClass::MutexUnlock)],
              2u);
    // Critical sections serialize: at least 2 x 50 adds of latency.
    EXPECT_GE(profile.totalCycles, 2 * 49 * cfg.revolverGap);
}

TEST(Scheduler, BarrierWaitsForAllTasklets)
{
    const auto cfg = testConfig(3);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(3);
    traces[0].ops(OpClass::IntAdd, 1);
    traces[0].barrier(0);
    traces[0].ops(OpClass::Compare, 1);
    traces[1].ops(OpClass::IntAdd, 200); // straggler
    traces[1].barrier(0);
    traces[1].ops(OpClass::Compare, 1);
    traces[2].ops(OpClass::IntAdd, 1);
    traces[2].barrier(0);
    traces[2].ops(OpClass::Compare, 1);

    const auto profile = sched.run(traces);
    // All three compares dispatch after the straggler arrives:
    // total must exceed the straggler's compute alone.
    EXPECT_GE(profile.totalCycles, 199 * cfg.revolverGap);
    EXPECT_EQ(profile.instrByClass[static_cast<std::size_t>(
                  OpClass::Barrier)],
              3u);
}

TEST(Scheduler, RepeatedBarriersWork)
{
    const auto cfg = testConfig(2);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(2);
    for (auto &t : traces) {
        t.ops(OpClass::IntAdd, 3);
        t.barrier(1);
        t.ops(OpClass::IntAdd, 3);
        t.barrier(1);
        t.ops(OpClass::IntAdd, 3);
    }
    const auto profile = sched.run(traces);
    EXPECT_EQ(profile.instrByClass[static_cast<std::size_t>(
                  OpClass::Barrier)],
              4u);
    EXPECT_EQ(profile.instrByClass[static_cast<std::size_t>(
                  OpClass::IntAdd)],
              18u);
}

TEST(Scheduler, EmptyTracesAreAllowed)
{
    const auto cfg = testConfig(4);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(4);
    traces[2].ops(OpClass::IntAdd, 5);

    const auto profile = sched.run(traces);
    EXPECT_EQ(profile.issuedCycles, 5u);
}

TEST(Scheduler, AllEmptyProducesZeroProfile)
{
    const auto cfg = testConfig(4);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(4);
    const auto profile = sched.run(traces);
    EXPECT_EQ(profile.totalCycles, 0u);
    EXPECT_EQ(profile.totalInstructions(), 0u);
}

TEST(Scheduler, ActiveThreadsBoundedByTaskletCount)
{
    const auto cfg = testConfig(8);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(8);
    for (auto &t : traces)
        t.ops(OpClass::IntAdd, 64);
    const auto profile = sched.run(traces);
    EXPECT_GT(profile.avgActiveThreads(), 1.0);
    EXPECT_LE(profile.avgActiveThreads(), 8.0 + 1e-9);
}

TEST(Scheduler, InstructionMixMatchesTrace)
{
    const auto cfg = testConfig(2);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(2);
    traces[0].ops(OpClass::FloatMul, 10);
    traces[0].ops(OpClass::LoadWram, 4);
    traces[1].ops(OpClass::StoreWram, 6);
    traces[1].dmaRead(128);

    const auto profile = sched.run(traces);
    EXPECT_EQ(profile.instrByClass[static_cast<std::size_t>(
                  OpClass::FloatMul)],
              10u);
    EXPECT_EQ(profile.instructionsInCategory(OpCategory::Scratchpad),
              10u);
    EXPECT_EQ(profile.instructionsInCategory(OpCategory::Dma), 1u);
}

TEST(Scheduler, OutlivesTheConfigItWasBuiltFrom)
{
    // Built from a temporary: a scheduler that kept a reference would
    // replay against a dead config (ASan: stack-use-after-scope).
    const RevolverScheduler sched(testConfig(1));
    std::vector<TaskletTrace> traces(1);
    traces[0].ops(OpClass::IntAdd, 10);
    const auto profile = sched.run(traces);
    EXPECT_EQ(profile.totalCycles, 9 * DpuConfig{}.revolverGap + 1);
}

TEST(SchedulerDeath, TaskletsAboveTheCeiling)
{
    auto cfg = testConfig(taskletCeiling + 8);
    cfg.maxTasklets = cfg.tasklets;
    const RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(cfg.tasklets);
    for (auto &t : traces)
        t.ops(OpClass::IntAdd, 16);
    EXPECT_DEATH(sched.run(traces), "tasklet ceiling");
}

TEST(Scheduler, DeterministicAcrossRuns)
{
    const auto cfg = testConfig(6);
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(6);
    for (unsigned t = 0; t < 6; ++t) {
        traces[t].ops(OpClass::IntAdd, 10 + t * 3);
        traces[t].dmaRead(64 * (t + 1));
        traces[t].mutexLock(t % 2);
        traces[t].ops(OpClass::Compare, 5);
        traces[t].mutexUnlock(t % 2);
        traces[t].barrier(0);
    }
    const auto p1 = sched.run(traces);
    const auto p2 = sched.run(traces);
    EXPECT_EQ(p1.totalCycles, p2.totalCycles);
    EXPECT_EQ(p1.issuedCycles, p2.issuedCycles);
    EXPECT_EQ(p1.activeThreadCycles, p2.activeThreadCycles);
}
