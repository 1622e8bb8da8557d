/**
 * @file
 * Property-based fuzzing of the revolver scheduler: random but
 * well-formed tasklet traces must always satisfy the accounting,
 * ordering, and liveness invariants, deterministically. A wider
 * generator pins every profile field to a committed digest, so a
 * change to the replay loop that is meant to be a pure speed-up is
 * proven byte-identical.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>

#include "common/random.hh"
#include "upmem/scheduler.hh"

using namespace alphapim;
using namespace alphapim::upmem;

namespace
{

/**
 * Build a random, well-formed trace set: every mutex lock is paired
 * with an unlock; barriers appear at common sync points so every
 * live tasklet participates.
 */
std::vector<TaskletTrace>
randomTraces(std::uint64_t seed, unsigned tasklets)
{
    Rng rng(seed);
    std::vector<TaskletTrace> traces(tasklets);
    const unsigned phases = 1 + static_cast<unsigned>(
                                    rng.nextBounded(4));
    for (unsigned phase = 0; phase < phases; ++phase) {
        for (unsigned t = 0; t < tasklets; ++t) {
            auto &trace = traces[t];
            const unsigned pieces = static_cast<unsigned>(
                rng.nextBounded(6));
            for (unsigned p = 0; p < pieces; ++p) {
                switch (rng.nextBounded(5)) {
                  case 0:
                    trace.ops(OpClass::IntAdd,
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(64)));
                    break;
                  case 1:
                    trace.ops(OpClass::LoadWram,
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(16)));
                    break;
                  case 2:
                    trace.dmaRead(8 + static_cast<std::uint32_t>(
                                          rng.nextBounded(2048)));
                    break;
                  case 3:
                    trace.dmaWrite(8 + static_cast<std::uint32_t>(
                                           rng.nextBounded(512)));
                    break;
                  default: {
                    const auto id = static_cast<std::uint32_t>(
                        rng.nextBounded(4));
                    trace.mutexLock(id);
                    trace.ops(OpClass::Compare,
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(8)));
                    trace.mutexUnlock(id);
                    break;
                  }
                }
            }
        }
        // Common sync point.
        for (unsigned t = 0; t < tasklets; ++t)
            traces[t].barrier(0);
    }
    return traces;
}

/**
 * Golden-digest generator. Every live tasklet mixes long Ops runs
 * (>= 8 ops, so the closed-form fast path fires) with short runs,
 * addressed WRAM records, DMAs, contended critical sections on two
 * mutexes and SpMSpV-shaped edge records; all live tasklets meet at
 * barrier 0 once per phase, then arrive at barrier 1 an uneven
 * number of times. Some tasklets stay empty.
 */
std::vector<TaskletTrace>
goldenTraces(std::uint64_t seed, unsigned tasklets)
{
    Rng rng(seed);
    auto draw = [&](std::uint64_t bound) {
        return static_cast<std::uint32_t>(rng.nextBounded(bound));
    };
    constexpr OpClass longClasses[] = {OpClass::IntAdd, OpClass::Logic,
                                       OpClass::FloatMul,
                                       OpClass::LoadWram};
    constexpr OpClass shortClasses[] = {OpClass::Compare, OpClass::Move,
                                        OpClass::StoreWram,
                                        OpClass::Control};

    std::vector<TaskletTrace> traces(tasklets);
    std::vector<bool> idle(tasklets, false);
    for (unsigned t = 1; t < tasklets; ++t)
        idle[t] = draw(8) == 0;

    const unsigned phases = 1 + draw(3);
    for (unsigned phase = 0; phase < phases; ++phase) {
        for (unsigned t = 0; t < tasklets; ++t) {
            if (idle[t])
                continue;
            auto &trace = traces[t];
            trace.ops(longClasses[draw(4)], 8 + draw(120));
            const unsigned pieces = 2 + draw(6);
            for (unsigned p = 0; p < pieces; ++p) {
                switch (draw(7)) {
                  case 0:
                    trace.ops(longClasses[draw(4)], 8 + draw(200));
                    break;
                  case 1:
                    trace.ops(shortClasses[draw(4)], 1 + draw(7));
                    break;
                  case 2:
                    trace.wramAccess(draw(2) ? OpClass::LoadWram
                                             : OpClass::StoreWram,
                                     1 + draw(12), 64 * draw(64),
                                     4 * (1 + draw(12)));
                    break;
                  case 3:
                    if (draw(2))
                        trace.dmaRead(8 + 8 * draw(256));
                    else
                        trace.dmaWrite(8 + 8 * draw(64));
                    break;
                  case 4: {
                    const auto id = draw(2);
                    trace.mutexLock(id);
                    trace.ops(OpClass::Compare, 1 + draw(10));
                    trace.mutexUnlock(id);
                    break;
                  }
                  default: {
                    // One SpMSpV edge: load the pair, multiply, then
                    // update the output row under its mutex.
                    const auto id = draw(2);
                    const auto addr = 4 * draw(256);
                    trace.ops(OpClass::LoadWram, 2);
                    trace.ops(OpClass::IntMul, 4);
                    trace.mutexLock(id);
                    trace.wramAccess(OpClass::LoadWram, 1, addr, 4);
                    trace.wramAccess(OpClass::StoreWram, 1, addr, 4);
                    trace.mutexUnlock(id);
                    trace.ops(OpClass::Control, 1);
                    break;
                  }
                }
            }
        }
        for (unsigned t = 0; t < tasklets; ++t) {
            if (!idle[t])
                traces[t].barrier(0);
        }
    }
    // Uneven trip counts: instance i of barrier 1 waits only for the
    // tasklets that arrive more than i times.
    for (unsigned t = 0; t < tasklets; ++t) {
        if (idle[t])
            continue;
        const unsigned trips = draw(4);
        for (unsigned i = 0; i < trips; ++i) {
            traces[t].ops(OpClass::Logic, 1 + draw(40));
            traces[t].barrier(1);
        }
    }
    return traces;
}

Cycles
allStalls(const DpuProfile &p)
{
    Cycles total = 0;
    for (auto c : p.stallCycles)
        total += c;
    return total;
}

/** FNV-1a over every DpuProfile field; activeThreadCycles is hashed
 * by its bit pattern, so any change in float accumulation shows. */
std::uint64_t
profileDigest(const DpuProfile &p)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    mix(p.totalCycles);
    mix(p.issuedCycles);
    for (auto c : p.stallCycles)
        mix(c);
    for (auto c : p.instrByClass)
        mix(c);
    mix(std::bit_cast<std::uint64_t>(p.activeThreadCycles));
    mix(p.mramReadBytes);
    mix(p.mramWriteBytes);
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Accounting, issue and determinism invariants of one replay. */
void
expectInvariants(const RevolverScheduler &sched,
                 const std::vector<TaskletTrace> &traces,
                 const DpuProfile &p, const std::string &label)
{
    const auto tasklets = static_cast<double>(traces.size());

    // 1. Cycle accounting is complete.
    EXPECT_EQ(p.totalCycles, p.issuedCycles + allStalls(p)) << label;

    // 2. Every trace instruction was dispatched (spin retries may
    //    add lock instructions on top).
    std::uint64_t trace_instr = 0;
    std::uint64_t trace_unlocks = 0;
    for (const auto &t : traces) {
        trace_instr += t.instructionCount();
        for (const auto &r : t.records()) {
            if (r.kind == RecordKind::Mutex && r.count == 0)
                ++trace_unlocks;
        }
    }
    EXPECT_GE(p.totalInstructions(), trace_instr) << label;
    EXPECT_EQ(p.instrByClass[static_cast<std::size_t>(
                  OpClass::MutexUnlock)],
              trace_unlocks)
        << label;

    // 3. At most one dispatch per cycle.
    EXPECT_LE(p.issuedCycles, p.totalCycles) << label;

    // 4. Thread activity bounded by the tasklet count.
    EXPECT_LE(p.avgActiveThreads(), tasklets + 1e-9) << label;

    // 5. Determinism.
    EXPECT_EQ(profileDigest(sched.run(traces)), profileDigest(p))
        << label;
}

class SchedulerFuzz : public testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(SchedulerFuzz, InvariantsHold)
{
    const std::uint64_t seed = GetParam();
    for (unsigned tasklets : {1u, 3u, 8u, 16u}) {
        DpuConfig cfg;
        cfg.tasklets = std::max(tasklets, 1u);
        RevolverScheduler sched(cfg);
        const auto traces = randomTraces(seed, tasklets);

        expectInvariants(sched, traces, sched.run(traces),
                         "seed " + std::to_string(seed) + " tasklets " +
                             std::to_string(tasklets));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         testing::Range<std::uint64_t>(1, 25));

namespace
{

constexpr unsigned goldenTasklets[] = {1, 3, 11, 16, 24};

/** Base hardware, then each future-hardware knob on its own. */
DpuConfig
goldenConfig(unsigned variant, unsigned tasklets)
{
    DpuConfig cfg;
    cfg.tasklets = tasklets;
    cfg.nonBlockingDma = variant == 1;
    cfg.hardwareAtomics = variant == 2;
    return cfg;
}

/** Digests of goldenTraces(seed, tasklets) replayed under
 * goldenConfig(variant), indexed [seed - 1][tasklets][variant]. */
constexpr std::uint64_t goldenDigests[6][5][3] = {
    {
        {0x8895e2779debd45b, 0x9fb8de374d86c648, 0x8895e2779debd45b},
        {0xd3c3b80acaa1db19, 0xa760c9b0eab1f69c, 0xd3c3b80acaa1db19},
        {0xb0fc96ce5563e234, 0x421cac0760c886c7, 0xe3de23a1031d7df3},
        {0x74583f44caaf3dc4, 0xb3b5f4411e5a3f9b, 0x16affc4d25e51fa8},
        {0x49a1c08c716902e3, 0x9fdcf331f71b0065, 0x3573e27596b2d3d3}},
    {
        {0x9b24edcadd513afe, 0x9b24edcadd513afe, 0x9b24edcadd513afe},
        {0xe28a4082a12cc8a0, 0xe28a4082a12cc8a0, 0xe28a4082a12cc8a0},
        {0x81d71e54ed2d86c2, 0x4c016d3eb0bfcef7, 0x4f58cf1be21ce016},
        {0x5eb722a62be1e935, 0x0f4bdb8a2344d210, 0x03cf64fcedae4205},
        {0xc56b84028367fd06, 0xb1f0f4183b7f8841, 0xf86340472979363d}},
    {
        {0x3457a59c67500f2b, 0x5b8f5e189f455413, 0x3457a59c67500f2b},
        {0xe931fc4628887ea9, 0x211c1c5534d2ca89, 0xe931fc4628887ea9},
        {0x630effd497e0d29e, 0x1933c0a646b3ae62, 0xba83a6cbcb40c89e},
        {0x7801ebb7ed1b88f3, 0xb48323da1b289e51, 0x4cc58e4ac334049e},
        {0x71d5b2e36d6e3d23, 0xfe8ed8500b6103ea, 0xf7c5ace2bf7f99f0}},
    {
        {0x8e1ddcf6afde41a5, 0xeb7007434e2d2f4e, 0x8e1ddcf6afde41a5},
        {0x927ed6dc23e34804, 0x841fdb314535e619, 0xfe8f1f3a63dcd35b},
        {0x1d0dbbcf684f49ea, 0xf53dd690658698bf, 0x2e7e35e351a41ddc},
        {0xd06f9716b1b6a781, 0x8ac33ca930950322, 0x943c32fb1bd52f7e},
        {0xc59e0b7cc38d6ddb, 0xfdcdd3f53c9da390, 0x4025f2445ebf9537}},
    {
        {0x9d3721360798c384, 0x5c02160a96d0c5ee, 0x9d3721360798c384},
        {0xa4c0c55d602b252f, 0xaf68a19c13d13e09, 0x270ba8a35e849ea8},
        {0x6dbc92b81e6d6ba4, 0xadcedf1e799567ca, 0x065d631411ed9936},
        {0x4cff9e10d9d7267c, 0xb72a3b0eaf543bdf, 0x278fcd4beb4b0edc},
        {0x4691d20842f3f83a, 0x3237b4930da4f6d0, 0x05497bdde1ffd2c7}},
    {
        {0xeab1a48da7922659, 0xeab1a48da7922659, 0xeab1a48da7922659},
        {0x9a8c28f52fe79f98, 0x98af1ea3a3f71cc2, 0x9a8c28f52fe79f98},
        {0xcad4334c1a14e572, 0x05f51ea86e7a0f61, 0x6c1cde2860841b48},
        {0x7ed08d2703bfbccf, 0x56aa6274b8fd3b36, 0x7695319e5b5de1a0},
        {0x243041da98d5bc6e, 0x2a8321b42312c760, 0x35ef06e2a8607884}}
};

/** Replay, check the invariants, and compare against the digest. */
void
expectGolden(const DpuConfig &cfg, const std::vector<TaskletTrace> &traces,
             std::uint64_t golden, const std::string &label)
{
    const RevolverScheduler sched(cfg);
    const auto p = sched.run(traces);
    expectInvariants(sched, traces, p, label);
    EXPECT_EQ(hex(profileDigest(p)), hex(golden)) << label;
}

} // namespace

TEST(SchedulerGolden, DigestsMatchCommittedProfiles)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (unsigned i = 0; i < 5; ++i) {
            const unsigned tasklets = goldenTasklets[i];
            const auto traces = goldenTraces(seed, tasklets);
            for (unsigned variant = 0; variant < 3; ++variant) {
                expectGolden(goldenConfig(variant, tasklets), traces,
                             goldenDigests[seed - 1][i][variant],
                             "golden[" + std::to_string(seed - 1) +
                                 "][" + std::to_string(i) + "][" +
                                 std::to_string(variant) + "]");
            }
        }
    }
}

TEST(SchedulerGolden, FastPathAfterSpinnerTakesLock)
{
    // Tasklet 1 spins on mutex 0 while tasklet 0 holds it. Once it
    // takes the lock, every tasklet sits in a long Ops run, so the
    // fast path becomes eligible on the very next dispatch.
    std::vector<TaskletTrace> traces(12);
    traces[0].mutexLock(0);
    traces[0].ops(OpClass::IntAdd, 30);
    traces[0].mutexUnlock(0);
    traces[0].ops(OpClass::Logic, 300);
    traces[1].mutexLock(0);
    traces[1].ops(OpClass::Logic, 200);
    traces[1].mutexUnlock(0);
    for (unsigned t = 2; t < 12; ++t)
        traces[t].ops(OpClass::IntAdd, 400 + 7 * t);
    expectGolden(goldenConfig(0, 12), traces,
                 0x45f8a8c1d990b89e,
                 "spinner takes lock");
}

TEST(SchedulerGolden, FastPathAfterBarrierRelease)
{
    // Uneven work before the barrier; right after the last arrival
    // releases it, every tasklet resumes in a long Ops run.
    std::vector<TaskletTrace> traces(16);
    for (unsigned t = 0; t < 16; ++t) {
        traces[t].ops(OpClass::IntAdd, 3 + 5 * t);
        traces[t].barrier(0);
        traces[t].ops(t % 2 ? OpClass::Logic : OpClass::LoadWram,
                      100 + t);
    }
    expectGolden(goldenConfig(0, 16), traces,
                 0x4511865cf606905c,
                 "barrier release");
}

TEST(SchedulerFuzzEdge, ManyMutexesHighContention)
{
    DpuConfig cfg;
    cfg.tasklets = 16;
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(16);
    Rng rng(99);
    for (auto &t : traces) {
        for (int i = 0; i < 50; ++i) {
            const auto id =
                static_cast<std::uint32_t>(rng.nextBounded(2));
            t.mutexLock(id);
            t.ops(OpClass::IntAdd, 2);
            t.mutexUnlock(id);
        }
    }
    const auto p = sched.run(traces);
    // All critical sections execute; no deadlock or lost work.
    EXPECT_EQ(p.instrByClass[static_cast<std::size_t>(
                  OpClass::MutexUnlock)],
              16u * 50u);
    EXPECT_EQ(p.instrByClass[static_cast<std::size_t>(
                  OpClass::IntAdd)],
              16u * 50u * 2u);
}

TEST(SchedulerFuzzEdge, AlternatingBarriersAndWork)
{
    DpuConfig cfg;
    cfg.tasklets = 6;
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(6);
    for (unsigned t = 0; t < 6; ++t) {
        for (unsigned round = 0; round < 10; ++round) {
            traces[t].ops(OpClass::IntAdd, (t + 1) * (round + 1));
            traces[t].barrier(round % 3);
        }
    }
    const auto p = sched.run(traces);
    EXPECT_EQ(p.instrByClass[static_cast<std::size_t>(
                  OpClass::Barrier)],
              60u);
    EXPECT_EQ(p.totalCycles, p.issuedCycles + allStalls(p));
}
