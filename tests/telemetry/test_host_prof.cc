/**
 * @file
 * Host-profiler tests: disabled-by-default no-op behavior, per-phase
 * aggregation, self-time attribution for nested timers, throughput
 * derivation in snapshot(), folding profiles with add(), and the
 * published host.* metrics / host_profile trace event, whose args
 * read back through the host field list.
 */

#include <thread>

#include <gtest/gtest.h>

#include "telemetry/host_prof.hh"
#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

using namespace alphapim::telemetry;

namespace
{

/** Reset the global profiler to a known state for one test. */
struct ProfilerFixture : ::testing::Test
{
    void
    SetUp() override
    {
        hostProfiler().reset();
        hostProfiler().setEnabled(true);
    }

    void
    TearDown() override
    {
        hostProfiler().setEnabled(false);
        hostProfiler().reset();
    }
};

} // namespace

TEST(HostProfiler, DisabledMutatorsAreNoops)
{
    HostProfiler &p = hostProfiler();
    p.setEnabled(false);
    p.reset();
    p.addPhaseNanos(HostPhase::Replay, 1000000);
    p.addReplaySlots(42);
    {
        HostPhaseTimer t(HostPhase::Replay);
    }
    // addPhaseNanos is unconditional (callers gate on enabled());
    // the timer itself must not record while disabled.
    EXPECT_EQ(p.phaseCalls(HostPhase::Replay), 1u);
    p.reset();
    EXPECT_EQ(p.phaseCalls(HostPhase::Replay), 0u);
    EXPECT_DOUBLE_EQ(p.phaseSeconds(HostPhase::Replay), 0.0);
}

TEST_F(ProfilerFixture, PhaseNanosAccumulate)
{
    HostProfiler &p = hostProfiler();
    p.addPhaseNanos(HostPhase::PartitionBuild, 500000000);
    p.addPhaseNanos(HostPhase::PartitionBuild, 250000000);
    EXPECT_DOUBLE_EQ(p.phaseSeconds(HostPhase::PartitionBuild), 0.75);
    EXPECT_EQ(p.phaseCalls(HostPhase::PartitionBuild), 2u);
}

TEST_F(ProfilerFixture, NestedTimersAttributeSelfTime)
{
    HostProfiler &p = hostProfiler();
    {
        HostPhaseTimer outer(HostPhase::Replay);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        {
            HostPhaseTimer inner(HostPhase::ProfileFold);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    }
    const double replay = p.phaseSeconds(HostPhase::Replay);
    const double fold = p.phaseSeconds(HostPhase::ProfileFold);
    EXPECT_GT(replay, 0.0);
    EXPECT_GT(fold, 0.0);
    // Self time: the inner phase's wall time must not also be
    // counted in the outer phase, so the sum stays close to the
    // total elapsed wall time rather than double it.
    const HostProfile s = p.snapshot(0.0);
    EXPECT_NEAR(s.totalSeconds, replay + fold, 1e-12);
}

TEST_F(ProfilerFixture, SnapshotDerivesThroughput)
{
    HostProfiler &p = hostProfiler();
    p.addPhaseNanos(HostPhase::Replay, 2000000000); // 2 s
    p.addPhaseNanos(HostPhase::TraceRecord, 500000000); // 0.5 s
    p.addReplaySlots(4000000);
    p.addTraceRecords(1000000);
    p.noteTaskletTraceBytes(1000);
    p.noteTaskletTraceBytes(5000);
    p.noteTaskletTraceBytes(2000); // high-water stays at 5000

    const HostProfile s = p.snapshot(0.001);
    EXPECT_DOUBLE_EQ(s.totalSeconds, 2.5);
    EXPECT_DOUBLE_EQ(s.replaySlotsPerSec, 2000000.0);
    EXPECT_DOUBLE_EQ(s.traceRecordsPerSec, 2000000.0);
    EXPECT_EQ(s.taskletTraceBytesPeak, 5000u);
    EXPECT_DOUBLE_EQ(s.slowdownFactor, 2500.0);
    EXPECT_DOUBLE_EQ(s.modelSeconds, 0.001);
}

TEST_F(ProfilerFixture, SnapshotWithZeroModelTimeHasNoSlowdown)
{
    hostProfiler().addPhaseNanos(HostPhase::Replay, 1000000000);
    const HostProfile s = hostProfiler().snapshot(0.0);
    EXPECT_DOUBLE_EQ(s.slowdownFactor, 0.0);
}

TEST_F(ProfilerFixture, ConcurrentTimersAggregateAcrossThreads)
{
    constexpr int kThreads = 8;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([] {
            for (int i = 0; i < 100; ++i)
                hostProfiler().addPhaseNanos(HostPhase::Replay,
                                             1000000);
        });
    for (auto &t : pool)
        t.join();
    EXPECT_DOUBLE_EQ(hostProfiler().phaseSeconds(HostPhase::Replay),
                     kThreads * 100 * 1e-3);
    EXPECT_EQ(hostProfiler().phaseCalls(HostPhase::Replay),
              static_cast<std::uint64_t>(kThreads) * 100u);
}

TEST_F(ProfilerFixture, PublishWritesMetricsAndTraceEvent)
{
    MetricsRegistry &m = metrics();
    Tracer &t = tracer();
    const bool metricsWere = m.enabled();
    const bool tracerWas = t.enabled();
    m.clear();
    m.setEnabled(true);
    t.clear();
    t.setEnabled(true);

    hostProfiler().addPhaseNanos(HostPhase::Replay, 1000000000);
    hostProfiler().addReplaySlots(3000000);
    const HostProfile s = publishHostProfile(0.0005);

    EXPECT_DOUBLE_EQ(m.scalarValue("host.total_seconds"), 1.0);
    EXPECT_DOUBLE_EQ(m.scalarValue("host.phase.replay.seconds"),
                     1.0);
    EXPECT_DOUBLE_EQ(m.scalarValue("host.replay_slots_per_sec"),
                     3000000.0);
    EXPECT_DOUBLE_EQ(m.scalarValue("host.slowdown_factor"), 2000.0);
    EXPECT_DOUBLE_EQ(s.slowdownFactor, 2000.0);

    bool sawEvent = false;
    for (const TraceEvent &e : t.events())
        if (e.name == "host_profile" && e.phase == 'i') {
            sawEvent = true;
            bool sawReplay = false;
            JsonWriter w;
            w.beginObject();
            for (const TraceArg &a : e.args) {
                if (a.key == "replay_seconds")
                    sawReplay = true;
                w.key(a.key).rawValue(a.json);
            }
            w.endObject();
            EXPECT_TRUE(sawReplay);

            // The args read back through the host list give the
            // published snapshot, field for field.
            JsonValue args;
            ASSERT_TRUE(JsonValue::parse(w.str(), args));
            HostProfile back;
            ASSERT_TRUE(readFields(args, back, kHostFields, nullptr));
            for (const JsonField<HostProfile> &f : kHostFields)
                EXPECT_EQ(encodeValue(f.at(back)), encodeValue(f.at(s)))
                    << f.key;
        }
    EXPECT_TRUE(sawEvent);

    m.clear();
    m.setEnabled(metricsWere);
    t.clear();
    t.setEnabled(tracerWas);
}

TEST(HostProfile, AddSumsTotalsAndKeepsBytePeaks)
{
    constexpr auto replay = static_cast<unsigned>(HostPhase::Replay);
    HostProfile a;
    a.phaseSeconds[replay] = 2.0;
    a.totalSeconds = 2.0;
    a.modelSeconds = 0.001;
    a.replaySlots = 4000000;
    a.peakRssBytes = 300;
    a.taskletTraceBytesPeak = 50;
    HostProfile b = a;
    b.phaseSeconds[replay] = 1.0;
    b.totalSeconds = 1.0;
    b.peakRssBytes = 200;
    b.taskletTraceBytesPeak = 70;

    HostProfile sum;
    sum.add(a);
    sum.add(b);
    EXPECT_DOUBLE_EQ(sum.phaseSeconds[replay], 3.0);
    EXPECT_DOUBLE_EQ(sum.totalSeconds, 3.0);
    EXPECT_DOUBLE_EQ(sum.modelSeconds, 0.002);
    EXPECT_EQ(sum.replaySlots, 8000000u);
    EXPECT_EQ(sum.peakRssBytes, 300u);
    EXPECT_EQ(sum.taskletTraceBytesPeak, 70u);
    // The rates come from the sums, not from either window.
    EXPECT_DOUBLE_EQ(sum.replaySlotsPerSec, 8000000.0 / 3.0);
    EXPECT_DOUBLE_EQ(sum.slowdownFactor, 1500.0);
}

TEST(HostProfiler, PhaseNamesAreStable)
{
    EXPECT_STREQ(hostPhaseName(HostPhase::PartitionBuild),
                 "partition_build");
    EXPECT_STREQ(hostPhaseName(HostPhase::TraceRecord),
                 "trace_record");
    EXPECT_STREQ(hostPhaseName(HostPhase::Replay), "replay");
    EXPECT_STREQ(hostPhaseName(HostPhase::ProfileFold),
                 "profile_fold");
    EXPECT_STREQ(hostPhaseName(HostPhase::TransferModel),
                 "transfer_model");
    EXPECT_STREQ(hostPhaseName(HostPhase::HostMerge), "host_merge");
    EXPECT_STREQ(hostPhaseName(HostPhase::Analysis), "analysis");
}
