/** @file System facade: launches, aggregation, kernel time, the
 * launch-observer seam and its requirements, known (idle) profiles,
 * copies that outlive their original, and launches nested in a
 * DPU's generator. */

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/capture.hh"
#include "common/random.hh"
#include "core/spmspv.hh"
#include "expect_profile.hh"
#include "sparse/generators.hh"
#include "telemetry/host_prof.hh"
#include "upmem/upmem_system.hh"

using namespace alphapim;
using namespace alphapim::upmem;

namespace
{

SystemConfig
smallConfig(unsigned dpus, unsigned tasklets = 4)
{
    SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.dpu.tasklets = tasklets;
    return cfg;
}

/** Records every hook call under the given requirements (by default,
 * every DPU's traces). */
class FakeObserver : public LaunchObserver
{
  public:
    explicit FakeObserver(unsigned requirements = TracesOfEveryDpu)
        : requirements_(requirements)
    {
    }

    unsigned requirements() const override { return requirements_; }

    void
    onLaunchBegin(const LaunchInfo &info, unsigned num_dpus) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        kernels.push_back(info.kernel);
        if (tracedPerDpu.size() < num_dpus)
            tracedPerDpu.resize(num_dpus, 0);
    }

    void
    onDpuTraces(unsigned dpu, const std::vector<TaskletTrace> &,
                const DpuConfig &) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++tracedPerDpu.at(dpu);
        tracedOrder.push_back(dpu);
    }

    void
    onLaunchEnd(const LaunchInfo &, const std::vector<DpuProfile> &profiles,
                const DpuConfig &) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++ends;
        lastProfiles = profiles;
    }

    std::vector<std::string> kernels; ///< one per begun launch
    std::vector<unsigned> tracedPerDpu;
    std::vector<unsigned> tracedOrder; ///< DPUs in onDpuTraces order
    unsigned ends = 0;
    std::vector<DpuProfile> lastProfiles;

  private:
    const unsigned requirements_;
    std::mutex mutex_;
};

/** Keeps a copy of every DPU's traces, one entry per launch in the
 * order the launches end. Launches may nest but must not overlap
 * otherwise: the hooks take no lock. */
class TraceKeeper : public LaunchObserver
{
  public:
    using Launch = std::vector<std::vector<TaskletTrace>>; ///< per DPU

    unsigned requirements() const override { return TracesOfEveryDpu; }

    void
    onLaunchBegin(const LaunchInfo &, unsigned num_dpus) override
    {
        open_.emplace_back(num_dpus);
    }

    void
    onDpuTraces(unsigned dpu, const std::vector<TaskletTrace> &traces,
                const DpuConfig &) override
    {
        open_.back()[dpu] = traces;
    }

    void
    onLaunchEnd(const LaunchInfo &, const std::vector<DpuProfile> &,
                const DpuConfig &) override
    {
        ended.push_back(std::move(open_.back()));
        open_.pop_back();
    }

    std::vector<Launch> ended;

  private:
    std::vector<Launch> open_;
};

void
expectSameTraces(const TraceKeeper::Launch &want,
                 const TraceKeeper::Launch &got)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t d = 0; d < want.size(); ++d) {
        ASSERT_EQ(got[d].size(), want[d].size()) << "dpu " << d;
        for (std::size_t t = 0; t < want[d].size(); ++t) {
            const auto &w = want[d][t].records();
            const auto &g = got[d][t].records();
            ASSERT_EQ(g.size(), w.size()) << "dpu " << d << " tasklet " << t;
            for (std::size_t i = 0; i < w.size(); ++i) {
                EXPECT_TRUE(g[i].kind == w[i].kind && g[i].cls == w[i].cls &&
                            g[i].count == w[i].count &&
                            g[i].arg == w[i].arg && g[i].addr == w[i].addr)
                    << "dpu " << d << " tasklet " << t << " record " << i;
            }
        }
    }
}

/** A kernel whose DPU `d` issues 10 * (d + 1) adds. */
void
staircase(unsigned dpu, std::vector<TaskletTrace> &traces)
{
    traces[0].ops(OpClass::IntAdd, 10 * (dpu + 1));
}

/** A profile no staircase DPU replays to. */
DpuProfile
knownProfile()
{
    DpuProfile p;
    p.totalCycles = 7;
    return p;
}

/** Every DPU but the first has `profile` known, as the idle DPUs of a
 * sparse-frontier launch do. */
KnownProfiles
knownAfterFirst(unsigned dpus, const DpuProfile &profile)
{
    KnownProfiles known;
    known.profiles.assign(dpus, &profile);
    known.profiles[0] = nullptr;
    return known;
}

} // namespace

TEST(UpmemSystem, LaunchAggregatesAcrossDpus)
{
    UpmemSystem sys(smallConfig(16));
    const auto profile = sys.launchKernel(
        16, [](unsigned dpu, std::vector<TaskletTrace> &traces) {
            traces[0].ops(OpClass::IntAdd, 10 * (dpu + 1));
        });
    // Slowest DPU has 160 adds.
    EXPECT_EQ(profile.aggregate.instrByClass[static_cast<std::size_t>(
                  OpClass::IntAdd)],
              10u * (16 * 17 / 2));
    EXPECT_EQ(profile.activeDpus, 16u);
    EXPECT_GT(profile.maxCycles, 0u);
}

TEST(UpmemSystem, KernelSecondsUsesClockAndOverhead)
{
    auto cfg = smallConfig(4);
    cfg.kernelLaunchOverhead = 1e-3;
    UpmemSystem sys(cfg);
    LaunchProfile profile;
    profile.maxCycles = 350'000; // 1 ms at 350 MHz
    EXPECT_NEAR(sys.kernelSeconds(profile), 2e-3, 1e-9);
}

TEST(UpmemSystem, GeneratorSeesEveryDpuExactlyOnce)
{
    UpmemSystem sys(smallConfig(64));
    std::vector<std::atomic<int>> hits(64);
    sys.launchKernel(64,
                     [&](unsigned dpu, std::vector<TaskletTrace> &) {
                         hits[dpu].fetch_add(1);
                     });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(UpmemSystem, TraceVectorPreSizedToTasklets)
{
    UpmemSystem sys(smallConfig(2, 7));
    sys.launchKernel(2,
                     [&](unsigned, std::vector<TaskletTrace> &traces) {
                         EXPECT_EQ(traces.size(), 7u);
                     });
}

TEST(UpmemSystem, LaunchNestedInGenerateMatchesAFreshLaunch)
{
    // Launches of fewer than four DPUs run serially on their caller,
    // so the nested DPUs record on the thread whose trace set the
    // outer DPU is still filling.
    const auto keeper = std::make_shared<TraceKeeper>();
    const UpmemSystem sys(smallConfig(4), {keeper});
    const auto inner = [](unsigned dpu, std::vector<TaskletTrace> &traces) {
        for (unsigned t = 0; t < traces.size(); ++t) {
            traces[t].ops(OpClass::Logic, 9 + dpu + t);
            traces[t].dmaRead(64);
        }
    };
    const auto half = [](unsigned dpu, std::vector<TaskletTrace> &traces,
                         OpClass cls) {
        for (unsigned t = 0; t < traces.size(); ++t)
            traces[t].ops(cls, 20 + 3 * dpu + t);
    };

    const LaunchProfile fresh_inner = sys.launchKernel(3, inner);
    const LaunchProfile fresh_outer = sys.launchKernel(
        2, [&](unsigned dpu, std::vector<TaskletTrace> &traces) {
            half(dpu, traces, OpClass::IntAdd);
            half(dpu, traces, OpClass::Compare);
        });
    std::vector<LaunchProfile> nested_inner;
    const LaunchProfile nested_outer = sys.launchKernel(
        2, [&](unsigned dpu, std::vector<TaskletTrace> &traces) {
            half(dpu, traces, OpClass::IntAdd);
            nested_inner.push_back(sys.launchKernel(3, inner));
            half(dpu, traces, OpClass::Compare);
        });

    // Ended: fresh inner, fresh outer, one nested inner per outer DPU,
    // then the nested outer.
    ASSERT_EQ(keeper->ended.size(), 5u);
    ASSERT_EQ(nested_inner.size(), 2u);
    for (unsigned i = 0; i < 2; ++i) {
        expectSameTraces(keeper->ended[0], keeper->ended[2 + i]);
        expectSameProfile(fresh_inner.aggregate, nested_inner[i].aggregate,
                          "nested inner launch " + std::to_string(i));
        EXPECT_EQ(nested_inner[i].maxCycles, fresh_inner.maxCycles);
    }
    expectSameTraces(keeper->ended[1], keeper->ended[4]);
    expectSameProfile(fresh_outer.aggregate, nested_outer.aggregate,
                      "outer launch");
    EXPECT_EQ(nested_outer.maxCycles, fresh_outer.maxCycles);
}

TEST(UpmemSystemDeath, TooManyDpusRequested)
{
    UpmemSystem sys(smallConfig(4));
    EXPECT_DEATH(sys.launchKernel(
                     8, [](unsigned, std::vector<TaskletTrace> &) {}),
                 "more DPUs");
}

TEST(UpmemSystemDeath, TaskletsAboveTheSchedulerCeiling)
{
    auto cfg = smallConfig(4, taskletCeiling + 8);
    cfg.dpu.maxTasklets = cfg.dpu.tasklets;
    EXPECT_DEATH(UpmemSystem{cfg}, "tasklet ceiling");
}

TEST(UpmemSystem, CopyOutlivesItsOriginal)
{
    const UpmemSystem reference(smallConfig(16));
    auto original = std::make_unique<UpmemSystem>(smallConfig(16));
    const UpmemSystem copy = *original;
    original.reset();
    // A system with other costs is likely to land in the freed slot,
    // so a copy still reading the original's configs would see them.
    auto other = smallConfig(16);
    other.transfer.launchLatency = 1.0;
    other.host.passOverhead = 1.0;
    const auto reuse = std::make_unique<UpmemSystem>(other);
    EXPECT_EQ(copy.transfer().broadcast(4096, 16),
              reference.transfer().broadcast(4096, 16));
    EXPECT_EQ(copy.host().mergeTime(4096, 1000),
              reference.host().mergeTime(4096, 1000));
    // The copy shares the original's workers and keeps them alive.
    const LaunchProfile launched = copy.launchKernel(16, staircase);
    EXPECT_EQ(launched.maxCycles,
              reference.launchKernel(16, staircase).maxCycles);
    EXPECT_EQ(launched.activeDpus, 16u);
}

TEST(LaunchObserver, HooksFireOncePerDpuAndOncePerLaunch)
{
    const auto obs = std::make_shared<FakeObserver>();
    const UpmemSystem sys(smallConfig(16), {obs});
    sys.launchKernel(16, staircase, {"CSC-2D", {}});
    sys.launchKernel(16, staircase);
    sys.launchKernel(8, staircase);
    EXPECT_EQ(obs->kernels,
              (std::vector<std::string>{"CSC-2D", "", ""}));
    EXPECT_EQ(obs->ends, 3u);
    ASSERT_EQ(obs->tracedPerDpu.size(), 16u);
    for (unsigned d = 0; d < 16; ++d)
        EXPECT_EQ(obs->tracedPerDpu[d], d < 8 ? 3u : 2u) << "dpu " << d;
}

TEST(LaunchObserver, EndHookProfilesFoldToTheLaunchProfile)
{
    const auto obs = std::make_shared<FakeObserver>();
    const UpmemSystem sys(smallConfig(16), {obs});
    const LaunchProfile launch = sys.launchKernel(16, staircase);
    ASSERT_EQ(obs->lastProfiles.size(), 16u);
    LaunchProfile folded;
    for (const DpuProfile &p : obs->lastProfiles)
        folded.add(p);
    EXPECT_EQ(folded.maxCycles, launch.maxCycles);
    EXPECT_EQ(folded.activeDpus, launch.activeDpus);
    EXPECT_EQ(folded.aggregate.totalCycles, launch.aggregate.totalCycles);
    EXPECT_EQ(folded.aggregate.issuedCycles,
              launch.aggregate.issuedCycles);
    EXPECT_EQ(folded.aggregate.instrByClass,
              launch.aggregate.instrByClass);
    EXPECT_EQ(folded.aggregate.stallCycles, launch.aggregate.stallCycles);
}

TEST(LaunchObserver, NonReplayingObserverZeroesTimingNotOutput)
{
    const UpmemSystem timed(smallConfig(8));
    const UpmemSystem untimed(
        smallConfig(8), {std::make_shared<FakeObserver>(
                            LaunchObserver::TracesOfEveryDpu |
                            LaunchObserver::NoReplay)});
    std::vector<unsigned> out_timed(8), out_untimed(8);
    const auto kernel = [](std::vector<unsigned> &out) {
        return [&out](unsigned dpu, std::vector<TaskletTrace> &traces) {
            out[dpu] = dpu * dpu;
            staircase(dpu, traces);
        };
    };
    const LaunchProfile a = timed.launchKernel(8, kernel(out_timed));
    const LaunchProfile b = untimed.launchKernel(8, kernel(out_untimed));
    EXPECT_GT(a.maxCycles, 0u);
    EXPECT_EQ(b.maxCycles, 0u);
    EXPECT_EQ(b.aggregate.totalCycles, 0u);
    EXPECT_EQ(out_untimed, out_timed);
}

TEST(LaunchObserver, SystemsSeeOnlyTheirOwnLaunches)
{
    const auto obs_a = std::make_shared<FakeObserver>();
    const auto obs_b = std::make_shared<FakeObserver>();
    const UpmemSystem a(smallConfig(4), {obs_a});
    const UpmemSystem b(smallConfig(4), {obs_b});
    a.launchKernel(4, staircase, {"a", {}});
    a.launchKernel(4, staircase, {"a", {}});
    b.launchKernel(2, staircase, {"b", {}});
    EXPECT_EQ(obs_a->kernels, (std::vector<std::string>{"a", "a"}));
    EXPECT_EQ(obs_b->kernels, (std::vector<std::string>{"b"}));
    EXPECT_EQ(obs_a->tracedPerDpu, (std::vector<unsigned>{2, 2, 2, 2}));
    EXPECT_EQ(obs_b->tracedPerDpu, (std::vector<unsigned>{1, 1}));
}

TEST(LaunchObserver, TraceAskingObserverSeesEveryDpuOnce)
{
    const auto obs = std::make_shared<FakeObserver>();
    const UpmemSystem sys(smallConfig(16), {obs});
    const DpuProfile known = knownProfile();
    std::vector<std::atomic<int>> hits(16);
    sys.launchKernel(
        16,
        [&](unsigned dpu, std::vector<TaskletTrace> &traces) {
            hits[dpu].fetch_add(1);
            staircase(dpu, traces);
        },
        {}, knownAfterFirst(16, known));
    const std::vector<DpuProfile> replayed = obs->lastProfiles;
    sys.launchKernel(16, staircase);
    ASSERT_EQ(obs->tracedPerDpu.size(), 16u);
    for (unsigned d = 0; d < 16; ++d) {
        EXPECT_EQ(hits[d].load(), 1) << "dpu " << d;
        EXPECT_EQ(obs->tracedPerDpu[d], 2u) << "dpu " << d;
        // Simulated, so replayed: the known profile is not taken.
        EXPECT_EQ(replayed[d].totalCycles,
                  obs->lastProfiles[d].totalCycles)
            << "dpu " << d;
    }
}

TEST(LaunchObserver, KnownProfilesSkipRecordingAndReplay)
{
    const DpuProfile known = knownProfile();
    for (const unsigned requirements :
         {0u, unsigned{LaunchObserver::NoReplay}}) {
        const bool replaying = requirements == 0;
        const auto obs = std::make_shared<FakeObserver>(requirements);
        const UpmemSystem sys(smallConfig(16), {obs});
        std::vector<std::atomic<int>> hits(16);
        const LaunchProfile launch = sys.launchKernel(
            16,
            [&](unsigned dpu, std::vector<TaskletTrace> &traces) {
                hits[dpu].fetch_add(1);
                staircase(dpu, traces);
            },
            {}, knownAfterFirst(16, known));
        ASSERT_EQ(obs->lastProfiles.size(), 16u);
        EXPECT_EQ(launch.activeDpus, replaying ? 1u : 0u);
        for (unsigned d = 0; d < 16; ++d) {
            EXPECT_EQ(hits[d].load(), d == 0 ? 1 : 0) << "dpu " << d;
            EXPECT_EQ(obs->tracedPerDpu[d], d == 0 ? 1u : 0u)
                << "dpu " << d;
            if (d > 0) {
                // Taken as is, or zero like every profile without
                // replay.
                EXPECT_EQ(obs->lastProfiles[d].totalCycles,
                          replaying ? known.totalCycles : 0u)
                    << "dpu " << d;
            }
        }
        EXPECT_EQ(obs->lastProfiles[0].totalCycles > 0, replaying);
    }
}

namespace
{

/**
 * The order in which one launch of `dpus` DPUs records its DPUs, on a
 * system whose observer has `requirements`. `weights` as in
 * KnownProfiles; DPUs with weight 0 have a known profile. Launches
 * of under four items run serially on the caller, in item order.
 */
std::vector<unsigned>
recordedOrder(unsigned requirements, unsigned dpus,
              std::vector<std::uint64_t> weights, bool pass_weights = true)
{
    const DpuProfile idle = knownProfile();
    const auto obs = std::make_shared<FakeObserver>(requirements);
    const UpmemSystem sys(smallConfig(dpus), {obs});
    KnownProfiles known;
    for (const std::uint64_t w : weights)
        known.profiles.push_back(w == 0 ? &idle : nullptr);
    if (pass_weights)
        known.weights = std::move(weights);
    sys.launchKernel(dpus, staircase, {}, known);
    return obs->tracedOrder;
}

} // namespace

TEST(LaunchOrder, BusyDpusRunHeaviestFirst)
{
    using Order = std::vector<unsigned>;
    EXPECT_EQ(recordedOrder(0, 8, {2, 0, 9, 0, 0, 5, 0, 0}),
              (Order{2, 5, 0}));
    // A stable sort: ties stay in DPU order.
    EXPECT_EQ(recordedOrder(0, 8, {4, 0, 4, 0, 0, 9, 0, 0}),
              (Order{5, 0, 2}));
    EXPECT_EQ(recordedOrder(0, 3, {1, 2, 3}), (Order{2, 1, 0}));
}

TEST(LaunchOrder, NoWeightsKeepDpuOrder)
{
    EXPECT_EQ(recordedOrder(0, 8, {2, 0, 9, 0, 0, 5, 0, 0}, false),
              (std::vector<unsigned>{0, 2, 5}));
}

TEST(LaunchOrder, TracesOfEveryDpuKeepDpuOrder)
{
    // Every DPU is recorded, idle or not, in DPU order, so the trace
    // checker and the capture see what they saw before weights.
    EXPECT_EQ(recordedOrder(LaunchObserver::TracesOfEveryDpu, 3, {1, 0, 3}),
              (std::vector<unsigned>{0, 1, 2}));
    EXPECT_EQ(recordedOrder(LaunchObserver::TracesOfEveryDpu, 3, {1, 2, 3}),
              (std::vector<unsigned>{0, 1, 2}));
}

TEST(LaunchObserver, KnownProfilesWithABodyRunItInsteadOfRecording)
{
    // The SpMV case: every known DPU still computes its outputs, on
    // the pool, and takes its profile without being recorded. The
    // launch hands every profile back.
    const DpuProfile known = knownProfile();
    const auto obs = std::make_shared<FakeObserver>(0u);
    const UpmemSystem sys(smallConfig(16), {obs});
    std::vector<std::atomic<int>> generated(16), computed(16);
    KnownProfiles with_body = knownAfterFirst(16, known);
    with_body.compute = [&](unsigned dpu) { computed[dpu].fetch_add(1); };
    std::vector<DpuProfile> profiles;
    const LaunchProfile launch = sys.launchKernel(
        16,
        [&](unsigned dpu, std::vector<TaskletTrace> &traces) {
            generated[dpu].fetch_add(1);
            staircase(dpu, traces);
        },
        {}, with_body, &profiles);
    ASSERT_EQ(profiles.size(), 16u);
    EXPECT_EQ(launch.maxCycles, profiles[0].totalCycles);
    for (unsigned d = 0; d < 16; ++d) {
        EXPECT_EQ(generated[d].load(), d == 0 ? 1 : 0) << "dpu " << d;
        EXPECT_EQ(computed[d].load(), d == 0 ? 0 : 1) << "dpu " << d;
        EXPECT_EQ(obs->tracedPerDpu[d], d == 0 ? 1u : 0u) << "dpu " << d;
        EXPECT_EQ(profiles[d].totalCycles,
                  obs->lastProfiles[d].totalCycles)
            << "dpu " << d;
        if (d > 0) {
            EXPECT_EQ(profiles[d].totalCycles, known.totalCycles);
        }
    }
}

TEST(LaunchObserver, CaptureRecordsEveryDpuWithReplayOff)
{
    const auto capture = std::make_shared<analysis::TraceCapture>();
    const UpmemSystem sys(smallConfig(16), {capture});
    const DpuProfile known = knownProfile();
    const LaunchProfile launch = sys.launchKernel(
        16, staircase, {}, knownAfterFirst(16, known));
    EXPECT_EQ(launch.maxCycles, 0u);
    EXPECT_EQ(launch.aggregate.totalCycles, 0u);
    const auto launches = capture->take();
    ASSERT_EQ(launches.size(), 1u);
    ASSERT_EQ(launches[0].dpuTraces.size(), 16u);
    for (unsigned d = 0; d < 16; ++d) {
        ASSERT_EQ(launches[0].dpuTraces[d].size(), 4u) << "dpu " << d;
        EXPECT_FALSE(launches[0].dpuTraces[d][0].records().empty())
            << "dpu " << d;
    }
}

TEST(LaunchObserver, HostProfilerCountsOnlyRecordedDpus)
{
    // A one-vertex frontier of a CSC-2D launch: the DPUs that get no
    // update take the kernel's cached profile unless an observer
    // asks for every DPU's traces.
    Rng rng(3);
    const auto adj = sparse::edgeListToSymmetricCoo(
        sparse::generateScaleMatched(400, 8, 30, rng));
    sparse::SparseVector<float> x(adj.numRows());
    x.append(adj.colAt(0), 1.0f);
    const auto countLaunch = [&](unsigned requirements,
                                 LaunchProfile &profile) {
        const UpmemSystem sys(smallConfig(16, 16),
                              {std::make_shared<FakeObserver>(requirements)});
        const core::CscSpmspv<core::PlusTimes> kernel(sys, adj, 16,
                                                      core::CscMode::Grid);
        auto &prof = telemetry::hostProfiler();
        prof.reset();
        prof.setEnabled(true);
        profile = kernel.run(x).profile;
        const telemetry::HostProfile host = prof.snapshot(0.0);
        prof.setEnabled(false);
        prof.reset();
        return std::pair{host.traceRecords, host.replaySlots};
    };
    LaunchProfile all, busy;
    const auto [all_records, all_slots] =
        countLaunch(LaunchObserver::TracesOfEveryDpu, all);
    const auto [busy_records, busy_slots] = countLaunch(0, busy);
    EXPECT_GT(busy_records, 0u);
    EXPECT_LT(busy_records, all_records);
    EXPECT_LT(busy_slots, all_slots);
    EXPECT_EQ(busy.maxCycles, all.maxCycles);
    EXPECT_EQ(busy.aggregate.totalCycles, all.aggregate.totalCycles);
    EXPECT_EQ(busy.activeDpus, all.activeDpus);
}

TEST(LaunchProfileTest, SequentialLaunchesAccumulate)
{
    LaunchProfile a, b;
    DpuProfile d;
    d.totalCycles = 100;
    d.issuedCycles = 80;
    a.add(d);
    b.add(d);
    a.add(b);
    EXPECT_EQ(a.maxCycles, 200u);
    EXPECT_EQ(a.aggregate.totalCycles, 200u);
    EXPECT_EQ(a.aggregate.issuedCycles, 160u);
}
