/** @file System facade: launches, aggregation, kernel time, the
 * launch-observer seam, and copies that outlive their original. */

#include <atomic>
#include <memory>
#include <mutex>

#include <gtest/gtest.h>

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

/** Records every hook call; optionally turns replay off. */
class FakeObserver : public LaunchObserver
{
  public:
    explicit FakeObserver(bool replay = true) : replay_(replay) {}

    bool replays() const override { return replay_; }

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
    unsigned ends = 0;
    std::vector<DpuProfile> lastProfiles;

  private:
    const bool replay_;
    std::mutex mutex_;
};

/** A kernel whose DPU `d` issues 10 * (d + 1) adds. */
void
staircase(unsigned dpu, std::vector<TaskletTrace> &traces)
{
    traces[0].ops(OpClass::IntAdd, 10 * (dpu + 1));
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
    const UpmemSystem untimed(smallConfig(8),
                              {std::make_shared<FakeObserver>(false)});
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
