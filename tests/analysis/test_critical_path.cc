/**
 * @file
 * Critical-path and what-if estimator tests: the launch chain of a
 * synthetic timeline, whose attribution must sum to total model
 * time, where the path ends when the last phases take no time, and
 * the three overlap bounds evaluated on pencil-and-paper launch
 * sequences.
 */

#include <vector>

#include <gtest/gtest.h>

#include "analysis/critical_path.hh"
#include "telemetry/timeline.hh"

using namespace alphapim;
using namespace alphapim::analysis;
using namespace alphapim::telemetry;

namespace
{

TimelineSpan
span(const char *name, const char *category, std::uint32_t pid,
     std::uint32_t tid, Seconds start, Seconds duration)
{
    TimelineSpan s;
    s.name = name;
    s.category = category;
    s.pid = pid;
    s.tid = tid;
    s.start = start;
    s.duration = duration;
    return s;
}

/** Two launches, [0, 10) and [10, 20): load 2, kernel 3,
 * retrieve 1, merge 4 each, with one rank span per transfer phase
 * and one DPU span per kernel phase. */
Timeline
twoLaunchTimeline()
{
    std::vector<TimelineSpan> spans;
    for (int k = 0; k < 2; ++k) {
        const Seconds t0 = 10.0 * k;
        spans.push_back(
            span("spmv", "multiply", pidEngine, 0, t0, 10.0));
        spans.push_back(
            span("load", "phase", pidEngine, 0, t0, 2.0));
        spans.push_back(
            span("kernel", "phase", pidEngine, 0, t0 + 2.0, 3.0));
        spans.push_back(
            span("retrieve", "phase", pidEngine, 0, t0 + 5.0, 1.0));
        spans.push_back(
            span("merge", "phase", pidEngine, 0, t0 + 6.0, 4.0));
        spans.push_back(
            span("scatter", "xfer", pidRank, 0, t0, 2.0));
        spans.push_back(
            span("kernel", "dpu", pidDpu, 0, t0 + 2.0, 3.0));
        spans.push_back(
            span("gather", "xfer", pidRank, 0, t0 + 5.0, 1.0));
    }
    return buildTimeline(spans);
}

/** A launch window with the given phase durations. */
LaunchWindow
window(Seconds load, Seconds kernel, Seconds retrieve, Seconds merge)
{
    LaunchWindow l;
    l.load = load;
    l.kernel_time = kernel;
    l.retrieve = retrieve;
    l.merge = merge;
    return l;
}

} // namespace

TEST(CriticalPath, EmptyLaunchListYieldsEmptyPath)
{
    const CriticalPath path = criticalPath({});
    EXPECT_DOUBLE_EQ(path.length, 0.0);
    EXPECT_EQ(path.nodes, 0u);
    EXPECT_DOUBLE_EQ(path.transferFraction(), 0.0);
}

TEST(CriticalPath, LaunchSpineAttributionSumsToModelTime)
{
    const Timeline tl = twoLaunchTimeline();
    ASSERT_EQ(tl.launches.size(), 2u);
    const CriticalPath path = criticalPath(tl.launches);

    // The spine with strict barriers *is* the serial model time, and
    // the per-phase attribution must account for every second of it.
    EXPECT_NEAR(path.length, tl.accountedSeconds(), 1e-12);
    EXPECT_EQ(path.nodes, 8u);
    Seconds phase_sum = 0.0;
    for (std::size_t p = 0; p < numPathPhases; ++p)
        phase_sum += path.phaseSeconds[p];
    EXPECT_NEAR(phase_sum, path.length, 1e-12);
    EXPECT_DOUBLE_EQ(
        path.phaseSeconds[static_cast<std::size_t>(PathPhase::Kernel)],
        6.0);
    // load 2 + retrieve 1 of each 10s launch: transfers own 30%.
    EXPECT_NEAR(path.transferFraction(), 0.3, 1e-12);
}

TEST(CriticalPath, TrailingZeroPhasesAreOffThePath)
{
    // Launch 0 ends in a merge that took no time and launch 1 took
    // none at all: the path stops at launch 0's retrieve.
    const std::vector<LaunchWindow> launches{
        window(2.0, 3.0, 1.0, 0.0), window(0.0, 0.0, 0.0, 0.0)};
    const CriticalPath path = criticalPath(launches);
    EXPECT_DOUBLE_EQ(path.length, 6.0);
    EXPECT_EQ(path.nodes, 3u);
    EXPECT_DOUBLE_EQ(path.phaseFraction(PathPhase::Merge), 0.0);
    EXPECT_DOUBLE_EQ(path.transferFraction(), 0.5);
}

TEST(WhatIf, HandComputedBoundsForTwoLaunches)
{
    // Two launches of load 2, kernel 3, retrieve 1, merge 4:
    //   serial        = 2 * (2+3+1+4)            = 20
    //   rank overlap  = 2 * (max(3, 2+1) + 4)    = 14
    //   double buffer = 2 + 2*(3+1) + max(4,2) + 4 = 18
    //   combined      = max(6, 6, 8)             = 8
    const std::vector<LaunchWindow> launches(
        2, window(2.0, 3.0, 1.0, 4.0));
    const WhatIf w = estimateOverlap(launches);
    EXPECT_DOUBLE_EQ(w.serialSeconds, 20.0);
    EXPECT_DOUBLE_EQ(w.rankOverlapSeconds, 14.0);
    EXPECT_DOUBLE_EQ(w.doubleBufferSeconds, 18.0);
    EXPECT_DOUBLE_EQ(w.combinedSeconds, 8.0);
    EXPECT_DOUBLE_EQ(w.rankOverlapSpeedup(), 20.0 / 14.0);
    EXPECT_DOUBLE_EQ(w.doubleBufferSpeedup(), 20.0 / 18.0);
    EXPECT_DOUBLE_EQ(w.combinedSpeedup(), 2.5);
}

TEST(WhatIf, SingleLaunchHasNoDoubleBufferWin)
{
    // One launch {1, 2, 3, 4}: nothing to pipeline across
    // iterations, so double buffering changes nothing.
    const std::vector<LaunchWindow> launches{
        window(1.0, 2.0, 3.0, 4.0)};
    const WhatIf w = estimateOverlap(launches);
    EXPECT_DOUBLE_EQ(w.serialSeconds, 10.0);
    EXPECT_DOUBLE_EQ(w.rankOverlapSeconds, 8.0);
    EXPECT_DOUBLE_EQ(w.doubleBufferSeconds, 10.0);
    EXPECT_DOUBLE_EQ(w.combinedSeconds, 4.0);
    EXPECT_DOUBLE_EQ(w.doubleBufferSpeedup(), 1.0);
}

TEST(WhatIf, EmptyLaunchSequenceIsNeutral)
{
    const WhatIf w = estimateOverlap({});
    EXPECT_DOUBLE_EQ(w.serialSeconds, 0.0);
    EXPECT_DOUBLE_EQ(w.rankOverlapSpeedup(), 1.0);
    EXPECT_DOUBLE_EQ(w.doubleBufferSpeedup(), 1.0);
    EXPECT_DOUBLE_EQ(w.combinedSpeedup(), 1.0);
}

TEST(WhatIf, BoundOrderingAlwaysHolds)
{
    // combined <= rank overlap <= serial, double buffer <= serial.
    const std::vector<LaunchWindow> launches{
        window(0.5, 4.0, 0.25, 1.0), window(2.0, 1.0, 2.0, 0.5),
        window(1.0, 1.0, 1.0, 1.0)};
    const WhatIf w = estimateOverlap(launches);
    EXPECT_LE(w.combinedSeconds, w.rankOverlapSeconds);
    EXPECT_LE(w.rankOverlapSeconds, w.serialSeconds);
    EXPECT_LE(w.doubleBufferSeconds, w.serialSeconds);
    EXPECT_GT(w.combinedSeconds, 0.0);
}
