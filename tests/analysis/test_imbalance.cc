/**
 * @file
 * Load-imbalance & roofline observatory tests: skew statistics
 * (Gini, CoV, percentile tail) on known distributions, straggler
 * identification and its stall / partition-share attribution, the
 * roofline classification on both sides of the ridge, and the
 * observer's LaunchInfo join and run aggregation.
 */

#include <gtest/gtest.h>

#include "analysis/imbalance.hh"

using namespace alphapim;
using namespace alphapim::analysis;

namespace
{

upmem::DpuProfile
dpu(Cycles total, Cycles issued, Cycles mem_stall, Cycles sync_stall,
    std::uint64_t instr, Bytes mram)
{
    upmem::DpuProfile p;
    p.totalCycles = total;
    p.issuedCycles = issued;
    p.stallCycles[static_cast<std::size_t>(
        upmem::StallReason::Memory)] = mem_stall;
    p.stallCycles[static_cast<std::size_t>(
        upmem::StallReason::Sync)] = sync_stall;
    p.instrByClass[static_cast<std::size_t>(upmem::OpClass::IntAdd)] =
        instr;
    p.mramReadBytes = mram;
    p.activeThreadCycles = static_cast<double>(total) * 8.0;
    return p;
}

sparse::PartitionShare
share(std::uint64_t rows, std::uint64_t nnz, Bytes bytes)
{
    sparse::PartitionShare s;
    s.rows = rows;
    s.nnz = nnz;
    s.bytes = bytes;
    return s;
}

} // namespace

TEST(SkewStats, LeveledDistributionHasNoSkew)
{
    const SkewStats s = computeSkew({5.0, 5.0, 5.0, 5.0});
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.cov, 0.0);
    EXPECT_DOUBLE_EQ(s.gini, 0.0);
    EXPECT_DOUBLE_EQ(s.maxOverMean(), 1.0);
    EXPECT_DOUBLE_EQ(s.p99OverMean(), 1.0);
}

TEST(SkewStats, GiniOfExtremeConcentration)
{
    // One DPU holds everything: Gini -> (n-1)/n = 0.75 for n = 4.
    const SkewStats s = computeSkew({0.0, 0.0, 0.0, 100.0});
    EXPECT_DOUBLE_EQ(s.gini, 0.75);
    EXPECT_DOUBLE_EQ(s.maxOverMean(), 4.0);
}

TEST(SkewStats, GiniOfKnownTwoPointDistribution)
{
    // {1, 3}: Gini = 2*(1*1 + 2*3)/(2*4) - 3/2 = 0.25.
    const SkewStats s = computeSkew({1.0, 3.0});
    EXPECT_DOUBLE_EQ(s.gini, 0.25);
}

TEST(SkewStats, EmptyAndZeroVectorsAreSafe)
{
    const SkewStats empty = computeSkew({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.maxOverMean(), 1.0);

    const SkewStats zeros = computeSkew({0.0, 0.0});
    EXPECT_DOUBLE_EQ(zeros.gini, 0.0);
    EXPECT_DOUBLE_EQ(zeros.cov, 0.0);
    EXPECT_DOUBLE_EQ(zeros.maxOverMean(), 1.0);
}

TEST(LaunchImbalance, StragglerAttributedToStallAndShare)
{
    // DPU 2 is the straggler: 4x the cycles of its peers, mostly
    // memory-stalled, holding 3x the mean nnz.
    const std::vector<upmem::DpuProfile> profiles = {
        dpu(1000, 800, 100, 50, 800, 4000),
        dpu(1000, 750, 150, 50, 750, 4000),
        dpu(4000, 1100, 2800, 100, 1100, 16000),
        dpu(1000, 700, 200, 50, 700, 4000),
    };
    const std::vector<sparse::PartitionShare> shares = {
        share(100, 500, 8000), share(100, 500, 8000),
        share(100, 1800, 28000), share(100, 200, 4000)};
    const upmem::DpuConfig cfg;
    const LaunchImbalance li =
        computeLaunchImbalance("CSC-2D", profiles, shares, cfg);

    EXPECT_EQ(li.kernel, "CSC-2D");
    EXPECT_EQ(li.dpus, 4u);
    EXPECT_EQ(li.stragglerDpu, 2u);
    // 4000 cycles over a mean of 1750.
    EXPECT_NEAR(li.stragglerCyclesOverMean, 4000.0 / 1750.0, 1e-12);
    EXPECT_EQ(li.stragglerStall, "memory");
    EXPECT_NEAR(li.stragglerStallFraction, 2800.0 / 4000.0, 1e-12);
    // 1800 nnz over a mean share of 750.
    EXPECT_NEAR(li.stragglerNnzOverMean, 1800.0 / 750.0, 1e-12);
    EXPECT_NEAR(li.rebalanceSpeedup, 4000.0 / 1750.0, 1e-12);
    EXPECT_GT(li.cycles.gini, 0.0);
    EXPECT_GT(li.nnz.gini, 0.0);
}

TEST(LaunchImbalance, StragglerTieBreaksToLowestDpu)
{
    const std::vector<upmem::DpuProfile> profiles = {
        dpu(500, 400, 50, 0, 400, 100),
        dpu(900, 700, 100, 0, 700, 100),
        dpu(900, 700, 100, 0, 700, 100),
    };
    const LaunchImbalance li = computeLaunchImbalance(
        "", profiles, {}, upmem::DpuConfig{});
    EXPECT_EQ(li.stragglerDpu, 1u);
}

TEST(LaunchImbalance, MismatchedSharesDisableTheJoin)
{
    const std::vector<upmem::DpuProfile> profiles = {
        dpu(1000, 800, 100, 0, 800, 100),
        dpu(2000, 900, 1000, 0, 900, 100),
    };
    const LaunchImbalance li = computeLaunchImbalance(
        "k", profiles, {share(1, 2, 3)}, upmem::DpuConfig{});
    EXPECT_EQ(li.nnz.count, 0u);
    EXPECT_DOUBLE_EQ(li.stragglerNnzOverMean, 0.0);
}

TEST(LaunchImbalance, IdleDpusCountTowardTheSkew)
{
    // Half the fleet idle: that IS the imbalance.
    const std::vector<upmem::DpuProfile> profiles = {
        dpu(1000, 800, 100, 0, 800, 100), upmem::DpuProfile{},
        dpu(1000, 800, 100, 0, 800, 100), upmem::DpuProfile{}};
    const LaunchImbalance li = computeLaunchImbalance(
        "k", profiles, {}, upmem::DpuConfig{});
    EXPECT_EQ(li.cycles.count, 4u);
    EXPECT_DOUBLE_EQ(li.cycles.maxOverMean(), 2.0);
}

TEST(Roofline, LowIntensityLaunchIsMemoryBound)
{
    upmem::DpuConfig cfg;
    cfg.clockHz = 350e6;
    cfg.dmaBytesPerCycle = 2.0; // ridge at 0.5 instr/byte
    // 100 instructions over 1000 bytes: intensity 0.1 < 0.5.
    const std::vector<upmem::DpuProfile> profiles = {
        dpu(1000, 100, 900, 0, 100, 1000)};
    const LaunchImbalance li =
        computeLaunchImbalance("k", profiles, {}, cfg);
    EXPECT_NEAR(li.roofline.opIntensity, 0.1, 1e-12);
    EXPECT_NEAR(li.roofline.ridgeIntensity, 0.5, 1e-12);
    EXPECT_TRUE(li.roofline.memoryBound);
    // Bandwidth ceiling at this intensity: 0.1 * 1 * 2 * clock.
    EXPECT_NEAR(li.roofline.bandwidthCeilingOpsPerSec,
                0.1 * 2.0 * 350e6, 1e-3);
    // Achieved: 100 instr over 1000 cycles of wall time.
    EXPECT_NEAR(li.roofline.achievedOpsPerSec,
                100.0 / (1000.0 / 350e6), 1e-3);
}

TEST(Roofline, HighIntensityLaunchIsComputeBound)
{
    upmem::DpuConfig cfg;
    cfg.dmaBytesPerCycle = 2.0;
    // 1000 instructions over 100 bytes: intensity 10 > 0.5.
    const std::vector<upmem::DpuProfile> profiles = {
        dpu(2000, 1000, 500, 0, 1000, 100)};
    const LaunchImbalance li =
        computeLaunchImbalance("k", profiles, {}, cfg);
    EXPECT_FALSE(li.roofline.memoryBound);
    EXPECT_NEAR(li.roofline.opIntensity, 10.0, 1e-12);
}

TEST(Roofline, ZeroByteLaunchReportsComputeBoundAtZeroIntensity)
{
    const std::vector<upmem::DpuProfile> profiles = {
        dpu(1000, 800, 100, 0, 800, 0)};
    const LaunchImbalance li = computeLaunchImbalance(
        "k", profiles, {}, upmem::DpuConfig{});
    EXPECT_DOUBLE_EQ(li.roofline.opIntensity, 0.0);
    EXPECT_FALSE(li.roofline.memoryBound);
    EXPECT_DOUBLE_EQ(li.roofline.bandwidthCeilingOpsPerSec,
                     li.roofline.pipelineCeilingOpsPerSec);
}

TEST(ImbalanceObserver, LaunchInfoJoinsItsOwnLaunchOnly)
{
    ImbalanceObserver obs;
    unsigned evaluations = 0;
    const upmem::LaunchInfo info{"CSC-2D", [&] {
                                     ++evaluations;
                                     return std::vector<
                                         sparse::PartitionShare>{
                                         share(10, 100, 800),
                                         share(10, 300, 2400)};
                                 }};
    const std::vector<upmem::DpuProfile> profiles = {
        dpu(1000, 800, 100, 0, 800, 100),
        dpu(3000, 900, 2000, 0, 900, 300)};
    obs.onLaunchEnd(info, profiles, upmem::DpuConfig{});
    obs.onLaunchEnd({}, profiles, upmem::DpuConfig{});

    const auto launches = obs.launches();
    ASSERT_EQ(launches.size(), 2u);
    EXPECT_EQ(evaluations, 1u);
    // The first launch joined its own shares...
    EXPECT_EQ(launches[0].kernel, "CSC-2D");
    EXPECT_EQ(launches[0].nnz.count, 2u);
    EXPECT_NEAR(launches[0].stragglerNnzOverMean, 300.0 / 200.0,
                1e-12);
    // ...the anonymous second one has nothing to join.
    EXPECT_TRUE(launches[1].kernel.empty());
    EXPECT_EQ(launches[1].nnz.count, 0u);
}

TEST(ImbalanceObserver, CollectRunAggregatesStragglerAndBound)
{
    ImbalanceObserver obs;
    obs.beginRun();
    // Launch 1: leveled. Launch 2: DPU 1 straggles 2x.
    obs.onLaunchEnd({},
                    {dpu(1000, 800, 100, 0, 800, 500),
                     dpu(1000, 800, 100, 0, 800, 500)},
                    upmem::DpuConfig{});
    const upmem::LaunchInfo info{"CSC-2D", [] {
                                     return std::vector<
                                         sparse::PartitionShare>{
                                         share(10, 100, 800),
                                         share(10, 300, 2400)};
                                 }};
    obs.onLaunchEnd(info,
                    {dpu(1000, 800, 100, 0, 800, 500),
                     dpu(3000, 900, 2000, 0, 900, 1500)},
                    upmem::DpuConfig{});

    const RunImbalance run = obs.collectRun();
    EXPECT_EQ(run.launches, 2u);
    // Summed max (1000 + 3000) over summed mean (1000 + 2000).
    EXPECT_NEAR(run.stragglerFactor, 4000.0 / 3000.0, 1e-12);
    EXPECT_EQ(run.stragglerKernel, "CSC-2D");
    EXPECT_EQ(run.stragglerDpu, 1u);
    EXPECT_NEAR(run.stragglerCyclesOverMean, 1.5, 1e-12);
    EXPECT_EQ(run.stragglerStall, "memory");
    // kernel wall = 4000 cycles / clock; leveled = 3000 / clock.
    const double clock = upmem::DpuConfig{}.clockHz;
    EXPECT_NEAR(run.kernelSeconds, 4000.0 / clock, 1e-15);
    EXPECT_NEAR(run.leveledKernelSeconds, 3000.0 / clock, 1e-15);
    EXPECT_GT(run.kernelSeconds, run.leveledKernelSeconds);

    // beginRun drops the accumulated state.
    obs.beginRun();
    EXPECT_EQ(obs.collectRun().launches, 0u);
}

TEST(ImbalanceObserver, FreeFoldOfLaunchesEqualsCollectRun)
{
    ImbalanceObserver obs;
    obs.onLaunchEnd({},
                    {dpu(1000, 800, 100, 0, 800, 500),
                     dpu(1200, 700, 300, 0, 700, 400)},
                    upmem::DpuConfig{});
    const upmem::LaunchInfo info{"CSC-2D", [] {
                                     return std::vector<
                                         sparse::PartitionShare>{
                                         share(10, 100, 800),
                                         share(10, 300, 2400)};
                                 }};
    obs.onLaunchEnd(info,
                    {dpu(1000, 800, 100, 0, 800, 500),
                     dpu(3000, 900, 2000, 0, 900, 1500)},
                    upmem::DpuConfig{});

    const RunImbalance a = foldRun(obs.launches());
    const RunImbalance b = obs.collectRun();
    EXPECT_EQ(a.launches, b.launches);
    EXPECT_EQ(a.stragglerFactor, b.stragglerFactor);
    EXPECT_EQ(a.cyclesGini, b.cyclesGini);
    EXPECT_EQ(a.cyclesCov, b.cyclesCov);
    EXPECT_EQ(a.cyclesP99OverMean, b.cyclesP99OverMean);
    EXPECT_EQ(a.nnzGini, b.nnzGini);
    EXPECT_EQ(a.nnzMaxOverMean, b.nnzMaxOverMean);
    EXPECT_EQ(a.stragglerKernel, b.stragglerKernel);
    EXPECT_EQ(a.stragglerDpu, b.stragglerDpu);
    EXPECT_EQ(a.stragglerCyclesOverMean, b.stragglerCyclesOverMean);
    EXPECT_EQ(a.stragglerStall, b.stragglerStall);
    EXPECT_EQ(a.stragglerStallFraction, b.stragglerStallFraction);
    EXPECT_EQ(a.stragglerNnzOverMean, b.stragglerNnzOverMean);
    EXPECT_EQ(a.kernelSeconds, b.kernelSeconds);
    EXPECT_EQ(a.leveledKernelSeconds, b.leveledKernelSeconds);
    EXPECT_EQ(a.roofline.opIntensity, b.roofline.opIntensity);
    EXPECT_EQ(a.roofline.achievedOpsPerSec,
              b.roofline.achievedOpsPerSec);
    EXPECT_EQ(a.roofline.pipelineCeilingOpsPerSec,
              b.roofline.pipelineCeilingOpsPerSec);
    EXPECT_EQ(a.roofline.ridgeIntensity, b.roofline.ridgeIntensity);
    EXPECT_EQ(a.roofline.memoryBoundFraction,
              b.roofline.memoryBoundFraction);
    EXPECT_EQ(a.stragglerKernel, "CSC-2D");
}

TEST(ImbalanceObserver, StallNamesMatchUpmemSpellings)
{
    // Straggler attribution reports the upmem stall spellings.
    for (unsigned r = 0;
         r < static_cast<unsigned>(upmem::StallReason::NumReasons);
         ++r) {
        const auto reason = static_cast<upmem::StallReason>(r);
        upmem::DpuProfile p;
        p.totalCycles = 100;
        p.stallCycles[r] = 50;
        const LaunchImbalance li = computeLaunchImbalance(
            "k", {p}, {}, upmem::DpuConfig{});
        EXPECT_EQ(li.stragglerStall, upmem::stallReasonName(reason));
    }
}
