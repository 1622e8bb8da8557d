/**
 * @file
 * Bottleneck attribution on synthetic regressed record pairs: each
 * injected cause (transfer volume, MRAM stalls, pipeline stalls,
 * real work, host merge) must be named, with ranked evidence and a
 * headline that quotes the dominant phase.
 */

#include <gtest/gtest.h>

#include "perf/attribution.hh"

using namespace alphapim;
using namespace alphapim::perf;

namespace
{

/** A healthy baseline run with all sections populated. */
RunRecord
baselineRecord()
{
    RunRecord r;
    r.key.bench = "fig07";
    r.key.dataset = "e-En";
    r.key.variant = "BFS/adaptive";
    r.key.dpus = 256;
    r.key.seed = 42;
    r.iterations = 10;
    r.times.load = 0.10;
    r.times.kernel = 0.40;
    r.times.retrieve = 0.08;
    r.times.merge = 0.02;
    r.hasProfile = true;
    r.totalCycles = 1'000'000;
    r.issuedCycles = 500'000;
    r.stallFractions = {{"memory", 0.30},
                        {"revolver", 0.15},
                        {"rf-hazard", 0.03},
                        {"sync", 0.02}};
    r.xfer = XferCounts{10, 1 << 20, 10, 1 << 20, 10, 1 << 20};
    return r;
}

bool
anyEvidenceContains(const Attribution &a, const std::string &needle)
{
    for (const std::string &e : a.evidence)
        if (e.find(needle) != std::string::npos)
            return true;
    return false;
}

} // namespace

TEST(Attribution, NoRegressionIsUnknownAndSilent)
{
    const RunRecord r = baselineRecord();
    const Attribution a = attributeRegression(r, r);
    EXPECT_EQ(a.kind, Bottleneck::Unknown);
    EXPECT_TRUE(a.headline.empty());
    EXPECT_TRUE(a.evidence.empty());
    // An improvement is not a regression either.
    RunRecord faster = r;
    faster.times.kernel *= 0.5;
    EXPECT_EQ(attributeRegression(r, faster).kind,
              Bottleneck::Unknown);
}

TEST(Attribution, InflatedTransferPhasesAreTransferBound)
{
    const RunRecord older = baselineRecord();
    RunRecord newer = older;
    newer.times.load *= 1.5;
    newer.times.retrieve *= 1.3;
    newer.xfer->broadcastBytes =
        static_cast<std::uint64_t>(older.xfer->broadcastBytes * 2.1);

    const Attribution a = attributeRegression(older, newer);
    EXPECT_EQ(a.kind, Bottleneck::TransferBound);
    EXPECT_NE(a.headline.find("transfer-bound"), std::string::npos);
    // The dominant phase is quoted in the headline...
    EXPECT_NE(a.headline.find("phase.load_seconds"),
              std::string::npos);
    // ...and the transfer-volume ratio backs it up.
    EXPECT_NE(a.headline.find("broadcast bytes 2.10x"),
              std::string::npos);
    ASSERT_FALSE(a.evidence.empty());
    // Ranked: load contributed more than retrieve.
    EXPECT_NE(a.evidence[0].find("phase.load_seconds"),
              std::string::npos);
    EXPECT_TRUE(anyEvidenceContains(a, "xfer.broadcast_bytes"));
}

TEST(Attribution, GrownMergePhaseIsHostBound)
{
    const RunRecord older = baselineRecord();
    RunRecord newer = older;
    newer.times.merge += 0.10;
    const Attribution a = attributeRegression(older, newer);
    EXPECT_EQ(a.kind, Bottleneck::HostBound);
    EXPECT_NE(a.headline.find("phase.merge_seconds"),
              std::string::npos);
}

TEST(Attribution, HostBoundNamesTheDominantHostPhase)
{
    // Schema-v5 host blocks upgrade the host-bound headline: it
    // names where the *simulator* spent its wall clock and how the
    // replay throughput moved, not just the model phase.
    using telemetry::HostPhase;
    constexpr auto replay = static_cast<unsigned>(HostPhase::Replay);
    constexpr auto record =
        static_cast<unsigned>(HostPhase::TraceRecord);
    RunRecord older = baselineRecord();
    telemetry::HostProfile &oh = older.host.emplace();
    oh.totalSeconds = 1.0;
    oh.phaseSeconds[replay] = 0.60;
    oh.phaseSeconds[record] = 0.40;
    oh.replaySlotsPerSec = 2.0e6;
    oh.slowdownFactor = 50000.0;
    RunRecord newer = older;
    newer.times.merge += 0.10;
    telemetry::HostProfile &nh = *newer.host;
    nh.totalSeconds = 2.0;
    nh.phaseSeconds[replay] = 1.36; // 68% of the new wall
    nh.phaseSeconds[record] = 0.64;
    nh.replaySlotsPerSec = 1.62e6; // 0.81x of the old rate
    nh.slowdownFactor = 100000.0;

    const Attribution a = attributeRegression(older, newer);
    EXPECT_EQ(a.kind, Bottleneck::HostBound);
    EXPECT_NE(a.headline.find("host-bound"), std::string::npos);
    EXPECT_NE(a.headline.find("replay 68% of wall"),
              std::string::npos);
    EXPECT_NE(a.headline.find("throughput 0.81x"),
              std::string::npos);
    EXPECT_TRUE(anyEvidenceContains(a, "host.total_seconds"));
    EXPECT_TRUE(anyEvidenceContains(a, "host.slowdown_factor"));
}

TEST(Attribution, KernelRegressionFromMramStallsIsMemoryBound)
{
    const RunRecord older = baselineRecord();
    RunRecord newer = older;
    newer.times.kernel *= 1.4;
    // Cycle accounting: total grew, the growth is all memory stall.
    newer.totalCycles = 1'400'000;
    newer.issuedCycles = older.issuedCycles;
    newer.stallFractions = {{"memory", 0.50},
                            {"revolver", 0.107},
                            {"rf-hazard", 0.021},
                            {"sync", 0.015}};
    const Attribution a = attributeRegression(older, newer);
    EXPECT_EQ(a.kind, Bottleneck::MemoryBound);
    EXPECT_NE(a.headline.find("memory-bound"), std::string::npos);
    EXPECT_TRUE(anyEvidenceContains(a, "dpu.stall.memory_cycles"));
}

TEST(Attribution, KernelRegressionFromRevolverStallsIsPipelineBound)
{
    const RunRecord older = baselineRecord();
    RunRecord newer = older;
    newer.times.kernel *= 1.4;
    newer.totalCycles = 1'400'000;
    newer.issuedCycles = older.issuedCycles;
    // Growth concentrated in revolver + rf-hazard stalls; the
    // record spells the hazard key with a hyphen (stallReasonName).
    newer.stallFractions = {{"memory", 0.214},
                            {"revolver", 0.30},
                            {"rf-hazard", 0.08},
                            {"sync", 0.015}};
    const Attribution a = attributeRegression(older, newer);
    EXPECT_EQ(a.kind, Bottleneck::PipelineBound);
    EXPECT_NE(a.headline.find("pipeline-bound"), std::string::npos);
    // Metric-name spelling in the evidence uses the underscore.
    EXPECT_TRUE(anyEvidenceContains(a, "dpu.stall.rf_hazard_cycles"));
}

TEST(Attribution, KernelRegressionFromRealWorkIsComputeBound)
{
    const RunRecord older = baselineRecord();
    RunRecord newer = older;
    newer.times.kernel *= 1.4;
    // All growth is issued (useful) cycles; stall fractions shrink.
    newer.totalCycles = 1'400'000;
    newer.issuedCycles = 900'000;
    newer.stallFractions = {{"memory", 0.214},
                            {"revolver", 0.107},
                            {"rf-hazard", 0.021},
                            {"sync", 0.015}};
    const Attribution a = attributeRegression(older, newer);
    EXPECT_EQ(a.kind, Bottleneck::ComputeBound);
    EXPECT_NE(a.headline.find("issued cycles"), std::string::npos);
}

namespace
{

/** Attach an imbalance block (schema v4) to a record. */
void
withImbalance(RunRecord &r, double straggler_factor,
              double kernel_seconds, double leveled_seconds,
              double gini)
{
    analysis::RunImbalance &m = r.imbalance.emplace();
    m.launches = 12;
    m.stragglerFactor = straggler_factor;
    m.cyclesGini = gini;
    m.stragglerKernel = "CSC-2D";
    m.stragglerDpu = 37;
    m.stragglerCyclesOverMean = straggler_factor;
    m.stragglerStall = "memory";
    m.stragglerStallFraction = 0.71;
    m.stragglerNnzOverMean = 3.1;
    m.kernelSeconds = kernel_seconds;
    m.leveledKernelSeconds = leveled_seconds;
}

} // namespace

TEST(Attribution, SkewGrowthWithFlatLeveledBoundIsImbalanceBound)
{
    // The kernel phase doubled, the straggler factor grew 1.10x ->
    // 2.40x, and the perfectly-leveled kernel time barely moved: the
    // fleet got slower because one DPU did, not because the work did.
    RunRecord older = baselineRecord();
    withImbalance(older, 1.10, 0.40, 0.36, 0.05);
    RunRecord newer = older;
    newer.times.kernel = 0.80;
    withImbalance(newer, 2.40, 0.80, 0.37, 0.31);

    const Attribution a = attributeRegression(older, newer);
    EXPECT_EQ(a.kind, Bottleneck::ImbalanceBound);
    EXPECT_NE(a.headline.find("imbalance-bound"), std::string::npos);
    EXPECT_NE(
        a.headline.find("straggler factor 1.10x -> 2.40x"),
        std::string::npos);
    // The straggler is named with its stall reason, partition share
    // and kernel...
    EXPECT_TRUE(anyEvidenceContains(
        a, "DPU 37: 2.4x mean cycles, 71% memory-stall, "
           "holds 3.1x mean nnz (CSC-2D)"));
    // ...and the rebalance bound quantifies the leveling headroom.
    EXPECT_TRUE(anyEvidenceContains(
        a, "rebalance bound: leveled kernel time"));
    EXPECT_TRUE(anyEvidenceContains(a, "cycles gini 0.05 -> 0.31"));
}

TEST(Attribution, SkewGrowthWithGrownLeveledBoundIsNotImbalance)
{
    // The straggler factor grew, but so did the leveled bound: the
    // fleet has genuinely more work per DPU. Stay with the cycle-
    // accounting classes.
    RunRecord older = baselineRecord();
    withImbalance(older, 1.10, 0.40, 0.36, 0.05);
    RunRecord newer = older;
    newer.times.kernel = 0.80;
    withImbalance(newer, 1.30, 0.80, 0.76, 0.08);

    const Attribution a = attributeRegression(older, newer);
    EXPECT_EQ(a.kind, Bottleneck::ComputeBound);
    // The skew context still appears as evidence.
    EXPECT_TRUE(anyEvidenceContains(a, "rebalance bound"));
}

TEST(Attribution, SkewWithinThresholdIsNotImbalance)
{
    // A 2% straggler-factor wiggle is noise, not a regression class.
    RunRecord older = baselineRecord();
    withImbalance(older, 1.10, 0.40, 0.36, 0.05);
    RunRecord newer = older;
    newer.times.kernel = 0.80;
    withImbalance(newer, 1.12, 0.80, 0.37, 0.06);

    const Attribution a = attributeRegression(older, newer);
    EXPECT_NE(a.kind, Bottleneck::ImbalanceBound);
}

TEST(Attribution, KernelRegressionWithoutProfilesIsComputeBound)
{
    // No cycle accounting to subdivide: fall back to the phase.
    RunRecord older = baselineRecord();
    older.hasProfile = false;
    RunRecord newer = older;
    newer.times.kernel *= 1.4;
    const Attribution a = attributeRegression(older, newer);
    EXPECT_EQ(a.kind, Bottleneck::ComputeBound);
}

TEST(Attribution, IterationCountChangeIsReported)
{
    const RunRecord older = baselineRecord();
    RunRecord newer = older;
    newer.iterations = 14;
    newer.times.kernel *= 1.4;
    const Attribution a = attributeRegression(older, newer);
    EXPECT_TRUE(anyEvidenceContains(a, "iterations 10 -> 14"));
}

TEST(Attribution, EvidenceQuotesShareOfRegression)
{
    const RunRecord older = baselineRecord();
    RunRecord newer = older;
    newer.times.load += 0.06;
    newer.times.retrieve += 0.02;
    const Attribution a = attributeRegression(older, newer);
    ASSERT_GE(a.evidence.size(), 2u);
    EXPECT_NE(a.evidence[0].find("75% of the regression"),
              std::string::npos);
    EXPECT_NE(a.evidence[1].find("25% of the regression"),
              std::string::npos);
}

TEST(Attribution, BottleneckNamesAreStable)
{
    EXPECT_STREQ(bottleneckName(Bottleneck::TransferBound),
                 "transfer-bound");
    EXPECT_STREQ(bottleneckName(Bottleneck::ImbalanceBound),
                 "imbalance-bound");
    EXPECT_STREQ(bottleneckName(Bottleneck::MemoryBound),
                 "memory-bound");
    EXPECT_STREQ(bottleneckName(Bottleneck::PipelineBound),
                 "pipeline-bound");
    EXPECT_STREQ(bottleneckName(Bottleneck::ComputeBound),
                 "compute-bound");
    EXPECT_STREQ(bottleneckName(Bottleneck::HostBound),
                 "host-bound");
    EXPECT_STREQ(bottleneckName(Bottleneck::Unknown), "unknown");
}
