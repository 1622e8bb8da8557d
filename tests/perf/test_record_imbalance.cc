/**
 * @file
 * Imbalance block of the run record: a record carrying the observer's
 * RunImbalance survives encodeRunRecord() -> parseRunRecord() field
 * for field through the imbalance field list (nested roofline
 * included), and records from the older v2/v3 schemas keep parsing
 * with the block absent.
 */

#include <gtest/gtest.h>

#include "analysis/imbalance.hh"
#include "perf/manifest.hh"
#include "perf/record.hh"

using namespace alphapim;
using namespace alphapim::perf;

namespace
{

analysis::RunImbalance
sampleImbalance()
{
    analysis::RunImbalance s;
    s.launches = 12;
    s.stragglerFactor = 2.4;
    s.cyclesGini = 0.31;
    s.cyclesCov = 0.55;
    s.cyclesP99OverMean = 1.9;
    s.nnzGini = 0.22;
    s.nnzMaxOverMean = 3.1;
    s.stragglerKernel = "CSC-2D";
    s.stragglerDpu = 37;
    s.stragglerCyclesOverMean = 2.4;
    s.stragglerStall = "memory";
    s.stragglerStallFraction = 0.71;
    s.stragglerNnzOverMean = 3.1;
    s.kernelSeconds = 0.0022;
    s.leveledKernelSeconds = 0.000917;
    s.roofline.opIntensity = 0.8;
    s.roofline.achievedOpsPerSec = 4.3e9;
    s.roofline.pipelineCeilingOpsPerSec = 8.96e10;
    s.roofline.ridgeIntensity = 0.5;
    s.roofline.memoryBoundFraction = 0.25;
    return s;
}

RunKey
sampleKey()
{
    RunKey key;
    key.bench = "fig09";
    key.dataset = "e-En";
    key.variant = "spmv";
    key.dpus = 256;
    key.seed = 42;
    return key;
}

} // namespace

TEST(RunRecordImbalance, EncodeParseRoundTrip)
{
    RecordBlocks blocks;
    blocks.imbalance = sampleImbalance();
    core::PhaseTimes times;
    times.kernel = 0.0022;

    const std::string line =
        encodeRunRecord(currentManifest(), sampleKey(), 3, times,
                        nullptr, -1.0, blocks);

    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    ASSERT_TRUE(r.imbalance);
    const analysis::RunImbalance &b = *r.imbalance;
    EXPECT_EQ(b.launches, 12u);
    EXPECT_DOUBLE_EQ(b.stragglerFactor, 2.4);
    EXPECT_DOUBLE_EQ(b.cyclesGini, 0.31);
    EXPECT_DOUBLE_EQ(b.cyclesCov, 0.55);
    EXPECT_DOUBLE_EQ(b.cyclesP99OverMean, 1.9);
    EXPECT_DOUBLE_EQ(b.nnzGini, 0.22);
    EXPECT_DOUBLE_EQ(b.nnzMaxOverMean, 3.1);
    EXPECT_EQ(b.stragglerKernel, "CSC-2D");
    EXPECT_EQ(b.stragglerDpu, 37u);
    EXPECT_DOUBLE_EQ(b.stragglerCyclesOverMean, 2.4);
    EXPECT_EQ(b.stragglerStall, "memory");
    EXPECT_DOUBLE_EQ(b.stragglerStallFraction, 0.71);
    EXPECT_DOUBLE_EQ(b.stragglerNnzOverMean, 3.1);
    EXPECT_DOUBLE_EQ(b.kernelSeconds, 0.0022);
    EXPECT_DOUBLE_EQ(b.leveledKernelSeconds, 0.000917);
    EXPECT_DOUBLE_EQ(b.roofline.opIntensity, 0.8);
    EXPECT_DOUBLE_EQ(b.roofline.achievedOpsPerSec, 4.3e9);
    EXPECT_DOUBLE_EQ(b.roofline.pipelineCeilingOpsPerSec, 8.96e10);
    EXPECT_DOUBLE_EQ(b.roofline.ridgeIntensity, 0.5);
    EXPECT_DOUBLE_EQ(b.roofline.memoryBoundFraction, 0.25);
}

TEST(RunRecordImbalance, OmittedBlockStaysAbsent)
{
    core::PhaseTimes times;
    times.kernel = 0.25;
    const std::string line = encodeRunRecord(
        currentManifest(), sampleKey(), 0, times, nullptr, -1.0);
    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    EXPECT_FALSE(r.imbalance);
}

TEST(RunRecordImbalance, OlderSchemasParseWithoutTheBlock)
{
    // Hand-written v2 and v3 lines as the older encoders emitted
    // them: no imbalance object anywhere.
    const std::string v2 =
        "{\"schema\":\"alpha-pim-run-v2\",\"git_sha\":\"abc\","
        "\"bench\":\"fig09\",\"dataset\":\"e-En\","
        "\"variant\":\"spmv\",\"dpus\":256,\"seed\":42,"
        "\"times\":{\"load\":0.1,\"kernel\":0.4,"
        "\"retrieve\":0.08,\"merge\":0.02}}";
    const std::string v3 =
        "{\"schema\":\"alpha-pim-run-v3\",\"git_sha\":\"abc\","
        "\"bench\":\"fig09\",\"dataset\":\"e-En\","
        "\"variant\":\"spmv\",\"dpus\":256,\"seed\":42,"
        "\"times\":{\"load\":0.1,\"kernel\":0.4,"
        "\"retrieve\":0.08,\"merge\":0.02},"
        "\"timeline\":{\"window_seconds\":0.6,\"launches\":5,"
        "\"ranks\":4,\"rank_occupancy_mean\":0.5,"
        "\"rank_occupancy_min\":0.4,\"dpu_occupancy_mean\":0.3,"
        "\"overlap_fraction\":0.0,\"idle_fraction\":0.1,"
        "\"transfer_critical_fraction\":0.55,"
        "\"whatif_rank_overlap_speedup\":1.2,"
        "\"whatif_double_buffer_speedup\":1.3,"
        "\"whatif_combined_speedup\":1.4}}";

    RunRecord r2, r3;
    std::string error;
    ASSERT_TRUE(parseRunRecord(v2, r2, &error)) << error;
    EXPECT_FALSE(r2.imbalance);
    EXPECT_FALSE(r2.timeline);

    ASSERT_TRUE(parseRunRecord(v3, r3, &error)) << error;
    EXPECT_FALSE(r3.imbalance);
    ASSERT_TRUE(r3.timeline);
    EXPECT_DOUBLE_EQ(r3.timeline->transferCriticalFraction, 0.55);
}
