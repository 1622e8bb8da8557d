/**
 * Host block of the run record: a record carrying the profiler's
 * HostProfile survives encodeRunRecord() -> parseRunRecord() field
 * for field through the host field list, and records from the older
 * v2/v3/v4 schemas keep parsing with the block absent.
 */

#include <gtest/gtest.h>

#include "perf/manifest.hh"
#include "perf/record.hh"
#include "telemetry/host_prof.hh"

using namespace alphapim;
using namespace alphapim::perf;

namespace
{

telemetry::HostProfile
sampleHost()
{
    using telemetry::HostPhase;
    const auto phase = [](HostPhase p) {
        return static_cast<unsigned>(p);
    };
    telemetry::HostProfile h;
    h.totalSeconds = 2.125;
    h.phaseSeconds[phase(HostPhase::PartitionBuild)] = 0.25;
    h.phaseSeconds[phase(HostPhase::TraceRecord)] = 0.5;
    h.phaseSeconds[phase(HostPhase::Replay)] = 0.875;
    h.phaseSeconds[phase(HostPhase::ProfileFold)] = 0.125;
    h.phaseSeconds[phase(HostPhase::TransferModel)] = 0.0625;
    h.phaseSeconds[phase(HostPhase::HostMerge)] = 0.1875;
    h.phaseSeconds[phase(HostPhase::Analysis)] = 0.125;
    h.replaySlotsPerSec = 1.6e8;
    h.traceRecordsPerSec = 4.2e7;
    h.replaySlots = 140000000;
    h.traceRecords = 21000000;
    h.modelSeconds = 2.2e-5;
    h.slowdownFactor = 96500.0;
    h.peakRssBytes = 268435456;
    h.currentRssBytes = 134217728;
    h.taskletTraceBytesPeak = 8388608;
    h.tracerBytes = 1048576;
    h.metricsBytes = 262144;
    return h;
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

TEST(RunRecordHost, EncodeParseRoundTrip)
{
    const telemetry::HostProfile h = sampleHost();
    RecordBlocks blocks;
    blocks.host = h;
    core::PhaseTimes times;
    times.kernel = 0.0022;

    const std::string line =
        encodeRunRecord(currentManifest(), sampleKey(), 3, times,
                        nullptr, 2.2, blocks);

    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    ASSERT_TRUE(r.host);
    const telemetry::HostProfile &b = *r.host;
    EXPECT_DOUBLE_EQ(b.totalSeconds, 2.125);
    for (unsigned p = 0; p < telemetry::kHostPhaseCount; ++p)
        EXPECT_DOUBLE_EQ(b.phaseSeconds[p], h.phaseSeconds[p]) << p;
    EXPECT_DOUBLE_EQ(b.replaySlotsPerSec, 1.6e8);
    EXPECT_DOUBLE_EQ(b.traceRecordsPerSec, 4.2e7);
    EXPECT_EQ(b.replaySlots, 140000000u);
    EXPECT_EQ(b.traceRecords, 21000000u);
    EXPECT_DOUBLE_EQ(b.modelSeconds, 2.2e-5);
    EXPECT_DOUBLE_EQ(b.slowdownFactor, 96500.0);
    EXPECT_EQ(b.peakRssBytes, 268435456u);
    EXPECT_EQ(b.currentRssBytes, 134217728u);
    EXPECT_EQ(b.taskletTraceBytesPeak, 8388608u);
    EXPECT_EQ(b.tracerBytes, 1048576u);
    EXPECT_EQ(b.metricsBytes, 262144u);
}

TEST(RunRecordHost, OmittedBlockStaysAbsent)
{
    core::PhaseTimes times;
    times.kernel = 0.25;
    const std::string line = encodeRunRecord(
        currentManifest(), sampleKey(), 0, times, nullptr, -1.0);
    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    EXPECT_FALSE(r.host);
}

TEST(RunRecordHost, OlderSchemasParseWithoutTheBlock)
{
    // Hand-written lines as the older encoders emitted them: no host
    // object anywhere.
    const std::string v2 =
        "{\"schema\":\"alpha-pim-run-v2\",\"git_sha\":\"abc\","
        "\"bench\":\"fig09\",\"dataset\":\"e-En\","
        "\"variant\":\"spmv\",\"dpus\":256,\"seed\":42,"
        "\"times\":{\"load\":0.1,\"kernel\":0.4,"
        "\"retrieve\":0.08,\"merge\":0.02}}";
    const std::string v4 =
        "{\"schema\":\"alpha-pim-run-v4\",\"git_sha\":\"abc\","
        "\"bench\":\"fig09\",\"dataset\":\"e-En\","
        "\"variant\":\"spmv\",\"dpus\":256,\"seed\":42,"
        "\"times\":{\"load\":0.1,\"kernel\":0.4,"
        "\"retrieve\":0.08,\"merge\":0.02},"
        "\"imbalance\":{\"launches\":3,\"straggler_factor\":1.5,"
        "\"cycles_gini\":0.1,\"cycles_cov\":0.2,"
        "\"cycles_p99_over_mean\":1.3,\"nnz_gini\":0.1,"
        "\"nnz_max_over_mean\":1.4,\"straggler_kernel\":\"CSC-2D\","
        "\"straggler_dpu\":7,\"straggler_cycles_over_mean\":1.5,"
        "\"straggler_stall\":\"memory\","
        "\"straggler_stall_fraction\":0.5,"
        "\"straggler_nnz_over_mean\":1.4,\"kernel_seconds\":0.4,"
        "\"leveled_kernel_seconds\":0.3}}";

    RunRecord r2, r4;
    std::string error;
    ASSERT_TRUE(parseRunRecord(v2, r2, &error)) << error;
    EXPECT_FALSE(r2.host);

    ASSERT_TRUE(parseRunRecord(v4, r4, &error)) << error;
    EXPECT_FALSE(r4.host);
    ASSERT_TRUE(r4.imbalance);
    EXPECT_DOUBLE_EQ(r4.imbalance->stragglerFactor, 1.5);
}
