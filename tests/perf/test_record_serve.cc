/**
 * @file
 * Serve block of the run record: a record carrying a ServeSummary
 * survives encodeRunRecord() -> parseRunRecord() field for field;
 * records without the block (including older-schema lines) keep
 * parsing with the block absent; and the serve-gate verdict logic in
 * compareDeterministic treats queries_per_sec as higher-is-better.
 */

#include <gtest/gtest.h>

#include "perf/diff.hh"
#include "perf/manifest.hh"
#include "perf/record.hh"

using namespace alphapim;
using namespace alphapim::perf;

namespace
{

ServeSummary
sampleServe()
{
    ServeSummary s;
    s.submitted = 40;
    s.admitted = 38;
    s.rejected = 2;
    s.completed = 38;
    s.batches = 5;
    s.meanBatchSize = 7.6;
    s.maxBatchSize = 16;
    s.maxQueueDepth = 20;
    s.latencyP50 = 0.0125;
    s.latencyP95 = 0.046875;
    s.latencyP99 = 0.09375;
    s.latencyP999 = 0.1015625;
    s.latencyMean = 0.021484375;
    s.queriesPerSec = 812.5;
    s.makespanSeconds = 0.046875;
    return s;
}

RunKey
sampleKey()
{
    RunKey key;
    key.bench = "serve";
    key.dataset = "as00";
    key.variant = "open/batching/bfs/adaptive";
    key.dpus = 256;
    key.seed = 42;
    return key;
}

} // namespace

TEST(RunRecordServe, EncodeParseRoundTrip)
{
    RecordBlocks blocks;
    blocks.serve = sampleServe();
    core::PhaseTimes times;
    times.kernel = 0.03;

    const std::string line =
        encodeRunRecord(currentManifest(), sampleKey(), 60, times,
                        nullptr, 1.5, blocks);

    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    ASSERT_TRUE(r.serve);
    const ServeSummary &b = *r.serve;
    EXPECT_EQ(b.submitted, 40u);
    EXPECT_EQ(b.admitted, 38u);
    EXPECT_EQ(b.rejected, 2u);
    EXPECT_EQ(b.completed, 38u);
    EXPECT_EQ(b.batches, 5u);
    EXPECT_DOUBLE_EQ(b.meanBatchSize, 7.6);
    EXPECT_EQ(b.maxBatchSize, 16u);
    EXPECT_EQ(b.maxQueueDepth, 20u);
    EXPECT_DOUBLE_EQ(b.latencyP50, 0.0125);
    EXPECT_DOUBLE_EQ(b.latencyP95, 0.046875);
    EXPECT_DOUBLE_EQ(b.latencyP99, 0.09375);
    EXPECT_DOUBLE_EQ(b.latencyP999, 0.1015625);
    EXPECT_DOUBLE_EQ(b.latencyMean, 0.021484375);
    EXPECT_DOUBLE_EQ(b.queriesPerSec, 812.5);
    EXPECT_DOUBLE_EQ(b.makespanSeconds, 0.046875);
}

TEST(RunRecordServe, OmittedBlockStaysAbsent)
{
    core::PhaseTimes times;
    times.kernel = 0.25;
    const std::string line = encodeRunRecord(
        currentManifest(), sampleKey(), 0, times, nullptr, -1.0);
    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    EXPECT_FALSE(r.serve);
}

TEST(RunRecordServe, OlderSchemasParseWithoutTheBlock)
{
    // A v5 line as the previous encoder emitted it: no serve object.
    const std::string v5 =
        "{\"schema\":\"alpha-pim-run-v5\",\"git_sha\":\"abc\","
        "\"bench\":\"fig09\",\"dataset\":\"e-En\","
        "\"variant\":\"spmv\",\"dpus\":256,\"seed\":42,"
        "\"times\":{\"load\":0.1,\"kernel\":0.4,"
        "\"retrieve\":0.08,\"merge\":0.02}}";
    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(v5, r, &error)) << error;
    EXPECT_FALSE(r.serve);
}

namespace
{

RunRecord
serveRecord(double qps, double p95)
{
    RunRecord r;
    r.manifest.schema = kRunSchema;
    r.manifest.gitSha = "abc123";
    r.key = sampleKey();
    r.iterations = 60;
    r.times.kernel = 0.03;
    r.serve = sampleServe();
    r.serve->queriesPerSec = qps;
    r.serve->latencyP95 = p95;
    return r;
}

RecordSet
serveSet(RunRecord record)
{
    RecordSet set;
    set.path = "<test>";
    set.records = {std::move(record)};
    set.schemas = {kRunSchema};
    set.gitShas = {"abc123"};
    return set;
}

const MetricDelta *
findMetric(const DiffReport &report, const std::string &metric)
{
    for (const PairDiff &p : report.pairs)
        for (const MetricDelta &m : p.metrics)
            if (m.metric == metric)
                return &m;
    return nullptr;
}

} // namespace

TEST(RunRecordServe, DiffGatesThroughputAsHigherIsBetter)
{
    DiffOptions opt;
    opt.threshold = 0.01;
    const auto base = serveSet(serveRecord(800.0, 0.05));

    // Throughput dropping is a regression even though the raw value
    // moved "down".
    auto report = diffRecordSets(
        base, serveSet(serveRecord(700.0, 0.05)), opt);
    const MetricDelta *qps =
        findMetric(report, "serve.queries_per_sec");
    ASSERT_NE(qps, nullptr);
    EXPECT_EQ(qps->verdict, Verdict::Regressed);
    EXPECT_TRUE(report.hasRegressions());

    // Throughput rising is an improvement, not a gate trip.
    report = diffRecordSets(base, serveSet(serveRecord(900.0, 0.05)),
                            opt);
    EXPECT_FALSE(report.hasRegressions());
    EXPECT_EQ(findMetric(report, "serve.queries_per_sec")->verdict,
              Verdict::Improved);

    // p95 rising is a regression the usual way round.
    report = diffRecordSets(base, serveSet(serveRecord(800.0, 0.06)),
                            opt);
    EXPECT_TRUE(report.hasRegressions());
    EXPECT_EQ(findMetric(report, "serve.latency_p95")->verdict,
              Verdict::Regressed);
}
