/**
 * @file
 * Bench differ: pairing by run identity, exact-compare verdicts for
 * deterministic metrics, bootstrap-CI verdicts for wall-clock, the
 * fold into a per-pair verdict, and the append-footgun warnings.
 */

#include <gtest/gtest.h>

#include "perf/diff.hh"

using namespace alphapim;
using namespace alphapim::perf;

namespace
{

RunRecord
makeRecord(const std::string &variant, double kernel_s,
           double load_s = 0.1, double wall = -1.0)
{
    RunRecord r;
    r.manifest.schema = kRunSchema;
    r.manifest.gitSha = "abc123";
    r.key.bench = "fig07";
    r.key.dataset = "e-En";
    r.key.variant = variant;
    r.key.dpus = 256;
    r.key.seed = 42;
    r.iterations = 5;
    r.times.load = load_s;
    r.times.kernel = kernel_s;
    r.times.retrieve = 0.05;
    r.times.merge = 0.01;
    r.wallSeconds = wall;
    return r;
}

RecordSet
makeSet(std::vector<RunRecord> records)
{
    RecordSet set;
    set.path = "<test>";
    set.records = std::move(records);
    set.schemas = {kRunSchema};
    set.gitShas = {"abc123"};
    return set;
}

const PairDiff *
findPair(const DiffReport &report, const std::string &variant)
{
    for (const PairDiff &p : report.pairs)
        if (p.key.variant == variant)
            return &p;
    return nullptr;
}

const MetricDelta *
findMetric(const PairDiff &pair, const std::string &metric)
{
    for (const MetricDelta &m : pair.metrics)
        if (m.metric == metric)
            return &m;
    return nullptr;
}

} // namespace

TEST(DiffPairing, UnpairedRunsAreReportedNotCompared)
{
    const auto olds =
        makeSet({makeRecord("A", 0.5), makeRecord("B", 0.5)});
    const auto news =
        makeSet({makeRecord("B", 0.5), makeRecord("C", 0.5)});
    const DiffReport report =
        diffRecordSets(olds, news, DiffOptions{});

    ASSERT_EQ(report.pairs.size(), 3u);
    EXPECT_EQ(findPair(report, "A")->verdict, Verdict::OldOnly);
    EXPECT_EQ(findPair(report, "B")->verdict, Verdict::Equal);
    EXPECT_EQ(findPair(report, "C")->verdict, Verdict::NewOnly);
    EXPECT_EQ(report.oldOnly, 1u);
    EXPECT_EQ(report.newOnly, 1u);
    EXPECT_EQ(report.equal, 1u);
    EXPECT_FALSE(report.hasRegressions());
}

TEST(DiffPairing, DifferentDpusOrSeedNeverPair)
{
    RunRecord o = makeRecord("A", 0.5);
    RunRecord n = makeRecord("A", 0.5);
    n.key.dpus = 512; // same bench/dataset/variant, other machine size
    const DiffReport report = diffRecordSets(
        makeSet({o}), makeSet({n}), DiffOptions{});
    EXPECT_EQ(report.oldOnly, 1u);
    EXPECT_EQ(report.newOnly, 1u);
}

TEST(DiffVerdicts, IdenticalRecordsCompareEqual)
{
    const auto olds = makeSet({makeRecord("A", 0.5)});
    const auto news = makeSet({makeRecord("A", 0.5)});
    const DiffReport report =
        diffRecordSets(olds, news, DiffOptions{});
    EXPECT_EQ(report.equal, 1u);
    EXPECT_FALSE(report.hasRegressions());
}

TEST(DiffVerdicts, SubEpsilonDifferenceIsEqual)
{
    const auto olds = makeSet({makeRecord("A", 0.5)});
    const auto news = makeSet({makeRecord("A", 0.5 + 1e-13)});
    const DiffReport report =
        diffRecordSets(olds, news, DiffOptions{});
    EXPECT_EQ(report.equal, 1u);
}

TEST(DiffVerdicts, AnyDeterministicDriftIsFlagged)
{
    // +1% kernel time: below the 2% gate but NOT silently equal --
    // the model is deterministic, so any drift is a real change.
    const auto olds = makeSet({makeRecord("A", 0.5)});
    const auto news = makeSet({makeRecord("A", 0.505)});
    const DiffReport report =
        diffRecordSets(olds, news, DiffOptions{});
    const PairDiff *pair = findPair(report, "A");
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(pair->verdict, Verdict::Drifted);
    EXPECT_FALSE(report.hasRegressions());
}

TEST(DiffVerdicts, TotalTimeRegressionGates)
{
    const auto olds = makeSet({makeRecord("A", 0.5)});
    const auto news = makeSet({makeRecord("A", 0.6)});
    const DiffReport report =
        diffRecordSets(olds, news, DiffOptions{});
    const PairDiff *pair = findPair(report, "A");
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(pair->verdict, Verdict::Regressed);
    EXPECT_TRUE(report.hasRegressions());
    // A regressed pair carries its attribution.
    EXPECT_FALSE(pair->attribution.headline.empty());
    const MetricDelta *total = findMetric(*pair, "times.total");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->verdict, Verdict::Regressed);
}

TEST(DiffVerdicts, StragglerFactorRegressionGates)
{
    // A launch that got more skewed gates even when the total model
    // time held (e.g. the extra straggler cycles hid under a
    // shrunken transfer phase).
    RunRecord o = makeRecord("A", 0.5);
    o.imbalance.emplace().stragglerFactor = 1.10;
    RunRecord n = o;
    n.imbalance->stragglerFactor = 2.40;
    const DiffReport report = diffRecordSets(
        makeSet({o}), makeSet({n}), DiffOptions{});
    const PairDiff *pair = findPair(report, "A");
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(pair->verdict, Verdict::Regressed);
    EXPECT_TRUE(report.hasRegressions());
    const MetricDelta *sf =
        findMetric(*pair, "imbalance.straggler_factor");
    ASSERT_NE(sf, nullptr);
    EXPECT_EQ(sf->verdict, Verdict::Regressed);
}

TEST(DiffVerdicts, StragglerFactorDriftStaysAdvisory)
{
    // Sub-threshold straggler wiggle: Drifted, never a gate.
    RunRecord o = makeRecord("A", 0.5);
    o.imbalance.emplace().stragglerFactor = 1.10;
    RunRecord n = o;
    n.imbalance->stragglerFactor = 1.11;
    const DiffReport report = diffRecordSets(
        makeSet({o}), makeSet({n}), DiffOptions{});
    EXPECT_EQ(findPair(report, "A")->verdict, Verdict::Drifted);
    EXPECT_FALSE(report.hasRegressions());
}

TEST(DiffVerdicts, TotalTimeImprovementIsNotARegression)
{
    const auto olds = makeSet({makeRecord("A", 0.6)});
    const auto news = makeSet({makeRecord("A", 0.5)});
    const DiffReport report =
        diffRecordSets(olds, news, DiffOptions{});
    EXPECT_EQ(findPair(report, "A")->verdict, Verdict::Improved);
    EXPECT_FALSE(report.hasRegressions());
}

TEST(DiffWallClock, SingleSampleMakesNoStatisticalClaim)
{
    const auto olds = makeSet({makeRecord("A", 0.5, 0.1, 1.0)});
    const auto news = makeSet({makeRecord("A", 0.5, 0.1, 9.0)});
    const DiffReport report =
        diffRecordSets(olds, news, DiffOptions{});
    const PairDiff *pair = findPair(report, "A");
    ASSERT_NE(pair, nullptr);
    const MetricDelta *wall = findMetric(*pair, "wall_seconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_TRUE(wall->noisy);
    EXPECT_EQ(wall->verdict, Verdict::Equal);
    EXPECT_EQ(pair->verdict, Verdict::Equal);
}

TEST(DiffWallClock, ClearShiftIsDetectedButAdvisoryByDefault)
{
    // Three samples per side, tight around distinct means: the CI
    // of the mean difference excludes zero.
    std::vector<RunRecord> olds, news;
    for (double w : {1.00, 1.01, 0.99})
        olds.push_back(makeRecord("A", 0.5, 0.1, w));
    for (double w : {2.00, 2.02, 1.98})
        news.push_back(makeRecord("A", 0.5, 0.1, w));
    const DiffReport report = diffRecordSets(
        makeSet(std::move(olds)), makeSet(std::move(news)),
        DiffOptions{});
    const PairDiff *pair = findPair(report, "A");
    ASSERT_NE(pair, nullptr);
    const MetricDelta *wall = findMetric(*pair, "wall_seconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->verdict, Verdict::Regressed);
    EXPECT_GT(wall->ciLow, 0.0);
    // ...but wall-clock is advisory unless --wall-gate:
    EXPECT_EQ(pair->verdict, Verdict::Equal);
    EXPECT_FALSE(report.hasRegressions());
}

TEST(DiffWallClock, WallGateOptionPromotesTheRegression)
{
    std::vector<RunRecord> olds, news;
    for (double w : {1.00, 1.01, 0.99})
        olds.push_back(makeRecord("A", 0.5, 0.1, w));
    for (double w : {2.00, 2.02, 1.98})
        news.push_back(makeRecord("A", 0.5, 0.1, w));
    DiffOptions opt;
    opt.wallClockGate = true;
    const DiffReport report = diffRecordSets(
        makeSet(std::move(olds)), makeSet(std::move(news)), opt);
    EXPECT_EQ(findPair(report, "A")->verdict, Verdict::Regressed);
    EXPECT_TRUE(report.hasRegressions());
}

namespace
{

/** Attach a host block with one replay-dominated shape. */
RunRecord
withHost(RunRecord r, double total_s, double replay_s,
         double slots_per_sec)
{
    using telemetry::HostPhase;
    telemetry::HostProfile &h = r.host.emplace();
    h.totalSeconds = total_s;
    h.phaseSeconds[static_cast<unsigned>(HostPhase::Replay)] =
        replay_s;
    h.phaseSeconds[static_cast<unsigned>(HostPhase::TraceRecord)] =
        total_s - replay_s;
    h.replaySlotsPerSec = slots_per_sec;
    h.traceRecordsPerSec = 1e6;
    h.replaySlots = 1000000;
    h.traceRecords = 200000;
    h.slowdownFactor = total_s / 0.001;
    return r;
}

} // namespace

TEST(DiffHost, SingleSampleMakesNoStatisticalClaim)
{
    const auto olds =
        makeSet({withHost(makeRecord("A", 0.5), 1.0, 0.7, 2e6)});
    const auto news =
        makeSet({withHost(makeRecord("A", 0.5), 9.0, 8.0, 2e5)});
    const DiffReport report =
        diffRecordSets(olds, news, DiffOptions{});
    const PairDiff *pair = findPair(report, "A");
    ASSERT_NE(pair, nullptr);
    const MetricDelta *total =
        findMetric(*pair, "host.total_seconds");
    ASSERT_NE(total, nullptr);
    EXPECT_TRUE(total->noisy);
    EXPECT_EQ(total->verdict, Verdict::Equal);
    EXPECT_EQ(pair->verdict, Verdict::Equal);
}

TEST(DiffHost, ClearShiftIsDetectedButAdvisoryByDefault)
{
    std::vector<RunRecord> olds, news;
    for (double t : {1.00, 1.01, 0.99})
        olds.push_back(
            withHost(makeRecord("A", 0.5), t, 0.7 * t, 2e6));
    for (double t : {2.00, 2.02, 1.98})
        news.push_back(
            withHost(makeRecord("A", 0.5), t, 0.7 * t, 1e6));
    const DiffReport report = diffRecordSets(
        makeSet(std::move(olds)), makeSet(std::move(news)),
        DiffOptions{});
    const PairDiff *pair = findPair(report, "A");
    ASSERT_NE(pair, nullptr);
    const MetricDelta *total =
        findMetric(*pair, "host.total_seconds");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->verdict, Verdict::Regressed);
    // ...but host metrics are advisory unless --host-gate:
    EXPECT_EQ(pair->verdict, Verdict::Equal);
    EXPECT_FALSE(report.hasRegressions());
}

TEST(DiffHost, HostGateOptionPromotesTheRegression)
{
    std::vector<RunRecord> olds, news;
    for (double t : {1.00, 1.01, 0.99})
        olds.push_back(
            withHost(makeRecord("A", 0.5), t, 0.7 * t, 2e6));
    for (double t : {2.00, 2.02, 1.98})
        news.push_back(
            withHost(makeRecord("A", 0.5), t, 0.7 * t, 1e6));
    DiffOptions opt;
    opt.hostGate = true;
    const DiffReport report = diffRecordSets(
        makeSet(std::move(olds)), makeSet(std::move(news)), opt);
    EXPECT_EQ(findPair(report, "A")->verdict, Verdict::Regressed);
    EXPECT_TRUE(report.hasRegressions());
}

TEST(DiffHost, ThroughputDropIsTheRegressionDirection)
{
    // Replay throughput is higher-is-better: a clear DROP must be a
    // regression, and a clear RISE an improvement -- the opposite
    // polarity of the seconds metrics.
    std::vector<RunRecord> olds, news;
    for (double j : {0.99, 1.0, 1.01}) {
        olds.push_back(
            withHost(makeRecord("A", 0.5), 1.0, 0.7, 2e6 * j));
        news.push_back(
            withHost(makeRecord("A", 0.5), 1.0, 0.7, 1e6 * j));
    }
    const DiffReport report = diffRecordSets(
        makeSet(std::move(olds)), makeSet(std::move(news)),
        DiffOptions{});
    const PairDiff *pair = findPair(report, "A");
    ASSERT_NE(pair, nullptr);
    const MetricDelta *tput =
        findMetric(*pair, "host.replay_slots_per_sec");
    ASSERT_NE(tput, nullptr);
    EXPECT_EQ(tput->verdict, Verdict::Regressed);

    // And the reverse shift reads as Improved, not Regressed.
    std::vector<RunRecord> olds2, news2;
    for (double j : {0.99, 1.0, 1.01}) {
        olds2.push_back(
            withHost(makeRecord("A", 0.5), 1.0, 0.7, 1e6 * j));
        news2.push_back(
            withHost(makeRecord("A", 0.5), 1.0, 0.7, 2e6 * j));
    }
    const DiffReport report2 = diffRecordSets(
        makeSet(std::move(olds2)), makeSet(std::move(news2)),
        DiffOptions{});
    const MetricDelta *tput2 = findMetric(
        *findPair(report2, "A"), "host.replay_slots_per_sec");
    ASSERT_NE(tput2, nullptr);
    EXPECT_EQ(tput2->verdict, Verdict::Improved);
}

TEST(DiffHost, RecordsWithoutHostBlocksCompareClean)
{
    const auto olds = makeSet({makeRecord("A", 0.5)});
    const auto news = makeSet({makeRecord("A", 0.5)});
    DiffOptions opt;
    opt.hostGate = true;
    const DiffReport report = diffRecordSets(olds, news, opt);
    const PairDiff *pair = findPair(report, "A");
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(findMetric(*pair, "host.total_seconds"), nullptr);
    EXPECT_EQ(pair->verdict, Verdict::Equal);
}

TEST(DiffBootstrap, DeterministicAndSane)
{
    const std::vector<double> olds = {1.0, 1.1, 0.9, 1.05, 0.95};
    const std::vector<double> news = {2.0, 2.1, 1.9, 2.05, 1.95};
    double lo1, hi1, lo2, hi2;
    bootstrapMeanDiffCI(olds, news, 0.95, 500, 7, lo1, hi1);
    bootstrapMeanDiffCI(olds, news, 0.95, 500, 7, lo2, hi2);
    EXPECT_DOUBLE_EQ(lo1, lo2); // seeded: bit-identical reruns
    EXPECT_DOUBLE_EQ(hi1, hi2);
    EXPECT_GT(lo1, 0.5); // true shift is 1.0
    EXPECT_LT(hi1, 1.5);
    EXPECT_LT(lo1, hi1);
}

TEST(DiffWarnings, MixedShaFilesWarn)
{
    RunRecord a = makeRecord("A", 0.5);
    RunRecord b = makeRecord("B", 0.5);
    b.manifest.gitSha = "def456"; // appended across builds
    RecordSet olds = makeSet({a, b});
    olds.gitShas = {"abc123", "def456"};
    const DiffReport report = diffRecordSets(
        olds, makeSet({makeRecord("A", 0.5)}), DiffOptions{});
    ASSERT_FALSE(report.warnings.empty());
    EXPECT_NE(report.warnings[0].find("git revisions"),
              std::string::npos);
}

TEST(DiffWarnings, FingerprintDriftWarnsPerKey)
{
    RunRecord o = makeRecord("A", 0.5);
    o.manifest.datasetFingerprint = 0x1111;
    RunRecord n = makeRecord("A", 0.5);
    n.manifest.datasetFingerprint = 0x2222;
    const DiffReport report = diffRecordSets(
        makeSet({o}), makeSet({n}), DiffOptions{});
    bool saw = false;
    for (const std::string &w : report.warnings)
        saw = saw ||
              w.find("dataset fingerprint") != std::string::npos;
    EXPECT_TRUE(saw);
}

TEST(DiffWarnings, SchemaMismatchAcrossSetsWarns)
{
    RunRecord o = makeRecord("A", 0.5);
    o.manifest.schema = ""; // legacy v1 baseline
    RecordSet olds = makeSet({o});
    olds.schemas = {""};
    const DiffReport report = diffRecordSets(
        olds, makeSet({makeRecord("A", 0.5)}), DiffOptions{});
    bool saw = false;
    for (const std::string &w : report.warnings)
        saw = saw || w.find("schema mismatch") != std::string::npos;
    EXPECT_TRUE(saw);
}

TEST(DiffReporting, RenderNamesVerdictAndJsonParses)
{
    const auto olds = makeSet({makeRecord("A", 0.5)});
    const auto news = makeSet({makeRecord("A", 0.7)});
    const DiffOptions opt;
    const DiffReport report = diffRecordSets(olds, news, opt);
    const std::string text = renderReport(report, opt);
    EXPECT_NE(text.find("verdict: REGRESSED"), std::string::npos);
    EXPECT_NE(text.find("[regressed]"), std::string::npos);

    telemetry::JsonValue doc;
    std::string error;
    ASSERT_TRUE(
        telemetry::JsonValue::parse(reportJson(report), doc, &error))
        << error;
    EXPECT_DOUBLE_EQ(doc.find("regressed")->asNumber(), 1.0);
}
