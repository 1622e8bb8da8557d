#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "apps/graph_apps.hh"
#include "apps/reference_algorithms.hh"
#include "common/random.hh"
#include "sparse/datasets.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"
#include "suite.hh"
#include "telemetry/json.hh"

using namespace alphapim;

namespace
{

upmem::SystemConfig
eightDpus()
{
    upmem::SystemConfig cfg;
    cfg.numDpus = 8;
    return cfg;
}

/** Small graph with its PIM answers for every algorithm. */
class CorruptionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        adjacency = sparse::buildDataset("ca-Q", 0.05, 7).adjacency;
        Rng rng(7);
        weighted =
            sparse::assignSymmetricWeights(adjacency, 1.0f, 64.0f, rng);
        source = sparse::largestComponentVertex(adjacency);
        config.dpus = 8;
    }

    upmem::UpmemSystem sys{eightDpus()};
    sparse::CooMatrix<float> adjacency;
    sparse::CooMatrix<float> weighted;
    NodeId source = 0;
    apps::AppConfig config;
};

/** Index of the first element satisfying `pred` other than `skip`. */
template <typename T, typename Pred>
std::size_t
firstWhere(const std::vector<T> &v, std::size_t skip, Pred pred)
{
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != skip && pred(v[i]))
            return i;
    }
    ADD_FAILURE() << "no element to corrupt";
    return 0;
}

TEST_F(CorruptionTest, BfsOneWrongLevelFails)
{
    auto levels = apps::runBfs(sys, adjacency, source, config).levels;
    EXPECT_TRUE(suite::verifyBfs(adjacency, source, levels));
    levels[firstWhere(levels, source,
                      [](std::uint32_t l) { return l != invalidNode; })] +=
        1;
    EXPECT_FALSE(suite::verifyBfs(adjacency, source, levels));
}

TEST_F(CorruptionTest, SsspOneWrongDistanceFails)
{
    auto dist = apps::runSssp(sys, weighted, source, config).distances;
    EXPECT_TRUE(suite::verifySssp(weighted, source, dist));
    dist[firstWhere(dist, source,
                    [](float d) { return !std::isinf(d); })] += 1.0f;
    EXPECT_FALSE(suite::verifySssp(weighted, source, dist));
}

TEST_F(CorruptionTest, PprOneWrongRankFails)
{
    config.pprTolerance = 0.0;
    auto ranks = apps::runPpr(sys, adjacency, source, config).ranks;
    EXPECT_TRUE(suite::verifyPpr(adjacency, source, config, ranks));
    ranks[firstWhere(ranks, source, [](float r) { return r > 0.0f; })] +=
        0.01f;
    EXPECT_FALSE(suite::verifyPpr(adjacency, source, config, ranks));
}

TEST_F(CorruptionTest, CcOneWrongLabelFails)
{
    auto labels =
        apps::runConnectedComponents(sys, adjacency, config).levels;
    EXPECT_TRUE(suite::verifyCc(adjacency, labels));
    labels[firstWhere(labels, 0, [](std::uint32_t) { return true; })] += 1;
    EXPECT_FALSE(suite::verifyCc(adjacency, labels));
}

TEST_F(CorruptionTest, ServeChecksumSeesOneWrongElement)
{
    // Serving answers are compared as FNV-1a checksums.
    auto levels = apps::referenceBfs(adjacency, source);
    const std::uint64_t good = suite::fnv1a(levels);
    levels.back() ^= 1;
    EXPECT_NE(suite::fnv1a(levels), good);
}

TEST(Outcome, WrongAnswerFailsAndExitsOneRefusalOnlyFails)
{
    suite::Outcome out;
    out.tally.check(true);
    out.tally.refuse();
    EXPECT_EQ(out.tally.failed(), 1u);
    EXPECT_EQ(suite::exitStatus(out), 0);
    out.tally.check(false);
    EXPECT_EQ(out.tally.attempted, 3u);
    EXPECT_EQ(out.tally.failed(), 2u);
    EXPECT_EQ(suite::exitStatus(out), 1);
}

TEST(Percentile, MatchesTypeSevenInterpolation)
{
    std::vector<double> twenty;
    for (int i = 20; i >= 1; --i)
        twenty.push_back(i);
    EXPECT_DOUBLE_EQ(suite::percentileOf(twenty, 50.0), 10.5);
    EXPECT_DOUBLE_EQ(suite::percentileOf(twenty, 95.0), 19.05);
    EXPECT_DOUBLE_EQ(suite::percentileOf(twenty, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(suite::percentileOf(twenty, 100.0), 20.0);
    EXPECT_DOUBLE_EQ(suite::percentileOf({4.0}, 95.0), 4.0);
    EXPECT_DOUBLE_EQ(suite::percentileOf({}, 50.0), 0.0);
}

TEST(Spans, SelfTimesSumToTheRootDuration)
{
    suite::SpanLog log;
    log.setEnabled(true);
    {
        suite::ScopedSpan root(log, "workload");
        for (int i = 0; i < 3; ++i) {
            suite::ScopedSpan child(log, "round", i);
            suite::ScopedSpan grandchild(log, "app_run", i);
        }
        log.setEnabled(false);
        suite::ScopedSpan ignored(log, "round", 9);
    }
    const auto &spans = log.spans();
    ASSERT_EQ(spans.size(), 7u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 1);
    double sum = 0.0;
    for (const double s : log.selfSeconds()) {
        EXPECT_GE(s, -1e-12);
        sum += s;
    }
    EXPECT_NEAR(sum, spans[0].end - spans[0].start, 1e-9);
}

/** Metric names of one BENCHMARK.json list. */
std::set<std::string>
specNames(const char *list)
{
    std::ifstream in(ALPHA_BENCH_SPEC);
    std::stringstream text;
    text << in.rdbuf();
    telemetry::JsonValue spec;
    std::string error;
    EXPECT_TRUE(telemetry::JsonValue::parse(text.str(), spec, &error))
        << error;
    std::set<std::string> names;
    if (const telemetry::JsonValue *items = spec.find(list)) {
        for (const telemetry::JsonValue &m : items->items())
            names.insert(m.find("name")->asString());
    }
    return names;
}

TEST(Metrics, EveryWorkloadPrintsExactlyTheSpecMetrics)
{
    const std::regex valid("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    for (const bool trace : {false, true}) {
        const auto expected = specNames(trace ? "per_layer" : "end_to_end");
        ASSERT_FALSE(expected.empty());
        for (const std::string &name : suite::workloadNames()) {
            suite::Options opt;
            opt.workload = name;
            opt.seconds = 0.0;
            opt.smoke = true;
            opt.trace = trace;
            const suite::Outcome out = suite::runWorkload(opt);
            EXPECT_TRUE(out.correct()) << name;
            EXPECT_EQ(out.tally.failed(), 0u) << name;
            std::set<std::string> printed;
            for (const suite::Metric &m : out.metrics) {
                EXPECT_TRUE(std::regex_match(m.name, valid)) << m.name;
                EXPECT_TRUE(std::isfinite(m.value)) << m.name;
                printed.insert(m.name);
            }
            EXPECT_EQ(printed.size(), out.metrics.size()) << name;
            EXPECT_EQ(printed, expected) << name << " trace=" << trace;
        }
    }
}

} // namespace
