/** @file Bench harness plumbing: option parsing, dataset scaling,
 * formatting. */

#include <gtest/gtest.h>

#include "bench_common.hh"

using namespace alphapim;
using namespace alphapim::bench;

namespace
{

BenchOptions
parse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (auto &a : args)
        argv.push_back(a.data());
    return parseOptions(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(BenchCommon, Defaults)
{
    const auto opt = parse({});
    EXPECT_EQ(opt.dpus, 2048u);
    EXPECT_EQ(opt.seed, 42u);
    EXPECT_FALSE(opt.quick);
    EXPECT_TRUE(opt.datasets.empty());
}

TEST(BenchCommon, FlagsParse)
{
    const auto opt = parse({"--dpus", "512", "--seed", "7",
                            "--scale", "0.5", "--datasets",
                            "A302,face", "--edge-target", "1000"});
    EXPECT_EQ(opt.dpus, 512u);
    EXPECT_EQ(opt.seed, 7u);
    EXPECT_DOUBLE_EQ(opt.scale, 0.5);
    EXPECT_EQ(opt.edgeTarget, 1000u);
    ASSERT_EQ(opt.datasets.size(), 2u);
    EXPECT_EQ(opt.datasets[0], "A302");
    EXPECT_EQ(opt.datasets[1], "face");
}

TEST(BenchCommon, QuickShrinksEverything)
{
    const auto opt = parse({"--quick"});
    EXPECT_LE(opt.dpus, 256u);
    EXPECT_LE(opt.edgeTarget, 50'000u);
    EXPECT_LE(opt.roadEdgeTarget, 20'000u);
}

TEST(BenchCommon, EffectiveScaleCapsLargeDatasets)
{
    BenchOptions opt;
    opt.edgeTarget = 100'000;
    opt.roadEdgeTarget = 10'000;
    const auto &big = sparse::findSpec("A302");    // 899k edges
    const auto &small = sparse::findSpec("as00");  // 12.5k edges
    const auto &road = sparse::findSpec("r-TX");   // 1.54M edges
    EXPECT_NEAR(effectiveScale(big, opt), 100'000.0 / 899'792.0,
                1e-9);
    EXPECT_DOUBLE_EQ(effectiveScale(small, opt), 1.0);
    EXPECT_NEAR(effectiveScale(road, opt), 10'000.0 / 1'541'898.0,
                1e-9);
}

TEST(BenchCommon, ExplicitScaleOverridesAuto)
{
    BenchOptions opt;
    opt.scale = 0.3;
    const auto &big = sparse::findSpec("A302");
    EXPECT_DOUBLE_EQ(effectiveScale(big, opt), 0.3);
}

TEST(BenchCommon, DatasetListPrefersOverride)
{
    BenchOptions opt;
    EXPECT_EQ(datasetList(opt, {"a", "b"}),
              (std::vector<std::string>{"a", "b"}));
    opt.datasets = {"c"};
    EXPECT_EQ(datasetList(opt, {"a", "b"}),
              (std::vector<std::string>{"c"}));
}

TEST(BenchCommon, RandomInputHitsDensityApproximately)
{
    const auto x = randomInputVector<std::uint32_t>(
        20000, 0.25, 3, 1u, 8u);
    EXPECT_NEAR(x.density(), 0.25, 0.02);
    for (std::size_t k = 0; k < x.nnz(); ++k) {
        EXPECT_GE(x.values()[k], 1u);
        EXPECT_LE(x.values()[k], 8u);
    }
}

TEST(BenchCommon, RandomInputNeverEmpty)
{
    const auto x = randomInputVector<std::uint32_t>(
        100, 0.0, 9, 1u, 1u);
    EXPECT_EQ(x.nnz(), 1u); // guaranteed sentinel nonzero
}

TEST(BenchCommon, PhaseCellsNormalize)
{
    core::PhaseTimes t;
    t.load = 0.5;
    t.kernel = 0.25;
    t.retrieve = 0.125;
    t.merge = 0.125;
    const auto cells = phaseCells(t, 1.0);
    ASSERT_EQ(cells.size(), 5u);
    EXPECT_EQ(cells[0], "0.500");
    EXPECT_EQ(cells[4], "1.000");
    const auto halved = phaseCells(t, 2.0);
    EXPECT_EQ(halved[0], "0.250");
}

TEST(BenchCommon, MakeSystemHonoursDpuCount)
{
    const auto sys = makeSystem(BenchOptions{}, 128);
    EXPECT_EQ(sys.numDpus(), 128u);
}

TEST(BenchCommon, CheckFlagBuildsTheSystemsChecker)
{
    EXPECT_TRUE(parse({}).observers().empty());
    const auto opt = parse({"--check=dma", "--check-out", "r.json"});
    ASSERT_TRUE(opt.check.checker);
    EXPECT_TRUE(opt.check.checker->options().dma);
    EXPECT_FALSE(opt.check.checker->options().race);
    EXPECT_EQ(opt.check.out, "r.json");
    ASSERT_EQ(opt.observers().size(), 1u);
    EXPECT_EQ(opt.observers()[0], opt.check.checker);
}
