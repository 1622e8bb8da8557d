/** @file Degenerate inputs: isolated sources, tiny graphs, zero
 * iterations -- the apps must behave sensibly, not crash. */

#include <cmath>

#include <gtest/gtest.h>

#include "apps/graph_apps.hh"
#include "apps/reference_algorithms.hh"

using namespace alphapim;
using namespace alphapim::apps;

namespace
{

upmem::UpmemSystem
tinySystem()
{
    upmem::SystemConfig cfg;
    cfg.numDpus = 4;
    cfg.dpu.tasklets = 4;
    return upmem::UpmemSystem(cfg);
}

/** 6-vertex graph where vertex 5 is isolated. */
sparse::CooMatrix<float>
graphWithIsolatedVertex()
{
    sparse::CooMatrix<float> m(6, 6);
    auto add = [&](NodeId u, NodeId v) {
        m.addEntry(u, v, 1.0f);
        m.addEntry(v, u, 1.0f);
    };
    add(0, 1);
    add(1, 2);
    add(2, 3);
    add(3, 4);
    return m;
}

} // namespace

TEST(AppEdgeCases, BfsFromIsolatedVertexConvergesImmediately)
{
    const auto sys = tinySystem();
    const auto adj = graphWithIsolatedVertex();
    const auto result = runBfs(sys, adj, 5);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.iterations.size(), 1u);
    EXPECT_EQ(result.levels[5], 0u);
    for (NodeId v = 0; v < 5; ++v)
        EXPECT_EQ(result.levels[v], invalidNode);
}

TEST(AppEdgeCases, SsspFromIsolatedVertex)
{
    const auto sys = tinySystem();
    const auto adj = graphWithIsolatedVertex();
    const auto result = runSssp(sys, adj, 5);
    EXPECT_TRUE(result.converged);
    EXPECT_FLOAT_EQ(result.distances[5], 0.0f);
    for (NodeId v = 0; v < 5; ++v)
        EXPECT_TRUE(std::isinf(result.distances[v]));
}

TEST(AppEdgeCases, PprZeroIterations)
{
    const auto sys = tinySystem();
    const auto adj = graphWithIsolatedVertex();
    AppConfig cfg;
    cfg.pprIterations = 0;
    cfg.pprTolerance = 0.0;
    const auto result = runPpr(sys, adj, 0, cfg);
    EXPECT_TRUE(result.iterations.empty());
    EXPECT_FLOAT_EQ(result.ranks[0], 1.0f);
    // Tolerance 0 is fixed-iteration mode: the run counts as
    // converged even after zero launches.
    EXPECT_TRUE(result.converged);

    // With a tolerance, zero launches never reach it.
    cfg.pprTolerance = 1e-4;
    EXPECT_FALSE(runPpr(sys, adj, 0, cfg).converged);
}

TEST(AppEdgeCases, PprOnIsolatedSourceKeepsAllMass)
{
    const auto sys = tinySystem();
    const auto adj = graphWithIsolatedVertex();
    AppConfig cfg;
    cfg.pprIterations = 5;
    cfg.pprTolerance = 0.0;
    const auto result = runPpr(sys, adj, 5, cfg);
    // The restart vector returns all rank to the isolated source.
    EXPECT_NEAR(result.ranks[5], 1.0f - 0.85f, 1e-5);
    for (NodeId v = 0; v < 5; ++v)
        EXPECT_FLOAT_EQ(result.ranks[v], 0.0f);
}

TEST(AppEdgeCases, BfsPathGraphMaxIterationCap)
{
    // A 12-vertex path takes 11 iterations; a cap of 3 must stop
    // early without converging.
    sparse::CooMatrix<float> path(12, 12);
    for (NodeId v = 0; v + 1 < 12; ++v) {
        path.addEntry(v, v + 1, 1.0f);
        path.addEntry(v + 1, v, 1.0f);
    }
    const auto sys = tinySystem();
    AppConfig cfg;
    cfg.maxIterations = 3;
    const auto result = runBfs(sys, path, 0, cfg);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.iterations.size(), 3u);
    EXPECT_EQ(result.levels[3], 3u);
    EXPECT_EQ(result.levels[4], invalidNode);
}

TEST(AppEdgeCases, TwoVertexGraph)
{
    sparse::CooMatrix<float> pair(2, 2);
    pair.addEntry(0, 1, 3.0f);
    pair.addEntry(1, 0, 3.0f);
    const auto sys = tinySystem();
    const auto bfs = runBfs(sys, pair, 0);
    EXPECT_EQ(bfs.levels, (std::vector<std::uint32_t>{0, 1}));
    const auto sssp = runSssp(sys, pair, 1);
    EXPECT_FLOAT_EQ(sssp.distances[0], 3.0f);
    const auto cc = runConnectedComponents(sys, pair);
    EXPECT_EQ(cc.levels, (std::vector<std::uint32_t>{0, 0}));
}

TEST(AppEdgeCasesDeath, SourceOutOfRangePanics)
{
    const auto sys = tinySystem();
    const auto adj = graphWithIsolatedVertex();
    EXPECT_DEATH(runBfs(sys, adj, 6), "out of range");
    EXPECT_DEATH(runSssp(sys, adj, 99), "out of range");
}
