/**
 * @file
 * Bit-identity gate of the batching substrate: a batched multi-source
 * BFS/SSSP run must produce, for every lane, results *bit-identical*
 * to the corresponding single-source run -- across all four kernel
 * strategies. This is the property that lets the serving subsystem
 * coalesce tenant queries without changing any tenant's answer.
 * Single-source runs are one-lane batches of the same update, so
 * every lane is also compared, exactly, with the host reference.
 */

#include <gtest/gtest.h>

#include "apps/multi_source.hh"
#include "apps/reference_algorithms.hh"
#include "common/random.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"

using namespace alphapim;
using namespace alphapim::apps;

namespace
{

upmem::UpmemSystem
testSystem(unsigned dpus = 16)
{
    upmem::SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.dpu.tasklets = 8;
    return upmem::UpmemSystem(cfg);
}

sparse::CooMatrix<float>
socialGraph(std::uint64_t seed)
{
    Rng rng(seed);
    const auto list = sparse::generateScaleMatched(500, 6, 20, rng);
    return sparse::edgeListToSymmetricCoo(list);
}

std::vector<NodeId>
pickSources(NodeId n, unsigned count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<NodeId> sources;
    for (unsigned s = 0; s < count; ++s)
        sources.push_back(
            static_cast<NodeId>(rng.nextBounded(n)));
    return sources;
}

class MultiSourceAcrossStrategies
    : public testing::TestWithParam<core::MxvStrategy>
{
};

std::string
strategyName(const testing::TestParamInfo<core::MxvStrategy> &info)
{
    std::string s = core::mxvStrategyName(info.param);
    for (char &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

} // namespace

TEST_P(MultiSourceAcrossStrategies, BfsLanesBitIdenticalToSequential)
{
    const auto sys = testSystem();
    const auto adj = socialGraph(7);
    AppConfig cfg;
    cfg.strategy = GetParam();

    // 16 sources including a duplicate pair: lanes must be
    // independent even when two share a vertex.
    auto sources = pickSources(adj.numRows(), 15, 11);
    sources.push_back(sources.front());

    const auto batched = runMultiBfs(sys, adj, sources, cfg);
    ASSERT_EQ(batched.levels.size(), sources.size());
    EXPECT_TRUE(batched.converged);
    const auto csr = sparse::CsrMatrix<float>::fromCoo(adj);
    for (std::size_t s = 0; s < sources.size(); ++s) {
        const auto solo = runBfs(sys, adj, sources[s], cfg);
        // operator== on the level vectors: exact, element for
        // element.
        EXPECT_EQ(batched.levels[s], solo.levels)
            << "lane " << s << " (source " << sources[s] << ")";
        EXPECT_EQ(batched.levels[s], referenceBfs(csr, sources[s]))
            << "lane " << s << " (source " << sources[s] << ")";
    }
}

TEST_P(MultiSourceAcrossStrategies, SsspLanesBitIdenticalToSequential)
{
    const auto sys = testSystem();
    Rng rng(3);
    const auto weighted = sparse::assignSymmetricWeights(
        socialGraph(9), 1.0f, 64.0f, rng);
    AppConfig cfg;
    cfg.strategy = GetParam();

    auto sources = pickSources(weighted.numRows(), kSsspLanes - 1, 5);
    sources.push_back(sources.front()); // duplicate lane

    const auto batched = runMultiSssp(sys, weighted, sources, cfg);
    ASSERT_EQ(batched.distances.size(), sources.size());
    EXPECT_TRUE(batched.converged);
    const auto csr = sparse::CsrMatrix<float>::fromCoo(weighted);
    for (std::size_t s = 0; s < sources.size(); ++s) {
        const auto solo = runSssp(sys, weighted, sources[s], cfg);
        // Integer weights make every distance exact in float, so the
        // reference matches exactly too.
        const auto reference = referenceSssp(csr, sources[s]);
        // Bit-identical floats: min is exact and the batched run
        // pairs the same addition operands the sequential run does.
        ASSERT_EQ(batched.distances[s].size(),
                  solo.distances.size());
        ASSERT_EQ(batched.distances[s].size(), reference.size());
        for (NodeId v = 0; v < solo.distances.size(); ++v) {
            EXPECT_EQ(batched.distances[s][v], solo.distances[v])
                << "lane " << s << " vertex " << v;
            EXPECT_EQ(batched.distances[s][v], reference[v])
                << "lane " << s << " vertex " << v << " (reference)";
        }
    }
}

TEST_P(MultiSourceAcrossStrategies, SharedLaunchesNotPerSource)
{
    // The whole point of batching: iteration count tracks the max
    // frontier depth, not the number of sources.
    const auto sys = testSystem();
    const auto adj = socialGraph(13);
    AppConfig cfg;
    cfg.strategy = GetParam();

    const auto sources = pickSources(adj.numRows(), 8, 17);
    const auto batched = runMultiBfs(sys, adj, sources, cfg);

    std::size_t max_solo_iters = 0;
    for (const NodeId s : sources) {
        const auto solo = runBfs(sys, adj, s, cfg);
        max_solo_iters =
            std::max(max_solo_iters, solo.iterations.size());
    }
    EXPECT_EQ(batched.iterations.size(), max_solo_iters);
}

TEST(MultiSource, SingleSourceBatchMatchesSolo)
{
    const auto sys = testSystem();
    const auto adj = socialGraph(21);
    const NodeId source = sparse::largestComponentVertex(adj);

    const auto batched = runMultiBfs(sys, adj, {source});
    const auto solo = runBfs(sys, adj, source);
    ASSERT_EQ(batched.levels.size(), 1u);
    EXPECT_EQ(batched.levels[0], solo.levels);
    EXPECT_EQ(batched.iterations.size(), solo.iterations.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MultiSourceAcrossStrategies,
    testing::Values(core::MxvStrategy::Adaptive,
                    core::MxvStrategy::CostModel,
                    core::MxvStrategy::SpmspvOnly,
                    core::MxvStrategy::SpmvOnly),
    strategyName);
