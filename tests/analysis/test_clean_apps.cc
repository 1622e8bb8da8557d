/**
 * @file
 * pim-verify end-to-end check: with a checker attached to the system,
 * the kernels backing all four graph applications -- across every MxV
 * strategy, so each SpMV/SpMSpV variant gets exercised -- must
 * produce traces with zero findings. This is the regression gate
 * the CI pim-verify job runs against the bundled datasets; here it
 * runs on small random graphs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "analysis/checker.hh"
#include "apps/graph_apps.hh"
#include "common/random.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"

using namespace alphapim;
using namespace alphapim::apps;

namespace
{

upmem::UpmemSystem
testSystem(std::shared_ptr<analysis::TraceChecker> checker)
{
    upmem::SystemConfig cfg;
    cfg.numDpus = 16;
    cfg.dpu.tasklets = 8;
    return upmem::UpmemSystem(cfg, {std::move(checker)});
}

sparse::CooMatrix<float>
socialGraph(std::uint64_t seed)
{
    Rng rng(seed);
    const auto list = sparse::generateScaleMatched(600, 8, 25, rng);
    return sparse::edgeListToSymmetricCoo(list);
}

/** A fresh all-families checker and a system it observes. */
class CleanApps : public ::testing::Test
{
  protected:
    const std::shared_ptr<analysis::TraceChecker> checker =
        std::make_shared<analysis::TraceChecker>();
    const upmem::UpmemSystem sys = testSystem(checker);

    /** Assert the run so far produced zero findings; print any. */
    void
    expectClean(const char *what) const
    {
        const auto rep = checker->report();
        std::ostringstream os;
        for (const auto &f : rep.findings)
            os << "\n  " << analysis::describeFinding(f);
        EXPECT_EQ(rep.total(), 0u)
            << what << " produced findings:" << os.str();
        EXPECT_GT(rep.dpusChecked, 0u)
            << what << " was not analyzed at all";
    }
};

const core::MxvStrategy kStrategies[] = {
    core::MxvStrategy::Adaptive,
    core::MxvStrategy::SpmspvOnly,
    core::MxvStrategy::SpmvOnly,
};

} // namespace

TEST_F(CleanApps, BfsTracesHaveNoFindings)
{
    const auto adj = socialGraph(1);
    const NodeId source = sparse::largestComponentVertex(adj);
    for (const auto strategy : kStrategies) {
        AppConfig cfg;
        cfg.strategy = strategy;
        runBfs(sys, adj, source, cfg);
    }
    expectClean("bfs");
}

TEST_F(CleanApps, SsspTracesHaveNoFindings)
{
    Rng rng(7);
    const auto adj = sparse::assignSymmetricWeights(
        socialGraph(2), 1.0f, 64.0f, rng);
    const NodeId source = sparse::largestComponentVertex(adj);
    for (const auto strategy : kStrategies) {
        AppConfig cfg;
        cfg.strategy = strategy;
        runSssp(sys, adj, source, cfg);
    }
    expectClean("sssp");
}

TEST_F(CleanApps, PprTracesHaveNoFindings)
{
    const auto adj = socialGraph(3);
    const NodeId source = sparse::largestComponentVertex(adj);
    for (const auto strategy : kStrategies) {
        AppConfig cfg;
        cfg.strategy = strategy;
        cfg.pprIterations = 5;
        runPpr(sys, adj, source, cfg);
    }
    expectClean("ppr");
}

TEST_F(CleanApps, ConnectedComponentsTracesHaveNoFindings)
{
    const auto adj = socialGraph(4);
    for (const auto strategy : kStrategies) {
        AppConfig cfg;
        cfg.strategy = strategy;
        runConnectedComponents(sys, adj, cfg);
    }
    expectClean("cc");
}
