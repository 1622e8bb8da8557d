/**
 * @file
 * Figure 7: end-to-end ALPHA-PIM (adaptive kernel switching) vs the
 * SparseP SpMV-only baseline across BFS, SSSP, and PPR. The paper
 * reports average speedups of 1.72x / 1.34x / 1.22x.
 */

#include <cstdio>

#include "apps/graph_apps.hh"
#include "bench_common.hh"
#include "common/stats.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"

using namespace alphapim;
using namespace alphapim::bench;

namespace
{

apps::AppResult
runAlgo(const upmem::UpmemSystem &sys,
        const sparse::CooMatrix<float> &matrix, NodeId source,
        unsigned algo, core::MxvStrategy strategy)
{
    apps::AppConfig cfg;
    cfg.strategy = strategy;
    switch (algo) {
      case 0:
        return apps::runBfs(sys, matrix, source, cfg);
      case 1:
        return apps::runSssp(sys, matrix, source, cfg);
      default:
        cfg.pprTolerance = 0.0;
        return apps::runPpr(sys, matrix, source, cfg);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = parseOptions(argc, argv);
    printRunHeader(
        "Figure 7: ALPHA-PIM (adaptive) vs SparseP SpMV-only", opt);

    const auto names = datasetList(
        opt, {"A302", "as00", "s-S11", "p2p-24", "e-En", "face"});
    const auto sys = makeSystem(opt, opt.dpus);
    const char *algo_names[] = {"BFS", "SSSP", "PPR"};
    const char *paper[] = {"1.72x", "1.34x", "1.22x"};

    RunRecorder recorder(opt, "fig07");
    TextTable table("total time per run (ms) and adaptive speedup");
    table.setHeader({"algo", "dataset", "SpMV-only", "adaptive",
                     "speedup", "spmspv/spmv launches"});
    for (unsigned algo = 0; algo < 3; ++algo) {
        std::vector<double> speedups;
        for (const auto &name : names) {
            const auto data = loadDataset(name, opt);
            Rng rng(opt.seed);
            sparse::CooMatrix<float> matrix = data.adjacency;
            if (algo == 1) {
                matrix = sparse::assignSymmetricWeights(
                    matrix, 1.0f, 64.0f, rng);
            }
            const NodeId source =
                sparse::largestComponentVertex(matrix);

            const std::string algo_tag = algo_names[algo];
            recorder.begin();
            const auto baseline = runAlgo(
                sys, matrix, source, algo,
                core::MxvStrategy::SpmvOnly);
            recorder.emit(name, algo_tag + "/spmv-only",
                          baseline.total, &baseline.profile,
                          baseline.iterations.size());
            recorder.begin();
            const auto adaptive = runAlgo(
                sys, matrix, source, algo,
                core::MxvStrategy::Adaptive);
            recorder.emit(name, algo_tag + "/adaptive",
                          adaptive.total, &adaptive.profile,
                          adaptive.iterations.size());

            const double speedup =
                baseline.total.total() / adaptive.total.total();
            speedups.push_back(speedup);
            table.addRow(
                {algo_names[algo], name,
                 TextTable::num(toMillis(baseline.total.total()), 2),
                 TextTable::num(toMillis(adaptive.total.total()), 2),
                 TextTable::num(speedup, 2) + "x",
                 std::to_string(adaptive.spmspvLaunches) + "/" +
                     std::to_string(adaptive.spmvLaunches)});
        }
        table.addRow({algo_names[algo], "geomean", "", "",
                      TextTable::num(geometricMean(speedups), 2) +
                          "x (paper avg " + paper[algo] + ")",
                      ""});
        table.addSeparator();
    }
    table.print();

    std::printf("\npaper expectation: adaptive switching beats "
                "SpMV-only on all three applications\n");
    return writeTelemetryOutputs(opt);
}
