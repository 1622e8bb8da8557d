/**
 * @file
 * Figure 4: per-iteration execution time of BFS and SSSP under the
 * SpMV-only and SpMSpV-only strategies, with the input-vector
 * density per iteration -- the evidence behind adaptive switching.
 * Datasets: A302 (scale-free) and r-TX (regular), as in the paper.
 */

#include <cstdio>

#include "apps/graph_apps.hh"
#include "bench_common.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"

using namespace alphapim;
using namespace alphapim::bench;

namespace
{

void
runOne(const upmem::UpmemSystem &sys, const sparse::Dataset &data,
       bool sssp, const BenchOptions &opt, RunRecorder &recorder)
{
    Rng rng(opt.seed);
    sparse::CooMatrix<float> matrix = data.adjacency;
    if (sssp)
        matrix = sparse::assignSymmetricWeights(matrix, 1.0f, 64.0f,
                                                rng);
    const NodeId source = sparse::largestComponentVertex(matrix);

    apps::AppConfig spmv_cfg, spmspv_cfg;
    spmv_cfg.strategy = core::MxvStrategy::SpmvOnly;
    spmspv_cfg.strategy = core::MxvStrategy::SpmspvOnly;

    const std::string algo_tag = sssp ? "SSSP" : "BFS";
    recorder.begin();
    const auto run_spmv =
        sssp ? apps::runSssp(sys, matrix, source, spmv_cfg)
             : apps::runBfs(sys, matrix, source, spmv_cfg);
    recorder.emit(data.spec.abbreviation, algo_tag + "/spmv-only",
                  run_spmv.total, &run_spmv.profile,
                  run_spmv.iterations.size());
    recorder.begin();
    const auto run_spmspv =
        sssp ? apps::runSssp(sys, matrix, source, spmspv_cfg)
             : apps::runBfs(sys, matrix, source, spmspv_cfg);
    recorder.emit(data.spec.abbreviation, algo_tag + "/spmspv-only",
                  run_spmspv.total, &run_spmspv.profile,
                  run_spmspv.iterations.size());

    TextTable table(std::string(sssp ? "SSSP" : "BFS") + " on " +
                    data.spec.abbreviation +
                    " (per-iteration time, ms)");
    table.setHeader({"iter", "density", "SpMV-only", "SpMSpV-only"});
    const std::size_t iters = std::max(run_spmv.iterations.size(),
                                       run_spmspv.iterations.size());
    for (std::size_t i = 0; i < iters; ++i) {
        const auto *a = i < run_spmv.iterations.size()
                            ? &run_spmv.iterations[i]
                            : nullptr;
        const auto *b = i < run_spmspv.iterations.size()
                            ? &run_spmspv.iterations[i]
                            : nullptr;
        const double density =
            a ? a->inputDensity : b->inputDensity;
        table.addRow(
            {std::to_string(i + 1), TextTable::pct(density, 1),
             a ? TextTable::num(toMillis(a->times.total()), 3) : "-",
             b ? TextTable::num(toMillis(b->times.total()), 3)
               : "-"});
    }
    table.addSeparator();
    table.addRow({"total", "",
                  TextTable::num(toMillis(run_spmv.total.total()), 2),
                  TextTable::num(toMillis(run_spmspv.total.total()),
                                 2)});
    table.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = parseOptions(argc, argv);
    printRunHeader(
        "Figure 4: per-iteration SpMV vs SpMSpV (BFS, SSSP)", opt);

    const auto names = datasetList(opt, {"A302", "r-TX"});
    const auto sys = makeSystem(opt, opt.dpus);
    RunRecorder recorder(opt, "fig04");
    for (const auto &name : names) {
        const auto data = loadDataset(name, opt);
        runOne(sys, data, /*sssp=*/false, opt, recorder);
        runOne(sys, data, /*sssp=*/true, opt, recorder);
    }
    std::printf("paper expectation: SpMSpV wins at low density, "
                "SpMV steady; crossover as the frontier densifies\n");
    return writeTelemetryOutputs(opt);
}
