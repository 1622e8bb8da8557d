/**
 * @file
 * Figure 8: phase breakdown of BFS, SSSP, and PPR across DPU counts
 * (512 / 1024 / 2048), normalized to the 512-DPU total per dataset.
 *
 * Expected shape: BFS/SSSP dominated by Load+Retrieve (vector
 * exchange between iterations); PPR kernel-dominated (software
 * floats); 2048 DPUs pays more for input-vector distribution and
 * only PPR keeps scaling.
 */

#include <cstdio>

#include "apps/graph_apps.hh"
#include "bench_common.hh"
#include "common/stats.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"

using namespace alphapim;
using namespace alphapim::bench;

int
main(int argc, char **argv)
{
    auto opt = parseOptions(argc, argv);
    if (!opt.quick) {
        // Scaling behaviour needs per-DPU work comparable to the
        // paper's regime (full-size datasets on 512-2048 DPUs), so
        // this figure uses a larger default edge budget.
        opt.edgeTarget = std::max<EdgeId>(opt.edgeTarget, 300'000);
    }
    printRunHeader("Figure 8: application scaling with DPU count",
                   opt);

    const auto names = datasetList(opt, {"A302", "e-En", "face"});
    std::vector<unsigned> dpu_counts = {512, 1024, 2048};
    if (opt.quick)
        dpu_counts = {64, 128, 256};
    const char *algo_names[] = {"BFS", "SSSP", "PPR"};

    // Per (algo, dpu-index): total-time ratios vs the smallest count.
    std::vector<std::vector<double>> ratios(
        3, std::vector<double>());
    std::vector<std::vector<std::vector<double>>> ratio_acc(
        3,
        std::vector<std::vector<double>>(dpu_counts.size()));

    RunRecorder recorder(opt, "fig08");
    TextTable table(
        "phase breakdown normalized to the smallest DPU count");
    table.setHeader({"algo", "dataset", "dpus", "load", "kernel",
                     "retrieve", "merge", "total"});
    for (unsigned algo = 0; algo < 3; ++algo) {
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

            double norm = 0.0;
            for (unsigned di = 0; di < dpu_counts.size(); ++di) {
                const auto sys = makeSystem(opt, dpu_counts[di]);
                apps::AppConfig cfg;
                if (algo == 2)
                    cfg.pprTolerance = 0.0;
                apps::AppResult run;
                recorder.begin();
                switch (algo) {
                  case 0:
                    run = apps::runBfs(sys, matrix, source, cfg);
                    break;
                  case 1:
                    run = apps::runSssp(sys, matrix, source, cfg);
                    break;
                  default:
                    run = apps::runPpr(sys, matrix, source, cfg);
                }
                recorder.emit(name, algo_names[algo], run.total,
                              &run.profile, run.iterations.size(),
                              dpu_counts[di]);
                if (di == 0)
                    norm = run.total.total();
                auto cells = phaseCells(run.total, norm);
                cells.insert(cells.begin(),
                             {algo_names[algo], name,
                              std::to_string(dpu_counts[di])});
                table.addRow(cells);
                ratio_acc[algo][di].push_back(run.total.total() /
                                              norm);
            }
            table.addSeparator();
        }
    }
    table.print();

    std::printf("\n");
    TextTable geo("geomean total vs smallest DPU count");
    geo.setHeader({"algo", std::to_string(dpu_counts[0]),
                   std::to_string(dpu_counts[1]),
                   std::to_string(dpu_counts[2])});
    for (unsigned algo = 0; algo < 3; ++algo) {
        geo.addRow({algo_names[algo],
                    TextTable::num(
                        geometricMean(ratio_acc[algo][0]), 3),
                    TextTable::num(
                        geometricMean(ratio_acc[algo][1]), 3),
                    TextTable::num(
                        geometricMean(ratio_acc[algo][2]), 3)});
    }
    geo.print();

    std::printf("\npaper expectation: BFS/SSSP transfer-bound with "
                "limited gains past 1024 DPUs; PPR keeps scaling\n");
    return writeTelemetryOutputs(opt);
}
