/**
 * @file
 * Table 4: CPU (GridGraph model) vs GPU (cuGraph model) vs the
 * simulated UPMEM system for BFS, SSSP and PPR on the six datasets
 * the paper tabulates -- execution time, compute utilization, and
 * energy -- plus the headline average speedups (paper: kernel
 * 10.2x/48.8x/3.6x and total 2.6x/10.4x/1.7x over the CPU).
 */

#include <cstdio>

#include "baseline/system_comparison.hh"
#include "bench_common.hh"
#include "common/stats.hh"

using namespace alphapim;
using namespace alphapim::bench;
using namespace alphapim::baseline;

int
main(int argc, char **argv)
{
    auto opt = parseOptions(argc, argv);
    if (!opt.quick) {
        // The CPU baseline's work shrinks with the dataset while the
        // PIM transfer floors do not, so this comparison needs
        // near-paper-size datasets to be meaningful (A302 at 900k
        // edges is the largest of the tabulated six).
        opt.edgeTarget = std::max<EdgeId>(opt.edgeTarget, 900'000);
    }
    printRunHeader("Table 4: system comparison (CPU / GPU / UPMEM)",
                   opt);

    // Table 3 recap.
    TextTable specs("Table 3: comparison system specs");
    specs.setHeader({"system", "compute", "frequency", "bandwidth",
                     "peak"});
    specs.addRow({"Intel i7-1265U (GridGraph)", "10C/12T", "1.8 GHz",
                  "83.2 GB/s", "647.25 GFLOPS"});
    specs.addRow({"NVIDIA RTX 3050 (cuGraph)", "2560 CUDA",
                  "1.55 GHz", "224 GB/s", "9.1 TFLOPS"});
    specs.addRow({"UPMEM (simulated)",
                  std::to_string(opt.dpus) + " DPUs", "350 MHz",
                  "rank-parallel", "4.66 GFLOPS"});
    specs.print();
    std::printf("\n");

    const auto names = datasetList(
        opt, {"A302", "as00", "s-S11", "p2p-24", "e-En", "face"});
    const auto sys = makeSystem(opt, opt.dpus);
    const SystemComparison cmp(sys);
    const Algo algos[] = {Algo::Bfs, Algo::Sssp, Algo::Ppr};

    RunRecorder recorder(opt, "table4");
    TextTable table("execution time (ms) / utilization (%) / "
                    "energy (J)");
    table.setHeader({"algo", "dataset", "CPU ms", "GPU ms",
                     "UPMEM-K ms", "UPMEM-T ms", "CPU %", "GPU %",
                     "UPMEM-K %", "UPMEM-T %", "CPU J", "GPU J",
                     "UPMEM-K J", "UPMEM-T J"});

    for (Algo algo : algos) {
        std::vector<double> kernel_speedups, total_speedups;
        for (const auto &name : names) {
            const auto data = loadDataset(name, opt);
            apps::AppConfig cfg;
            if (algo == Algo::Ppr)
                cfg.pprTolerance = 0.0;
            recorder.begin();
            const auto row = cmp.compare(algo, data, cfg, opt.seed);
            recorder.emit(name, std::string(algoName(algo)) + "/upmem",
                          row.upmemTimes, &row.upmemProfile,
                          row.upmemIterations);
            table.addRow({algoName(algo), name,
                          TextTable::num(row.cpuMs, 2),
                          TextTable::num(row.gpuMs, 2),
                          TextTable::num(row.upmemKernelMs, 2),
                          TextTable::num(row.upmemTotalMs, 2),
                          TextTable::num(row.cpuUtilPct, 3),
                          TextTable::num(row.gpuUtilPct, 3),
                          TextTable::num(row.upmemKernelUtilPct, 2),
                          TextTable::num(row.upmemTotalUtilPct, 2),
                          TextTable::num(row.cpuJ, 2),
                          TextTable::num(row.gpuJ, 3),
                          TextTable::num(row.upmemKernelJ, 2),
                          TextTable::num(row.upmemTotalJ, 2)});
            kernel_speedups.push_back(row.cpuMs / row.upmemKernelMs);
            total_speedups.push_back(row.cpuMs / row.upmemTotalMs);
        }
        table.addRow(
            {algoName(algo), "avg speedup vs CPU", "", "",
             TextTable::num(geometricMean(kernel_speedups), 1) + "x",
             TextTable::num(geometricMean(total_speedups), 1) + "x",
             "", "", "", "", "", "", "", ""});
        table.addSeparator();
    }
    table.print();

    std::printf("\npaper headline: UPMEM kernel speedups over CPU of "
                "10.2x (BFS), 48.8x (SSSP), 3.6x (PPR); totals 2.6x "
                "/ 10.4x / 1.7x; GPU fastest overall; UPMEM has the "
                "highest compute utilization\n");
    return writeTelemetryOutputs(opt);
}
