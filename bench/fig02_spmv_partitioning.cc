/**
 * @file
 * Figure 2: execution time breakdown of the two top SparseP SpMV
 * partitioning schemes -- COO.nnz (1D) and DCOO (2D) -- with 2048
 * DPUs and INT32 data, normalized to the 1D total per dataset.
 *
 * Expected shape: 1D is dominated by the input-vector broadcast
 * (Load); 2D trades that for Retrieve + Merge and wins overall.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stats.hh"
#include "core/kernels.hh"

using namespace alphapim;
using namespace alphapim::bench;
using namespace alphapim::core;

int
main(int argc, char **argv)
{
    const auto opt = parseOptions(argc, argv);
    printRunHeader("Figure 2: SpMV 1D vs 2D partitioning breakdown",
                   opt);

    const auto names = datasetList(
        opt, {"A302", "as00", "ca-Q", "cit-HP", "e-En", "face",
              "loc-b", "p2p-24", "s-S02", "s-S11", "flk-E"});
    const auto sys = makeSystem(opt, opt.dpus);

    RunRecorder recorder(opt, "fig02");
    TextTable table("normalized to the 1D total per dataset");
    table.setHeader({"dataset", "variant", "load", "kernel",
                     "retrieve", "merge", "total"});

    std::vector<double> ratio_2d_over_1d;
    for (const auto &name : names) {
        const auto data = loadDataset(name, opt);
        const NodeId n = data.adjacency.numRows();
        const auto x = randomInputVector<std::uint32_t>(
            n, 1.0, opt.seed, 1u, 8u);

        const auto spmv1d = makeKernel<IntPlusTimes>(
            KernelVariant::SpmvCoo1d, sys, data.adjacency, opt.dpus);
        const auto spmv2d = makeKernel<IntPlusTimes>(
            KernelVariant::SpmvDcoo2d, sys, data.adjacency, opt.dpus);

        recorder.begin();
        const auto r1 = spmv1d->run(x);
        recorder.emit(name, "spmv-coo1d", r1.times, &r1.profile, 1);
        recorder.begin();
        const auto r2 = spmv2d->run(x);
        recorder.emit(name, "spmv-dcoo2d", r2.times, &r2.profile, 1);
        const double norm = r1.times.total();

        auto cells1 = phaseCells(r1.times, norm);
        cells1.insert(cells1.begin(), {name, "1D (COO.nnz)"});
        table.addRow(cells1);
        auto cells2 = phaseCells(r2.times, norm);
        cells2.insert(cells2.begin(), {name, "2D (DCOO)"});
        table.addRow(cells2);
        table.addSeparator();

        ratio_2d_over_1d.push_back(r2.times.total() / norm);
    }
    table.addRow({"geomean", "2D / 1D total", "", "", "", "",
                  TextTable::num(geometricMean(ratio_2d_over_1d), 3)});
    table.print();

    std::printf("\npaper expectation: 1D Load dominates; 2D total < "
                "1D total on most datasets\n");
    return writeTelemetryOutputs(opt);
}
