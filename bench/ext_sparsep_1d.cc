/**
 * @file
 * Extension experiment: the SparseP 1D SpMV design space behind the
 * paper's section 3 choice of COO.nnz. Compares row-granular COO.row
 * and CSR.row against nnz-balanced COO.nnz (and the 2D DCOO) on
 * regular and skewed graphs. Expectation (from the SparseP study):
 * on skewed graphs, row-granular partitioning overloads the hub DPUs
 * and the kernel time balloons; nnz balancing fixes it.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/kernels.hh"

using namespace alphapim;
using namespace alphapim::bench;
using namespace alphapim::core;

int
main(int argc, char **argv)
{
    const auto opt = parseOptions(argc, argv);
    printRunHeader("Extension: SparseP 1D SpMV partition balance",
                   opt);

    const auto names =
        datasetList(opt, {"r-PA", "p2p-24", "e-En", "s-S11", "as00"});
    const auto sys = makeSystem(opt, opt.dpus);
    const std::vector<KernelVariant> variants = {
        KernelVariant::SpmvCoo1d, KernelVariant::SpmvCooRow1d,
        KernelVariant::SpmvCsrRow1d, KernelVariant::SpmvDcoo2d};

    RunRecorder recorder(opt, "ext_sparsep_1d");
    TextTable table("kernel-phase time (ms) and total, dense input");
    table.setHeader({"dataset", "deg-std/avg", "variant", "kernel",
                     "total", "kernel vs COO.nnz"});
    for (const auto &name : names) {
        const auto data = loadDataset(name, opt);
        const NodeId n = data.adjacency.numRows();
        const auto x = randomInputVector<std::uint32_t>(
            n, 1.0, opt.seed, 1u, 8u);
        const double skew = data.stats.degreeStd /
                            std::max(1e-9, data.stats.avgDegree);

        double coo_nnz_kernel = 0.0;
        for (auto v : variants) {
            const auto kernel = makeKernel<IntPlusTimes>(
                v, sys, data.adjacency, opt.dpus);
            recorder.begin();
            const auto r = kernel->run(x);
            recorder.emit(name, kernelVariantName(v), r.times,
                          &r.profile, 1);
            if (v == KernelVariant::SpmvCoo1d)
                coo_nnz_kernel = r.times.kernel;
            table.addRow(
                {name, TextTable::num(skew, 2),
                 kernelVariantName(v),
                 TextTable::num(toMillis(r.times.kernel), 3),
                 TextTable::num(toMillis(r.times.total()), 3),
                 TextTable::num(r.times.kernel / coo_nnz_kernel, 2) +
                     "x"});
        }
        table.addSeparator();
    }
    table.print();

    std::printf("\nSparseP expectation: .row variants degrade with "
                "degree skew (hub DPUs serialize); COO.nnz stays "
                "balanced, which is why the paper uses it\n");
    return writeTelemetryOutputs(opt);
}
