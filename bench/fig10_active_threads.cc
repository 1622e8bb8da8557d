/**
 * @file
 * Figure 10: average number of active tasklets per cycle for SpMV
 * (DCOO) and SpMSpV (CSC-2D) at input densities of 1%, 10%, 50%.
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
    printRunHeader("Figure 10: average active threads per cycle",
                   opt);

    const auto names = datasetList(opt, {"A302", "e-En", "face"});
    const auto sys = makeSystem(opt, opt.dpus);
    const unsigned tasklets = sys.config().dpu.tasklets;
    const std::vector<double> densities = {0.01, 0.10, 0.50};

    RunRecorder recorder(opt, "fig10");
    TextTable table("average active tasklets per cycle (max " +
                    std::to_string(tasklets) + ")");
    table.setHeader({"dataset", "density", "SpMV", "SpMSpV"});
    for (const auto &name : names) {
        const auto data = loadDataset(name, opt);
        const NodeId n = data.adjacency.numRows();
        const auto spmv = makeKernel<IntPlusTimes>(
            KernelVariant::SpmvDcoo2d, sys, data.adjacency, opt.dpus);
        const auto spmspv = makeKernel<IntPlusTimes>(
            KernelVariant::SpmspvCsc2d, sys, data.adjacency,
            opt.dpus);
        for (unsigned di = 0; di < densities.size(); ++di) {
            const auto x = randomInputVector<std::uint32_t>(
                n, densities[di], opt.seed + di, 1u, 8u);
            const std::string density_tag =
                "/d" + TextTable::num(densities[di], 2);
            recorder.begin();
            const auto rv = spmv->run(x);
            recorder.emit(name, "spmv" + density_tag, rv.times,
                          &rv.profile, 1);
            recorder.begin();
            const auto rs = spmspv->run(x);
            recorder.emit(name, "spmspv" + density_tag, rs.times,
                          &rs.profile, 1);
            table.addRow(
                {name, TextTable::pct(densities[di], 0),
                 TextTable::num(
                     rv.profile.aggregate.avgActiveThreads(), 2),
                 TextTable::num(
                     rs.profile.aggregate.avgActiveThreads(), 2)});
        }
        table.addSeparator();
    }
    table.print();

    std::printf("\npaper expectation: SpMSpV thread activity grows "
                "with density and exceeds SpMV's\n");
    return writeTelemetryOutputs(opt);
}
