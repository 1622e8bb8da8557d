/**
 * @file
 * Figure 11: dynamic instruction mix (synchronization, arithmetic,
 * scratchpad, DMA, control) for SpMV (DCOO) and SpMSpV (CSC-2D) at
 * input densities of 1%, 10%, 50%.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/kernels.hh"

using namespace alphapim;
using namespace alphapim::bench;
using namespace alphapim::core;
using alphapim::upmem::OpCategory;

int
main(int argc, char **argv)
{
    const auto opt = parseOptions(argc, argv);
    printRunHeader("Figure 11: instruction mix", opt);

    const auto names = datasetList(opt, {"A302", "e-En", "face"});
    const auto sys = makeSystem(opt, opt.dpus);
    const std::vector<double> densities = {0.01, 0.10, 0.50};

    RunRecorder recorder(opt, "fig11");
    TextTable table("share of dispatched instructions");
    table.setHeader({"dataset", "kernel", "density", "sync",
                     "arithmetic", "scratchpad", "dma", "control"});
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
            for (int which = 0; which < 2; ++which) {
                const auto &kernel = which == 0 ? spmv : spmspv;
                recorder.begin();
                const auto r = kernel->run(x);
                recorder.emit(
                    name,
                    std::string(which == 0 ? "spmv" : "spmspv") +
                        "/d" + TextTable::num(densities[di], 2),
                    r.times, &r.profile, 1);
                const auto &p = r.profile.aggregate;
                const double total = static_cast<double>(
                    p.totalInstructions());
                auto share = [&](OpCategory cat) {
                    return TextTable::pct(
                        static_cast<double>(
                            p.instructionsInCategory(cat)) /
                            total,
                        1);
                };
                table.addRow({name, which == 0 ? "SpMV" : "SpMSpV",
                              TextTable::pct(densities[di], 0),
                              share(OpCategory::Sync),
                              share(OpCategory::Arithmetic),
                              share(OpCategory::Scratchpad),
                              share(OpCategory::Dma),
                              share(OpCategory::Control)});
            }
        }
        table.addSeparator();
    }
    table.print();

    std::printf(
        "\npaper expectation: SpMSpV carries the larger sync share; "
        "SpMV has more arithmetic; scratchpad ops non-trivial "
        "everywhere. Known deviation (EXPERIMENTS.md): the paper's "
        "sync share falls with density, ours rises mildly with "
        "contention.\n");
    return writeTelemetryOutputs(opt);
}
