/**
 * @file
 * Figure 6: best SpMV (SparseP DCOO) vs best SpMSpV (CSC-2D) at
 * input-vector densities of 1%, 10%, 30% and 50%, normalized to the
 * SpMV total per dataset, plus the geometric mean.
 */

#include <cstdio>
#include <map>

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
    printRunHeader("Figure 6: SpMSpV (CSC-2D) vs SpMV (DCOO)", opt);

    const auto names = datasetList(
        opt, {"A302", "as00", "s-S11", "p2p-24", "e-En", "face"});
    const auto sys = makeSystem(opt, opt.dpus);
    const std::vector<double> densities = {0.01, 0.10, 0.30, 0.50};

    std::map<unsigned, std::vector<double>> ratios;
    RunRecorder recorder(opt, "fig06");
    for (const auto &name : names) {
        const auto data = loadDataset(name, opt);
        const NodeId n = data.adjacency.numRows();
        const auto spmv = makeKernel<IntPlusTimes>(
            KernelVariant::SpmvDcoo2d, sys, data.adjacency, opt.dpus);
        const auto spmspv = makeKernel<IntPlusTimes>(
            KernelVariant::SpmspvCsc2d, sys, data.adjacency,
            opt.dpus);

        TextTable table(name + " (normalized to SpMV per density)");
        table.setHeader({"density", "kernel", "load", "kernel-t",
                         "retrieve", "merge", "total"});
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
            const double norm = rv.times.total();

            auto cv = phaseCells(rv.times, norm);
            cv.insert(cv.begin(),
                      {TextTable::pct(densities[di], 0), "SpMV"});
            table.addRow(cv);
            auto cs = phaseCells(rs.times, norm);
            cs.insert(cs.begin(), {"", "SpMSpV"});
            table.addRow(cs);
            table.addSeparator();
            ratios[di].push_back(rs.times.total() / norm);
        }
        table.print();
        std::printf("\n");
    }

    TextTable geo("geometric mean: SpMSpV total / SpMV total");
    geo.setHeader({"density", "ratio"});
    for (unsigned di = 0; di < densities.size(); ++di) {
        geo.addRow({TextTable::pct(densities[di], 0),
                    TextTable::num(geometricMean(ratios[di]), 3)});
    }
    geo.print();

    std::printf("\npaper expectation: SpMSpV < 1.0 at every density, "
                "with the largest wins below 30%% and rough parity "
                "at 50%%\n");
    return writeTelemetryOutputs(opt);
}
