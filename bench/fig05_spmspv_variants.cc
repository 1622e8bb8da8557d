/**
 * @file
 * Figure 5: execution-time breakdown of the SpMSpV variants (COO,
 * CSC-R, CSC-C, CSC-2D) at input-vector densities of 1%, 10% and
 * 50%, normalized to COO per dataset, with the geometric mean across
 * datasets. Also reproduces the section 6.1 side note: CSR's
 * slowdown vs the other variants (measured on the small datasets, as
 * CSR is excluded from the figure for being 2.8x-25x slower).
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
    printRunHeader("Figure 5: SpMSpV variant breakdown by density",
                   opt);

    const auto names = datasetList(
        opt, {"face", "e-En", "s-S11", "p2p-24", "g-18", "r-PA"});
    const auto sys = makeSystem(opt, opt.dpus);
    const std::vector<double> densities = {0.01, 0.10, 0.50};
    const std::vector<KernelVariant> variants = {
        KernelVariant::SpmspvCoo, KernelVariant::SpmspvCscR,
        KernelVariant::SpmspvCscC, KernelVariant::SpmspvCsc2d};

    // geomean accumulator: variant x density -> ratios vs COO
    std::map<std::pair<unsigned, unsigned>, std::vector<double>>
        ratios;
    RunRecorder recorder(opt, "fig05");

    for (const auto &name : names) {
        const auto data = loadDataset(name, opt);
        const NodeId n = data.adjacency.numRows();

        std::vector<std::unique_ptr<PimMxvKernel<IntPlusTimes>>>
            kernels;
        for (auto v : variants) {
            kernels.push_back(makeKernel<IntPlusTimes>(
                v, sys, data.adjacency, opt.dpus));
        }

        TextTable table(name + " (normalized to COO per density)");
        table.setHeader({"density", "variant", "load", "kernel",
                         "retrieve", "merge", "total"});
        for (unsigned di = 0; di < densities.size(); ++di) {
            const auto x = randomInputVector<std::uint32_t>(
                n, densities[di], opt.seed + di, 1u, 8u);
            double norm = 0.0;
            for (unsigned vi = 0; vi < variants.size(); ++vi) {
                recorder.begin();
                const auto r = kernels[vi]->run(x);
                recorder.emit(
                    name,
                    std::string(kernelVariantName(variants[vi])) +
                        "/d" + TextTable::num(densities[di], 2),
                    r.times, &r.profile, 1);
                if (vi == 0)
                    norm = r.times.total();
                auto cells = phaseCells(r.times, norm);
                cells.insert(cells.begin(),
                             {TextTable::pct(densities[di], 0),
                              kernelVariantName(variants[vi])});
                table.addRow(cells);
                ratios[{vi, di}].push_back(r.times.total() / norm);
            }
            table.addSeparator();
        }
        table.print();
        std::printf("\n");
    }

    TextTable geo("geometric mean of totals across datasets "
                  "(normalized to COO)");
    geo.setHeader({"variant", "1%", "10%", "50%"});
    for (unsigned vi = 0; vi < variants.size(); ++vi) {
        geo.addRow({kernelVariantName(variants[vi]),
                    TextTable::num(geometricMean(ratios[{vi, 0}]), 3),
                    TextTable::num(geometricMean(ratios[{vi, 1}]), 3),
                    TextTable::num(geometricMean(ratios[{vi, 2}]),
                                   3)});
    }
    geo.print();

    // ---- Section 6.1 note: CSR slowdown on small datasets ----
    std::printf("\n");
    TextTable csr("CSR slowdown vs the best non-CSR SpMSpV "
                  "(section 6.1 note; medium datasets, where the "
                  "per-row rescan dominates)");
    csr.setHeader({"density", "geomean slowdown", "paper"});
    const std::vector<std::string> small = {"e-En", "s-S11", "loc-b"};
    const std::vector<const char *> paper = {"2.8x", "12.68x",
                                             "25.23x"};
    for (unsigned di = 0; di < densities.size(); ++di) {
        std::vector<double> slowdowns;
        for (const auto &name : small) {
            const auto data = loadDataset(name, opt);
            const NodeId n = data.adjacency.numRows();
            const auto x = randomInputVector<std::uint32_t>(
                n, densities[di], opt.seed + di, 1u, 8u);
            const auto csr_kernel = makeKernel<IntPlusTimes>(
                KernelVariant::SpmspvCsr, sys, data.adjacency,
                opt.dpus);
            const double csr_total =
                csr_kernel->run(x).times.total();
            double best = 1e30;
            for (auto v : variants) {
                const auto k = makeKernel<IntPlusTimes>(
                    v, sys, data.adjacency, opt.dpus);
                best = std::min(best, k->run(x).times.total());
            }
            slowdowns.push_back(csr_total / best);
        }
        csr.addRow({TextTable::pct(densities[di], 0),
                    TextTable::num(geometricMean(slowdowns), 2) + "x",
                    paper[di]});
    }
    csr.print();

    std::printf("\npaper expectation: CSC-2D best at >=10%% density; "
                "CSC-R/COO competitive below 10%%; CSR far worse, "
                "degrading with density\n");
    return writeTelemetryOutputs(opt);
}
