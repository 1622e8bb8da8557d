/**
 * @file
 * Ablation of the paper's hardware recommendations (sections 6.3.1,
 * 6.4, and the conclusion): starting from the baseline UPMEM model,
 * enable one proposed enhancement at a time and measure the three
 * applications end to end:
 *
 *   forwarding   - intra-thread data forwarding for independent
 *                  instructions (revolver gap 11 -> 4)
 *   nb-dma       - non-blocking DMA (tasklets compute during
 *                  transfers)
 *   hw-atomics   - single-instruction atomic updates instead of
 *                  mutex spin loops
 *   hw-float     - hardware floating point (no software emulation)
 *   interconnect - direct inter-DPU network for vector exchange
 *                  (no host round-trip between iterations)
 *   all          - everything combined
 */

#include <cstdio>
#include <functional>

#include "apps/graph_apps.hh"
#include "bench_common.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"

using namespace alphapim;
using namespace alphapim::bench;

namespace
{

struct Variant
{
    const char *name;
    std::function<void(upmem::SystemConfig &)> apply;
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = parseOptions(argc, argv);
    printRunHeader(
        "Ablation: future PIM hardware recommendations", opt);

    const auto names = datasetList(opt, {"e-En"});
    const std::vector<Variant> variants = {
        {"baseline", [](upmem::SystemConfig &) {}},
        {"forwarding",
         [](upmem::SystemConfig &c) { c.dpu.revolverGap = 4; }},
        {"nb-dma",
         [](upmem::SystemConfig &c) { c.dpu.nonBlockingDma = true; }},
        {"hw-atomics",
         [](upmem::SystemConfig &c) {
             c.dpu.hardwareAtomics = true;
         }},
        {"hw-float",
         [](upmem::SystemConfig &c) {
             c.dpu.floatAddInstrs = 1;
             c.dpu.floatMulInstrs = 1;
         }},
        {"interconnect",
         [](upmem::SystemConfig &c) {
             c.transfer.directInterconnect = true;
         }},
        {"all",
         [](upmem::SystemConfig &c) {
             c.dpu.revolverGap = 4;
             c.dpu.nonBlockingDma = true;
             c.dpu.hardwareAtomics = true;
             c.dpu.floatAddInstrs = 1;
             c.dpu.floatMulInstrs = 1;
             c.transfer.directInterconnect = true;
         }},
    };
    const char *algo_names[] = {"BFS", "SSSP", "PPR"};

    RunRecorder recorder(opt, "abl_future_hw");
    for (const auto &name : names) {
        const auto data = loadDataset(name, opt);
        Rng rng(opt.seed);
        const auto weighted = sparse::assignSymmetricWeights(
            data.adjacency, 1.0f, 64.0f, rng);
        const NodeId source =
            sparse::largestComponentVertex(data.adjacency);

        TextTable table(std::string("total time (ms) on ") + name +
                        " and speedup vs baseline");
        table.setHeader({"variant", "BFS", "SSSP", "PPR",
                         "BFS x", "SSSP x", "PPR x"});
        double base[3] = {0, 0, 0};
        for (const auto &variant : variants) {
            upmem::SystemConfig cfg;
            cfg.numDpus = opt.dpus;
            variant.apply(cfg);
            const upmem::UpmemSystem sys(cfg, opt.observers());

            double totals[3];
            for (unsigned algo = 0; algo < 3; ++algo) {
                apps::AppConfig app_cfg;
                if (algo == 2) {
                    app_cfg.pprTolerance = 0.0;
                    app_cfg.pprIterations = 10;
                }
                apps::AppResult run;
                recorder.begin();
                switch (algo) {
                  case 0:
                    run = apps::runBfs(sys, data.adjacency, source,
                                       app_cfg);
                    break;
                  case 1:
                    run = apps::runSssp(sys, weighted, source,
                                        app_cfg);
                    break;
                  default:
                    run = apps::runPpr(sys, data.adjacency, source,
                                       app_cfg);
                }
                recorder.emit(name,
                              std::string(variant.name) + "/" +
                                  algo_names[algo],
                              run.total, &run.profile,
                              run.iterations.size());
                totals[algo] = run.total.total();
                if (variant.name == std::string("baseline"))
                    base[algo] = totals[algo];
            }
            table.addRow(
                {variant.name, TextTable::num(toMillis(totals[0]), 2),
                 TextTable::num(toMillis(totals[1]), 2),
                 TextTable::num(toMillis(totals[2]), 2),
                 TextTable::num(base[0] / totals[0], 2) + "x",
                 TextTable::num(base[1] / totals[1], 2) + "x",
                 TextTable::num(base[2] / totals[2], 2) + "x"});
        }
        table.print();
        std::printf("\n");
    }

    std::printf("paper expectation: the interconnect mainly helps "
                "transfer-bound BFS/SSSP; hw-float mainly helps "
                "kernel-bound PPR; forwarding/nb-dma lift kernel "
                "IPC everywhere\n");
    return writeTelemetryOutputs(opt);
}
