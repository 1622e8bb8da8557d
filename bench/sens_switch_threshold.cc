/**
 * @file
 * Section 4.2.1 sensitivity analysis: sweep the SpMSpV->SpMV switch
 * threshold around the model's choice and report the change in total
 * application runtime. The paper finds that a 10-point deviation
 * costs <5% on average (e.g. +2.5% for A302 at 60% instead of 50%).
 */

#include <cstdio>
#include <string>
#include <utility>

#include "apps/graph_apps.hh"
#include "bench_common.hh"
#include "common/stats.hh"
#include "core/adaptive.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"

using namespace alphapim;
using namespace alphapim::bench;

int
main(int argc, char **argv)
{
    const auto opt = parseOptions(argc, argv);
    printRunHeader(
        "Section 4.2.1: switch-threshold sensitivity sweep", opt);

    const auto names =
        datasetList(opt, {"A302", "e-En", "face", "r-PA"});
    const auto sys = makeSystem(opt, opt.dpus);
    const core::KernelSwitchModel model;
    const std::vector<double> offsets = {-0.20, -0.10, 0.0, 0.10,
                                         0.20};

    RunRecorder recorder(opt, "sens_switch_threshold");
    TextTable table("BFS total time change vs the model threshold");
    table.setHeader({"dataset", "model thr", "-20pts", "-10pts",
                     "model", "+10pts", "+20pts"});
    std::vector<double> ten_point_deltas;
    for (const auto &name : names) {
        const auto data = loadDataset(name, opt);
        const NodeId source =
            sparse::largestComponentVertex(data.adjacency);
        const double base_thr = model.switchThreshold(data.stats);

        std::vector<double> totals;
        for (double off : offsets) {
            apps::AppConfig cfg;
            cfg.switchThreshold =
                std::clamp(base_thr + off, 0.01, 0.99);
            recorder.begin();
            const auto run =
                apps::runBfs(sys, data.adjacency, source, cfg);
            char off_tag[32];
            std::snprintf(off_tag, sizeof(off_tag), "BFS/off%+.2f",
                          off);
            recorder.emit(name, off_tag, run.total, &run.profile,
                          run.iterations.size());
            totals.push_back(run.total.total());
        }
        const double base = totals[2];
        std::vector<std::string> cells = {
            name, TextTable::pct(base_thr, 0)};
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            const double change = (totals[i] - base) / base;
            std::string cell = change >= 0 ? "+" : "";
            cell += TextTable::pct(change, 1);
            cells.push_back(std::move(cell));
        }
        table.addRow(cells);
        ten_point_deltas.push_back(
            std::abs(totals[3] - base) / base);
        ten_point_deltas.push_back(
            std::abs(totals[1] - base) / base);
    }
    table.print();

    double avg = 0.0;
    for (double d : ten_point_deltas)
        avg += d;
    avg /= static_cast<double>(ten_point_deltas.size());
    std::printf("\naverage |change| for a 10-point deviation: %s "
                "(paper: <5%%)\n",
                TextTable::pct(avg, 1).c_str());
    return writeTelemetryOutputs(opt);
}
