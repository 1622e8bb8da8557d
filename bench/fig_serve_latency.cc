/**
 * @file
 * Serving-latency figure: the query serving subsystem under a FIFO
 * scheduler vs the batching scheduler that coalesces same-graph
 * queries into one multi-source launch.
 *
 * Two seeded deterministic workloads per dataset:
 *   burst   -- an open-loop burst of 16 same-graph BFS queries at
 *              t=0 (the maximally batchable case: one 16-lane launch
 *              vs 16 sequential launches)
 *   closed  -- 8 think-free clients, 4 queries each, over a BFS-heavy
 *              BFS/SSSP mix (batch sizes emerge from queueing)
 *
 * Everything runs on the model clock, so every latency percentile
 * and throughput number is exactly reproducible; the committed
 * baseline gates with zero tolerance via alphapim_bench_diff. The
 * bench itself also asserts the tentpole claim -- batching must beat
 * FIFO on both queries/s and p95 latency for the burst workload --
 * and exits non-zero otherwise.
 */

#include <cstdio>

#include "bench_common.hh"
#include "serve/loadgen.hh"

using namespace alphapim;
using namespace alphapim::bench;

namespace
{

struct WorkloadResult
{
    perf::ServeSummary summary;
    core::PhaseTimes phases;
    std::uint64_t iterations = 0;
};

WorkloadResult
runWorkload(const upmem::UpmemSystem &sys, const std::string &name,
            const sparse::CooMatrix<float> &adjacency,
            const BenchOptions &opt, serve::SchedulerKind kind,
            bool closed, RunRecorder &recorder,
            const std::string &variant)
{
    serve::ServeOptions serve_opt;
    serve_opt.dpus = opt.dpus;
    serve_opt.scheduler = kind;
    serve::ServeEngine engine(sys, serve_opt);

    serve::LoadGenOptions load;
    load.seed = opt.seed;
    load.dataset = name;
    if (closed) {
        load.mix = {serve::ServeAlgo::Bfs, serve::ServeAlgo::Bfs,
                    serve::ServeAlgo::Bfs, serve::ServeAlgo::Sssp};
        load.clients = 8;
        load.queriesPerClient = 4;
    } else {
        load.mix = {serve::ServeAlgo::Bfs};
        load.queries = 16;
        load.arrivalRate = 0.0; // burst at t=0
    }

    recorder.begin();
    engine.loadDataset(name, adjacency);
    if (closed)
        serve::runClosedLoop(engine, load,
                             engine.datasetRows(name));
    else
        serve::runOpenLoop(
            engine,
            serve::openLoopQueries(load, engine.datasetRows(name)));

    WorkloadResult r;
    r.summary = engine.summary();
    r.phases = engine.phaseTotals();
    r.iterations = engine.servedIterations();
    recorder.emit(name, variant, r.phases, nullptr, r.iterations, 0,
                  &r.summary);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = parseOptions(argc, argv);
    printRunHeader(
        "Serving latency: FIFO vs batched multi-source coalescing",
        opt);

    const auto names = datasetList(opt, {"as00", "e-En"});
    const auto sys = makeSystem(opt, opt.dpus);
    RunRecorder recorder(opt, "fig_serve_latency");

    bool batching_wins = true;
    for (const auto &name : names) {
        const auto data = loadDataset(name, opt);
        TextTable table(name + ": serving outcomes (model time)");
        table.setHeader({"workload", "scheduler", "batches",
                         "mean-bs", "p50 ms", "p95 ms", "q/s"});
        WorkloadResult burst[2];
        for (const bool closed : {false, true}) {
            for (const auto kind : {serve::SchedulerKind::Fifo,
                                    serve::SchedulerKind::Batching}) {
                const std::string workload =
                    closed ? "closed" : "burst";
                const auto r = runWorkload(
                    sys, name, data.adjacency, opt, kind, closed,
                    recorder,
                    std::string(serve::schedulerKindName(kind)) +
                        "/" + workload);
                if (!closed)
                    burst[kind == serve::SchedulerKind::Batching] =
                        r;
                const auto &s = r.summary;
                table.addRow(
                    {workload, serve::schedulerKindName(kind),
                     std::to_string(s.batches),
                     TextTable::num(s.meanBatchSize, 2),
                     TextTable::num(toMillis(s.latencyP50), 3),
                     TextTable::num(toMillis(s.latencyP95), 3),
                     TextTable::num(s.queriesPerSec, 1)});
            }
            table.addSeparator();
        }
        table.print();

        const auto &fifo = burst[0].summary;
        const auto &batched = burst[1].summary;
        const double speedup = fifo.queriesPerSec > 0.0
            ? batched.queriesPerSec / fifo.queriesPerSec
            : 0.0;
        std::printf("%s burst: batching %.1fx queries/s, p95 "
                    "%.3f ms vs %.3f ms\n\n",
                    name.c_str(), speedup,
                    toMillis(batched.latencyP95),
                    toMillis(fifo.latencyP95));
        if (batched.queriesPerSec <= fifo.queriesPerSec ||
            batched.latencyP95 >= fifo.latencyP95)
            batching_wins = false;
    }

    std::printf("batching win on every burst workload: %s\n",
                batching_wins ? "yes" : "NO");
    const int telemetry_status = writeTelemetryOutputs(opt);
    if (!batching_wins)
        return 1;
    return telemetry_status;
}
