/**
 * @file
 * alphapim: command-line driver for the ALPHA-PIM framework.
 *
 * Runs any of the graph applications on a bundled synthetic dataset
 * or a user-supplied Matrix Market graph, on a configurable
 * simulated UPMEM machine, with any kernel strategy; prints the
 * phase breakdown, optionally the full DPU profile, a CPU-baseline
 * comparison, and a per-iteration CSV for plotting.
 *
 * Examples:
 *   alphapim --algo bfs  --dataset e-En
 *   alphapim --algo sssp --mtx road.mtx --dpus 1024 --profile
 *   alphapim --algo ppr  --dataset face --strategy spmv --csv it.csv
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/checker.hh"
#include "analysis/imbalance.hh"
#include "apps/graph_apps.hh"
#include "apps/reference_algorithms.hh"
#include "baseline/cpu_engine.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "perf/build_info.hh"
#include "perf/fingerprint.hh"
#include "perf/manifest.hh"
#include "perf/record.hh"
#include "sparse/datasets.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"
#include "sparse/mmio.hh"
#include "telemetry/host_prof.hh"
#include "telemetry/telemetry.hh"
#include "upmem/report.hh"

using namespace alphapim;

namespace
{

struct CliOptions
{
    std::string algo = "bfs";
    std::string dataset;
    std::string mtx;
    std::string csv;
    std::string traceOut;
    std::string metricsOut;
    std::string jsonOut;
    std::string logLevel;
    std::string strategy = "adaptive";
    double scale = 0.25;
    double threshold = -1.0;
    unsigned dpus = 2048;
    unsigned tasklets = 16;
    unsigned pprIterations = 20;
    std::uint64_t seed = 42;
    long source = -1;
    bool profile = false;
    bool compareCpu = false;
    bool validate = false;
    bool hostProf = true;
    analysis::CheckFlags check;

    /** Set when records or metrics are asked for. */
    std::shared_ptr<analysis::ImbalanceObserver> imbalance;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: alphapim [options]\n"
        "  --algo bfs|sssp|ppr|cc      application (default bfs)\n"
        "  --dataset ABBREV            bundled Table 2 dataset\n"
        "  --mtx FILE                  Matrix Market graph instead\n"
        "  --scale X                   dataset generation scale\n"
        "  --dpus N                    DPUs (default 2048)\n"
        "  --tasklets N                tasklets per DPU (default 16)\n"
        "  --strategy adaptive|spmspv|spmv\n"
        "  --threshold X               switch density override\n"
        "  --source V                  source vertex (default: in\n"
        "                              the largest component)\n"
        "  --iterations N              PPR power iterations\n"
        "  --seed N                    RNG seed\n"
        "  --profile                   print the DPU profile\n"
        "  --compare-cpu               run the GridGraph CPU model\n"
        "  --validate                  check against host reference\n"
        "  --csv FILE                  per-iteration CSV output\n"
        "  --trace-out FILE            Chrome trace-event JSON of\n"
        "                              the run (Perfetto-loadable)\n"
        "  --metrics-out FILE          metrics registry dump (JSONL)\n"
        "  --json-out FILE             append one schema-tagged run\n"
        "                              record (JSONL) for bench-diff\n"
        "  --check[=FAMILIES]          run the pim-verify trace\n"
        "                              analyzer; FAMILIES is a comma\n"
        "                              list of race,lock,barrier,dma\n"
        "                              (default all); exits 3 when\n"
        "                              findings are reported\n"
        "  --check-out FILE            JSON findings report (implies\n"
        "                              --check)\n"
        "  --check-inject KIND         fold one synthetic finding of\n"
        "                              the given kind (data_race,...)\n"
        "                              into the report; exercises the\n"
        "                              exit-code contract in tests\n"
        "  --host-prof[=on|off]        host-performance observatory\n"
        "                              (phase profiler + memory\n"
        "                              footprint); on by default when\n"
        "                              telemetry output is requested,\n"
        "                              =off disables it\n"
        "  --version                   print git SHA + build type\n"
        "  --log-level LEVEL           silent|normal|verbose\n"
        "Every flag also accepts the --flag=value spelling.\n");
    std::exit(2);
}

CliOptions
parseCli(int argc, char **argv)
{
    CliOptions opt;
    // Accept both "--flag value" and "--flag=value".
    CliArgs args(argc, argv,
                 [](const std::string &) { usage(); });
    while (args.next()) {
        const std::string &arg = args.arg();
        auto next = [&]() -> const char * { return args.value(); };
        if (arg == "--algo")
            opt.algo = next();
        else if (arg == "--dataset")
            opt.dataset = next();
        else if (arg == "--mtx")
            opt.mtx = next();
        else if (arg == "--csv")
            opt.csv = next();
        else if (arg == "--trace-out")
            opt.traceOut = next();
        else if (arg == "--metrics-out")
            opt.metricsOut = next();
        else if (arg == "--json-out")
            opt.jsonOut = next();
        else if (arg == "--log-level")
            opt.logLevel = next();
        else if (arg == "--strategy")
            opt.strategy = next();
        else if (arg == "--scale")
            opt.scale = std::atof(next());
        else if (arg == "--threshold")
            opt.threshold = std::atof(next());
        else if (arg == "--dpus")
            opt.dpus = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--tasklets")
            opt.tasklets = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--iterations")
            opt.pprIterations =
                static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--seed")
            opt.seed = std::strtoull(next(), nullptr, 10);
        else if (arg == "--source")
            opt.source = std::atol(next());
        else if (arg == "--host-prof") {
            if (!args.hasInlineValue() ||
                args.inlineValue() == "on")
                opt.hostProf = true;
            else if (args.inlineValue() == "off")
                opt.hostProf = false;
            else
                fatal("--host-prof: expected on or off, got '%s'",
                      args.inlineValue().c_str());
        } else if (arg == "--version") {
            std::printf("alphapim %s (%s%s%s)\n", perf::gitSha(),
                        perf::buildType(),
                        perf::buildFlags()[0] ? ", " : "",
                        perf::buildFlags());
            std::exit(0);
        } else if (arg == "--profile")
            opt.profile = true;
        else if (arg == "--compare-cpu")
            opt.compareCpu = true;
        else if (arg == "--validate")
            opt.validate = true;
        else if (!opt.check.parse(args, usage))
            usage();
    }
    if (opt.dataset.empty() && opt.mtx.empty())
        opt.dataset = "e-En";
    if (!opt.logLevel.empty() &&
        !setLogLevelByName(opt.logLevel.c_str()))
        fatal("unknown log level '%s'", opt.logLevel.c_str());
    if (!opt.traceOut.empty()) {
        telemetry::tracer().setEnabled(true);
        // Flush to the file in chunks so long runs stay bounded;
        // buffered fallback when the file cannot be created.
        if (!telemetry::tracer().openStream(opt.traceOut))
            warn("cannot stream trace to '%s'; buffering instead",
                 opt.traceOut.c_str());
    }
    if (!opt.jsonOut.empty()) {
        // Run records carry an execution-timeline summary, which is
        // reconstructed from trace spans -- record them even when no
        // trace file was requested.
        telemetry::tracer().setEnabled(true);
    }
    if (!opt.metricsOut.empty() || !opt.jsonOut.empty()) {
        telemetry::metrics().setEnabled(true);
        // Imbalance analytics ride on the same outputs: per-launch
        // skew metrics and the run record's "imbalance" block.
        opt.imbalance = std::make_shared<analysis::ImbalanceObserver>();
    }
    if (opt.hostProf &&
        (!opt.traceOut.empty() || !opt.metricsOut.empty() ||
         !opt.jsonOut.empty())) {
        // Host observatory: host.* metrics, the v5 "host" record
        // block and the "host_profile" trace event. Observation
        // only -- model metrics are identical with =off.
        telemetry::hostProfiler().reset();
        telemetry::hostProfiler().setEnabled(true);
    }
    std::string error;
    if (!opt.check.makeChecker(&error))
        fatal("--check: %s", error.c_str());
    return opt;
}

core::MxvStrategy
parseStrategy(const std::string &name)
{
    if (name == "adaptive")
        return core::MxvStrategy::Adaptive;
    if (name == "costmodel")
        return core::MxvStrategy::CostModel;
    if (name == "spmspv")
        return core::MxvStrategy::SpmspvOnly;
    if (name == "spmv")
        return core::MxvStrategy::SpmvOnly;
    fatal("unknown strategy '%s'", name.c_str());
}

void
writeCsv(const std::string &path, const apps::AppResult &result)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot create CSV file '%s'", path.c_str());
    out << "iteration,input_density,output_density,kernel,load_ms,"
           "kernel_ms,retrieve_ms,merge_ms,total_ms,semiring_ops\n";
    for (const auto &log : result.iterations) {
        out << log.iteration << ',' << log.inputDensity << ','
            << log.outputDensity << ','
            << (log.usedSpmv ? "spmv" : "spmspv") << ','
            << toMillis(log.times.load) << ','
            << toMillis(log.times.kernel) << ','
            << toMillis(log.times.retrieve) << ','
            << toMillis(log.times.merge) << ','
            << toMillis(log.times.total()) << ','
            << log.semiringOps << '\n';
    }
    inform("wrote %zu iterations to %s", result.iterations.size(),
           path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseCli(argc, argv);

    // ---- graph ----
    sparse::CooMatrix<float> adjacency;
    std::string graph_name;
    if (!opt.mtx.empty()) {
        adjacency = sparse::readMatrixMarketFile(opt.mtx);
        if (adjacency.numRows() != adjacency.numCols())
            fatal("graph matrix must be square");
        graph_name = opt.mtx;
    } else {
        const auto data =
            sparse::buildDataset(opt.dataset, opt.scale, opt.seed);
        adjacency = data.adjacency;
        graph_name = data.spec.name;
    }
    const auto stats = sparse::computeGraphStats(adjacency);
    std::printf("graph %s: %u vertices, %llu edges, degree %.2f "
                "+/- %.2f\n",
                graph_name.c_str(), stats.nodes,
                static_cast<unsigned long long>(stats.edges),
                stats.avgDegree, stats.degreeStd);

    Rng rng(opt.seed);
    sparse::CooMatrix<float> matrix = adjacency;
    if (opt.algo == "sssp") {
        matrix = sparse::assignSymmetricWeights(adjacency, 1.0f,
                                                64.0f, rng);
    }

    const NodeId source =
        opt.source >= 0 ? static_cast<NodeId>(opt.source)
                        : sparse::largestComponentVertex(adjacency);
    if (source >= stats.nodes)
        fatal("source vertex out of range");

    // ---- machine ----
    upmem::SystemConfig sys_cfg;
    sys_cfg.numDpus = opt.dpus;
    sys_cfg.dpu.tasklets = opt.tasklets;
    upmem::LaunchObservers observers;
    if (opt.check.checker)
        observers.push_back(opt.check.checker);
    if (opt.imbalance)
        observers.push_back(opt.imbalance);
    const upmem::UpmemSystem sys(sys_cfg, observers);

    apps::AppConfig cfg;
    cfg.strategy = parseStrategy(opt.strategy);
    cfg.switchThreshold = opt.threshold;
    cfg.pprIterations = opt.pprIterations;

    // ---- run ----
    perf::RunWindow window;
    if (!opt.jsonOut.empty())
        window = perf::beginRunWindow(opt.imbalance.get());
    apps::AppResult result;
    if (opt.algo == "bfs")
        result = apps::runBfs(sys, matrix, source, cfg);
    else if (opt.algo == "sssp")
        result = apps::runSssp(sys, matrix, source, cfg);
    else if (opt.algo == "ppr")
        result = apps::runPpr(sys, matrix, source, cfg);
    else if (opt.algo == "cc")
        result = apps::runConnectedComponents(sys, matrix, cfg);
    else
        fatal("unknown algorithm '%s'", opt.algo.c_str());

    if (!opt.jsonOut.empty()) {
        perf::RunManifest manifest = perf::currentManifest();
        manifest.datasetFingerprint =
            perf::datasetFingerprint(adjacency);
        manifest.addConfig("scale", opt.scale);
        manifest.addConfig(
            "tasklets", static_cast<std::uint64_t>(opt.tasklets));
        if (opt.threshold >= 0.0)
            manifest.addConfig("threshold", opt.threshold);
        if (opt.algo == "ppr")
            manifest.addConfig(
                "ppr_iterations",
                static_cast<std::uint64_t>(opt.pprIterations));

        perf::RunKey key;
        key.bench = "cli";
        key.dataset = opt.mtx.empty() ? opt.dataset : opt.mtx;
        key.variant = opt.algo + "/" + opt.strategy;
        key.dpus = opt.dpus;
        key.seed = opt.seed;

        telemetry::appendJsonlRecord(
            opt.jsonOut,
            perf::encodeRunWindow(window, manifest, key,
                                  result.iterations.size(),
                                  result.total, &result.profile,
                                  opt.imbalance.get()));
    }

    std::printf("\n%s from vertex %u: %zu iterations (%s), "
                "%u SpMSpV / %u SpMV launches\n",
                opt.algo.c_str(), source, result.iterations.size(),
                result.converged ? "converged" : "iteration cap",
                result.spmspvLaunches, result.spmvLaunches);
    TextTable phases("phase totals");
    phases.setHeader({"load", "kernel", "retrieve", "merge",
                      "total"});
    phases.addRow({TextTable::num(toMillis(result.total.load), 3),
                   TextTable::num(toMillis(result.total.kernel), 3),
                   TextTable::num(toMillis(result.total.retrieve), 3),
                   TextTable::num(toMillis(result.total.merge), 3),
                   TextTable::num(toMillis(result.total.total()),
                                  3)});
    phases.print();

    bool validate_ok = true;
    if (opt.validate) {
        bool ok = true;
        if (opt.algo == "bfs") {
            ok = result.levels == apps::referenceBfs(matrix, source);
        } else if (opt.algo == "cc") {
            ok = result.levels == apps::referenceComponents(matrix);
        } else if (opt.algo == "sssp") {
            const auto expected =
                apps::referenceSssp(matrix, source);
            for (NodeId v = 0; ok && v < stats.nodes; ++v) {
                const float a = result.distances[v];
                const float b = expected[v];
                ok = std::isinf(a) == std::isinf(b) &&
                     (std::isinf(a) || std::abs(a - b) <= 1e-3);
            }
        } else {
            const auto expected = apps::referencePpr(
                matrix, source, cfg.pprAlpha, cfg.pprIterations);
            for (NodeId v = 0; ok && v < stats.nodes; ++v) {
                ok = std::abs(result.ranks[v] - expected[v]) <= 1e-3;
            }
        }
        std::printf("validation vs host reference: %s\n",
                    ok ? "OK" : "MISMATCH");
        // Don't exit yet: a requested --check report must still be
        // finalized (and its exit status takes precedence).
        validate_ok = ok;
    }

    if (opt.profile) {
        std::printf("\n%s",
                    upmem::renderProfileReport(result.profile,
                                               sys_cfg)
                        .c_str());
    }

    if (opt.compareCpu && opt.algo != "cc") {
        const baseline::CpuEngine cpu(baseline::CpuSpec{}, matrix);
        baseline::CpuRunResult run;
        if (opt.algo == "bfs")
            run = cpu.bfs(source);
        else if (opt.algo == "sssp")
            run = cpu.sssp(source);
        else
            run = cpu.ppr(source, cfg.pprAlpha, cfg.pprIterations);
        std::printf("\nGridGraph CPU model: %.2f ms; PIM kernel "
                    "speedup %.1fx, total %.1fx\n",
                    toMillis(run.seconds),
                    run.seconds / result.total.kernel,
                    run.seconds / result.total.total());
    }

    if (!opt.csv.empty())
        writeCsv(opt.csv, result);

    // Derived whole-run scalars, then the telemetry files.
    auto &m = telemetry::metrics();
    if (m.enabled()) {
        const auto &agg = result.profile.aggregate;
        m.setScalar("dpu.issued_fraction", agg.issuedFraction());
        for (unsigned r = 0;
             r < static_cast<unsigned>(
                     upmem::StallReason::NumReasons);
             ++r) {
            const auto reason = static_cast<upmem::StallReason>(r);
            m.setScalar(std::string("dpu.stall.") +
                            upmem::stallReasonName(reason) +
                            "_fraction",
                        agg.stallFraction(reason));
        }
        m.setScalar("dpu.avg_active_threads",
                    agg.avgActiveThreads());
    }
    if (telemetry::hostProfiler().enabled() && opt.jsonOut.empty()) {
        // Trace/metrics-only runs: publish the whole-process host
        // profile so those outputs still carry the observatory.
        telemetry::publishHostProfile(result.total.total());
    }
    if (!opt.traceOut.empty())
        telemetry::finishTraceOutput(opt.traceOut);
    if (!opt.metricsOut.empty())
        telemetry::writeMetricsFile(opt.metricsOut);

    // A --check report's exit status takes precedence.
    const int status = opt.check.finish();
    if (status != 0)
        return status;
    return validate_ok ? 0 : 1;
}
