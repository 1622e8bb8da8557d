#include "bench_common.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/cli.hh"
#include "common/logging.hh"
#include "perf/fingerprint.hh"
#include "perf/manifest.hh"
#include "telemetry/host_prof.hh"
#include "telemetry/telemetry.hh"

namespace alphapim::bench
{

namespace
{

/** Split "a,b,c" into tokens. */
std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--dpus N] [--scale X] [--edge-target N]\n"
        "          [--datasets a,b,c] [--seed N] [--quick]\n"
        "          [--trace-out FILE] [--metrics-out FILE]\n"
        "          [--json-out FILE] [--check[=FAMILIES]]\n"
        "          [--check-out FILE] [--check-inject KIND]\n"
        "          [--host-prof[=on|off]] [--log-level LEVEL]\n",
        prog);
    std::exit(2);
}

} // namespace

BenchOptions
parseOptions(int argc, char **argv)
{
    BenchOptions opt;
    if (const char *env = std::getenv("ALPHAPIM_SCALE"))
        opt.scale = std::atof(env);
    if (const char *env = std::getenv("ALPHAPIM_EDGE_TARGET"))
        opt.edgeTarget = std::strtoull(env, nullptr, 10);

    // Accept both "--flag value" and "--flag=value".
    CliArgs args(argc, argv,
                 [argv](const std::string &) { usage(argv[0]); });
    while (args.next()) {
        const std::string &arg = args.arg();
        auto next = [&]() -> const char * { return args.value(); };
        if (arg == "--dpus") {
            opt.dpus = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--scale") {
            opt.scale = std::atof(next());
        } else if (arg == "--edge-target") {
            opt.edgeTarget = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--datasets") {
            opt.datasets = splitCsv(next());
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--trace-out") {
            opt.traceOut = next();
        } else if (arg == "--metrics-out") {
            opt.metricsOut = next();
        } else if (arg == "--json-out") {
            opt.jsonOut = next();
        } else if (arg == "--host-prof") {
            // Bare --host-prof means on; value form takes on|off.
            if (!args.hasInlineValue() ||
                args.inlineValue() == "on") {
                opt.hostProf = true;
            } else if (args.inlineValue() == "off") {
                opt.hostProf = false;
            } else {
                std::fprintf(stderr,
                             "--host-prof: expected on or off, got "
                             "'%s'\n",
                             args.inlineValue().c_str());
                usage(argv[0]);
            }
        } else if (arg == "--log-level") {
            opt.logLevel = next();
        } else if (!opt.check.parse(args, [argv] { usage(argv[0]); })) {
            usage(argv[0]);
        }
    }
    if (opt.quick) {
        opt.dpus = std::min(opt.dpus, 256u);
        opt.edgeTarget = std::min<EdgeId>(opt.edgeTarget, 50'000);
        opt.roadEdgeTarget =
            std::min<EdgeId>(opt.roadEdgeTarget, 20'000);
    }
    if (!opt.logLevel.empty() &&
        !setLogLevelByName(opt.logLevel.c_str())) {
        std::fprintf(stderr, "unknown log level '%s'\n",
                     opt.logLevel.c_str());
        usage(argv[0]);
    }
    if (!opt.traceOut.empty()) {
        telemetry::tracer().setEnabled(true);
        // Stream to the output file in chunks so long traced runs
        // cannot exhaust memory; finishTraceOutput() completes the
        // document. Falls back to buffered mode on open failure.
        if (!telemetry::tracer().openStream(opt.traceOut))
            warn("cannot stream trace to '%s'; buffering instead",
                 opt.traceOut.c_str());
    }
    if (!opt.metricsOut.empty() || !opt.jsonOut.empty()) {
        telemetry::metrics().setEnabled(true);
        // Imbalance analytics ride on the same outputs: imbalance.*
        // / roofline.* metrics and the v4 record block.
        opt.imbalance = std::make_shared<analysis::ImbalanceObserver>();
    }
    if (opt.hostProf &&
        (!opt.traceOut.empty() || !opt.metricsOut.empty() ||
         !opt.jsonOut.empty())) {
        // Host observatory rides on any telemetry output: host.*
        // metrics, the v5 record block, and the "host_profile"
        // instant trace event. Pure observation -- model metrics
        // are byte-identical with --host-prof=off.
        telemetry::hostProfiler().reset();
        telemetry::hostProfiler().setEnabled(true);
    }
    std::string error;
    if (!opt.check.makeChecker(&error)) {
        std::fprintf(stderr, "--check: %s\n", error.c_str());
        usage(argv[0]);
    }
    return opt;
}

upmem::LaunchObservers
BenchOptions::observers() const
{
    upmem::LaunchObservers out;
    if (check.checker)
        out.push_back(check.checker);
    if (imbalance)
        out.push_back(imbalance);
    return out;
}

double
effectiveScale(const sparse::DatasetSpec &spec,
               const BenchOptions &opt)
{
    if (opt.scale > 0.0)
        return std::min(opt.scale, 1.0);
    const EdgeId target =
        spec.family == sparse::GraphFamily::Regular
            ? opt.roadEdgeTarget
            : opt.edgeTarget;
    if (spec.edges <= target)
        return 1.0;
    return static_cast<double>(target) /
           static_cast<double>(spec.edges);
}

namespace
{

/** Fingerprints of the datasets loaded so far, by abbreviation. */
std::map<std::string, std::uint64_t> &
datasetFingerprints()
{
    static std::map<std::string, std::uint64_t> fps;
    return fps;
}

} // namespace

sparse::Dataset
loadDataset(const std::string &abbreviation, const BenchOptions &opt)
{
    const auto &spec = sparse::findSpec(abbreviation);
    sparse::Dataset ds = sparse::buildDataset(
        spec, effectiveScale(spec, opt), opt.seed);
    datasetFingerprints()[abbreviation] =
        perf::datasetFingerprint(ds.adjacency);
    return ds;
}

std::vector<std::string>
datasetList(const BenchOptions &opt,
            const std::vector<std::string> &defaults)
{
    return opt.datasets.empty() ? defaults : opt.datasets;
}

upmem::UpmemSystem
makeSystem(const BenchOptions &opt, unsigned dpus)
{
    upmem::SystemConfig cfg;
    cfg.numDpus = dpus;
    return upmem::UpmemSystem(cfg, opt.observers());
}

void
printRunHeader(const std::string &experiment, const BenchOptions &opt)
{
    std::printf("### %s\n", experiment.c_str());
    std::printf("# dpus=%u edge-target=%llu road-edge-target=%llu "
                "scale=%s seed=%llu%s\n",
                opt.dpus,
                static_cast<unsigned long long>(opt.edgeTarget),
                static_cast<unsigned long long>(opt.roadEdgeTarget),
                opt.scale > 0 ? TextTable::num(opt.scale, 3).c_str()
                              : "auto",
                static_cast<unsigned long long>(opt.seed),
                opt.quick ? " (quick)" : "");
}

std::vector<std::string>
phaseCells(const core::PhaseTimes &t, double norm)
{
    ALPHA_ASSERT(norm > 0.0, "normalization must be positive");
    return {TextTable::num(t.load / norm, 3),
            TextTable::num(t.kernel / norm, 3),
            TextTable::num(t.retrieve / norm, 3),
            TextTable::num(t.merge / norm, 3),
            TextTable::num(t.total() / norm, 3)};
}

std::uint64_t
datasetFingerprintFor(const std::string &abbreviation)
{
    const auto &fps = datasetFingerprints();
    const auto it = fps.find(abbreviation);
    return it == fps.end() ? 0 : it->second;
}

RunRecorder::RunRecorder(BenchOptions opt, std::string bench)
    : opt_(std::move(opt)), bench_(std::move(bench))
{
    // Records carry a timeline summary, which needs spans; when the
    // user did not ask for a trace file, run the tracer privately.
    // Tracing only observes -- the model times are unaffected -- so
    // records stay identical with and without --trace-out.
    if (!opt_.jsonOut.empty() && !telemetry::tracer().enabled()) {
        telemetry::tracer().setEnabled(true);
        ownsTracer_ = true;
    }
}

RunRecorder::~RunRecorder()
{
    if (ownsTracer_) {
        telemetry::tracer().setEnabled(false);
        telemetry::tracer().clear();
    }
}

void
RunRecorder::begin()
{
    if (opt_.jsonOut.empty())
        return;
    began_ = true;
    // Benches that drive kernels directly never pass through
    // PimEngine's LaunchScope, so open a recording scope here --
    // the transfer model only counts xfer.* volume inside one.
    if (!recording_)
        recording_ =
            std::make_unique<telemetry::RecordingScope>();
    if (ownsTracer_) {
        // Private tracer: restart per run, so every timeline begins
        // at model time zero and memory stays bounded.
        telemetry::tracer().clear();
    }
    window_ = perf::beginRunWindow(opt_.imbalance.get());
}

void
RunRecorder::emit(const std::string &dataset,
                  const std::string &variant,
                  const core::PhaseTimes &times,
                  const upmem::LaunchProfile *profile,
                  std::size_t iterations, unsigned dpusOverride,
                  const perf::ServeSummary *serve)
{
    if (opt_.jsonOut.empty())
        return;

    perf::RunManifest manifest = perf::currentManifest();
    manifest.datasetFingerprint = datasetFingerprintFor(dataset);
    manifest.addConfig("edge_target",
                       static_cast<std::uint64_t>(opt_.edgeTarget));
    manifest.addConfig(
        "road_edge_target",
        static_cast<std::uint64_t>(opt_.roadEdgeTarget));
    if (opt_.scale > 0.0)
        manifest.addConfig("scale", opt_.scale);
    manifest.addConfig("quick", opt_.quick);

    perf::RunKey key;
    key.bench = bench_;
    key.dataset = dataset;
    key.variant = variant;
    key.dpus = dpusOverride != 0 ? dpusOverride : opt_.dpus;
    key.seed = opt_.seed;

    std::string line;
    if (began_) {
        line = perf::encodeRunWindow(
            window_, manifest, key,
            static_cast<std::uint64_t>(iterations), times, profile,
            opt_.imbalance.get(), serve);
        began_ = false;
        recording_.reset();
    } else {
        line = perf::encodeRunRecord(
            manifest, key, static_cast<std::uint64_t>(iterations),
            times, profile, nullptr, -1.0, nullptr, nullptr, nullptr,
            serve);
    }
    telemetry::appendJsonlRecord(opt_.jsonOut, line);
}

int
writeTelemetryOutputs(const BenchOptions &opt)
{
    if (telemetry::hostProfiler().enabled() && opt.jsonOut.empty()) {
        // Trace/metrics-only runs never pass through RunRecorder's
        // per-run publish; emit one whole-process profile so the
        // outputs still carry the observatory (model seconds unknown
        // here, so the slowdown factor reads 0 = n/a).
        telemetry::publishHostProfile(0.0);
    }
    if (!opt.traceOut.empty())
        telemetry::finishTraceOutput(opt.traceOut);
    if (!opt.metricsOut.empty())
        telemetry::writeMetricsFile(opt.metricsOut);
    return opt.check.finish();
}

} // namespace alphapim::bench
