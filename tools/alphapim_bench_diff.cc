/**
 * @file
 * alphapim_bench_diff: statistical differ for bench run records and
 * metrics exports.
 *
 * Loads two JSONL files (either `--json-out` run records or
 * `--metrics-out` registry dumps -- auto-detected), pairs entries by
 * run identity (bench, dataset, variant, dpus, seed), exact-compares
 * the deterministic model metrics, puts a bootstrap confidence
 * interval around the wall-clock samples, and attributes every
 * regression to a dominant bottleneck (transfer-, memory-,
 * pipeline-, compute-, or host-bound).
 *
 * Exit codes: 0 = no regression, 1 = regression beyond threshold,
 * 2 = usage or I/O error.
 *
 * Examples:
 *   alphapim_bench_diff bench/baselines/fig07.jsonl new.jsonl
 *   alphapim_bench_diff --threshold 0.05 --json-report diff.json \
 *       old.jsonl new.jsonl
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/cli.hh"
#include "perf/build_info.hh"
#include "perf/diff.hh"

using namespace alphapim;

namespace
{

[[noreturn]] void
printVersion()
{
    std::printf("alphapim_bench_diff %s (%s%s%s)\n", perf::gitSha(),
                perf::buildType(),
                perf::buildFlags()[0] ? ", " : "",
                perf::buildFlags());
    std::exit(0);
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: alphapim_bench_diff [options] OLD.jsonl NEW.jsonl\n"
        "  --threshold X       relative regression threshold\n"
        "                      (default 0.02 = 2%%)\n"
        "  --confidence X      wall-clock bootstrap confidence\n"
        "                      (default 0.95)\n"
        "  --resamples N       bootstrap resamples (default 2000)\n"
        "  --seed N            bootstrap RNG seed (default 42)\n"
        "  --wall-gate         let a significant wall-clock\n"
        "                      regression fail the diff (default:\n"
        "                      advisory -- baselines usually come\n"
        "                      from another machine)\n"
        "  --host-gate         let a significant host-observatory\n"
        "                      regression (per-phase host seconds,\n"
        "                      replay/trace throughput, slowdown\n"
        "                      factor) fail the diff (default:\n"
        "                      advisory, like wall-clock)\n"
        "  --version           print git SHA + build type and exit\n"
        "  --json-report FILE  also write a JSON report\n"
        "  --metrics           force metrics-file mode (default:\n"
        "                      auto-detect from the first record)\n"
        "Every flag also accepts the --flag=value spelling.\n"
        "Exit codes: 0 = ok, 1 = regression, 2 = usage/IO error.\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    perf::DiffOptions opt;
    std::string json_report;
    bool force_metrics = false;
    std::vector<std::string> paths;

    CliArgs args(argc, argv,
                 [](const std::string &) { usage(); });
    while (args.next()) {
        const std::string &arg = args.arg();
        if (arg == "--threshold")
            args.readDouble(opt.threshold,
                            [](double v) { return v >= 0.0; });
        else if (arg == "--confidence")
            args.readDouble(opt.confidence, [](double v) {
                return v > 0.0 && v < 1.0;
            });
        else if (arg == "--resamples")
            args.readUnsigned(opt.resamples);
        else if (arg == "--seed")
            args.readUnsigned(opt.bootstrapSeed);
        else if (arg == "--wall-gate")
            opt.wallClockGate = true;
        else if (arg == "--host-gate")
            opt.hostGate = true;
        else if (arg == "--version")
            printVersion();
        else if (arg == "--json-report")
            json_report = args.value();
        else if (arg == "--metrics")
            force_metrics = true;
        else if (args.isFlag())
            usage();
        else
            paths.push_back(arg);
    }
    if (paths.size() != 2)
        usage();

    perf::DiffReport report;
    if (force_metrics || perf::looksLikeMetricsFile(paths[0])) {
        std::string error;
        if (!perf::diffMetricsFiles(paths[0], paths[1], opt, report,
                                    &error)) {
            std::fprintf(stderr, "alphapim_bench_diff: %s\n",
                         error.c_str());
            return 2;
        }
    } else {
        perf::RecordSet olds, news;
        std::string error;
        if (!perf::loadRecordSet(paths[0], olds, &error) ||
            !perf::loadRecordSet(paths[1], news, &error)) {
            std::fprintf(stderr, "alphapim_bench_diff: %s\n",
                         error.c_str());
            return 2;
        }
        report = perf::diffRecordSets(olds, news, opt);
    }

    std::fputs(perf::renderReport(report, opt).c_str(), stdout);

    if (!json_report.empty()) {
        std::ofstream out(json_report);
        if (!out) {
            std::fprintf(stderr,
                         "alphapim_bench_diff: cannot write '%s'\n",
                         json_report.c_str());
            return 2;
        }
        out << perf::reportJson(report) << '\n';
    }
    return report.hasRegressions() ? 1 : 0;
}
