/**
 * @file
 * alphapim_bench: run one benchmark workload and print its metrics.
 *
 *   alphapim_bench --workload NAME [--seed S] [--seconds T]
 *                  [--trace 0|1] [--trace-out FILE] [--smoke]
 *
 * Prints one `workload metric value unit` line per metric, then, as
 * the last line, the JSON result object. --trace 0 reports the
 * end-to-end metrics of untraced rounds; --trace 1 (implied by
 * --trace-out) reports the per-layer metrics of a traced run. Exits 1
 * when any answer is wrong, 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "suite.hh"

using namespace alphapim;

namespace
{

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed S] [--seconds T]\n"
                 "          [--trace 0|1] [--trace-out FILE] [--smoke]\n"
                 "workloads:",
                 prog);
    for (const std::string &name : suite::workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    suite::Options opt;
    CliArgs args(argc, argv,
                 [argv](const std::string &) { usage(argv[0]); });
    while (args.next()) {
        const std::string &arg = args.arg();
        if (arg == "--workload")
            opt.workload = args.value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(args.value(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(args.value());
        else if (arg == "--trace")
            opt.trace = std::string(args.value()) != "0";
        else if (arg == "--trace-out")
            opt.traceOut = args.value();
        else if (arg == "--smoke")
            opt.smoke = true;
        else
            usage(argv[0]);
    }
    bool known = false;
    for (const std::string &name : suite::workloadNames())
        known = known || name == opt.workload;
    if (!known)
        usage(argv[0]);
    opt.trace = opt.trace || !opt.traceOut.empty();
    setLogLevelByName("silent");

    const suite::Outcome outcome = suite::runWorkload(opt);
    for (const suite::Metric &m : outcome.metrics)
        std::printf("%s %s %.17g %s\n", opt.workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s\n", suite::resultJson(outcome).c_str());
    return suite::exitStatus(outcome);
}
