/**
 * @file
 * alphapim_modelcheck: exhaustive-schedule static verification of
 * kernel synchronization and the host launch protocol.
 *
 * Subjects are synchronization skeletons: either harvested from the
 * shipped kernels / applications by running them functionally on tiny
 * abstract partitions (src/analysis/modelcheck/extract.hh), or built
 * from the abstract launch-protocol model (protocol.hh). Each subject
 * is handed to the sleep-set DPOR explorer, which enumerates every
 * schedule up to --max-states and proves race-freedom,
 * deadlock-freedom and barrier-round consistency -- or reports the
 * defect with the pim-verify Finding kinds.
 *
 * Exit codes: 0 all subjects proved clean; 2 usage or I/O error;
 * 3 findings; 4 no findings but some exploration hit the state bound
 * (a clean-but-unproved result).
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/checker.hh"
#include "analysis/modelcheck/explorer.hh"
#include "analysis/modelcheck/extract.hh"
#include "analysis/modelcheck/protocol.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "perf/build_info.hh"
#include "telemetry/json.hh"

using namespace alphapim;
using namespace alphapim::analysis;
using namespace alphapim::analysis::modelcheck;

namespace
{

const core::KernelVariant allKernels[] = {
    core::KernelVariant::SpmspvCoo,    core::KernelVariant::SpmspvCsr,
    core::KernelVariant::SpmspvCscR,   core::KernelVariant::SpmspvCscC,
    core::KernelVariant::SpmspvCsc2d,  core::KernelVariant::SpmvCoo1d,
    core::KernelVariant::SpmvCooRow1d, core::KernelVariant::SpmvCsrRow1d,
    core::KernelVariant::SpmvDcoo2d,
};

const LaunchSchedule allSchedules[] = {
    LaunchSchedule::Serial,
    LaunchSchedule::RankOverlap,
    LaunchSchedule::DoubleBuffer,
    LaunchSchedule::Combined,
};

struct Options
{
    bool kernels = false;
    bool protocol = false;
    bool apps = false;
    std::vector<core::KernelVariant> kernelList;
    std::vector<LaunchSchedule> scheduleList;
    std::vector<std::string> appList;
    core::MxvStrategy strategy = core::MxvStrategy::Adaptive;

    ExtractOptions extract;
    ProtocolOptions proto;

    std::uint64_t maxStates = 1ull << 21;
    bool naive = false;
    bool compareNaive = false;
    std::string jsonOut;
};

/** One explored subject's aggregated outcome, for report rendering. */
struct SubjectResult
{
    std::string subject;
    unsigned skeletons = 0;   ///< distinct fingerprints explored
    unsigned dpuPrograms = 0; ///< per-DPU programs before dedup
    unsigned launches = 0;    ///< captured launches (0 for protocol)
    ExploreStats stats;       ///< summed across skeletons
    bool complete = true;
    std::uint64_t findings = 0;
    std::uint64_t naiveStates = 0; ///< --compare-naive only
    bool naiveComplete = true;     ///< naive run within the bound
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: alphapim_modelcheck [subjects] [options]\n"
        "subjects (default: --kernels --protocol):\n"
        "  --kernels[=LIST]   kernel variants, comma-separated paper\n"
        "                     names (COO,CSC-2D,...); no list = all\n"
        "  --protocol[=LIST]  launch schedules (serial,rank-overlap,\n"
        "                     double-buffer,combined); no list = all\n"
        "  --apps[=LIST]      applications (bfs,sssp,ppr,cc);\n"
        "                     no list = all\n"
        "  --strategy NAME    app strategy: adaptive|costmodel|\n"
        "                     spmspv|spmv (default adaptive)\n"
        "abstract partition shape:\n"
        "  --dpus N --tasklets N --vertices N --edges N --seed N\n"
        "launch-protocol model shape:\n"
        "  --ranks N --iterations N\n"
        "  --inject NAME      seed a protocol defect: drop-load-barrier|\n"
        "                     shared-staging|single-buffer|skip-final-barrier\n"
        "exploration:\n"
        "  --max-states N     DFS node budget per skeleton\n"
        "  --naive            disable sleep-set reduction\n"
        "  --compare-naive    also explore naively, log the reduction\n"
        "  --quick            CI bounds (max-states 200000)\n"
        "output:\n"
        "  --json-out PATH    write a JSON report\n"
        "  --version          print git SHA + build type and exit\n"
        "Every flag also accepts the --flag=value spelling.\n"
        "exit: 0 proved clean, 2 usage/I/O, 3 findings,\n"
        "      4 clean but state bound hit (unproved)\n");
    std::exit(2);
}

bool
parseKernelList(const std::string &list,
                std::vector<core::KernelVariant> &out)
{
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name = list.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        bool found = false;
        for (const core::KernelVariant v : allKernels) {
            if (name == core::kernelVariantName(v)) {
                out.push_back(v);
                found = true;
                break;
            }
        }
        if (!found) {
            std::fprintf(stderr,
                         "alphapim_modelcheck: unknown kernel '%s'\n",
                         name.c_str());
            return false;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

bool
parseScheduleList(const std::string &list,
                  std::vector<LaunchSchedule> &out)
{
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name = list.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        bool found = false;
        for (const LaunchSchedule s : allSchedules) {
            if (name == launchScheduleName(s)) {
                out.push_back(s);
                found = true;
                break;
            }
        }
        if (!found) {
            std::fprintf(
                stderr,
                "alphapim_modelcheck: unknown schedule '%s'\n",
                name.c_str());
            return false;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

bool
parseAppList(const std::string &list, std::vector<std::string> &out)
{
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name = list.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        const auto &known = knownApps();
        if (std::find(known.begin(), known.end(), name) ==
            known.end()) {
            std::fprintf(stderr,
                         "alphapim_modelcheck: unknown app '%s'\n",
                         name.c_str());
            return false;
        }
        out.push_back(name);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    CliArgs args(argc, argv, [](const std::string &flag) {
        std::fprintf(stderr,
                     "alphapim_modelcheck: %s: missing or bad value\n",
                     flag.c_str());
        usage();
    });
    while (args.next()) {
        const std::string &arg = args.arg();
        auto next = [&]() -> std::string { return args.value(); };

        if (arg == "--kernels") {
            opt.kernels = true;
            if (args.hasInlineValue() &&
                !parseKernelList(args.inlineValue(), opt.kernelList))
                usage();
        } else if (arg == "--protocol") {
            opt.protocol = true;
            if (args.hasInlineValue() &&
                !parseScheduleList(args.inlineValue(),
                                   opt.scheduleList))
                usage();
        } else if (arg == "--apps") {
            opt.apps = true;
            if (args.hasInlineValue() &&
                !parseAppList(args.inlineValue(), opt.appList))
                usage();
        } else if (arg == "--strategy") {
            const std::string v = next();
            if (v == "adaptive")
                opt.strategy = core::MxvStrategy::Adaptive;
            else if (v == "costmodel")
                opt.strategy = core::MxvStrategy::CostModel;
            else if (v == "spmspv")
                opt.strategy = core::MxvStrategy::SpmspvOnly;
            else if (v == "spmv")
                opt.strategy = core::MxvStrategy::SpmvOnly;
            else
                usage();
        } else if (arg == "--dpus") {
            args.readUnsigned(opt.extract.dpus, 1);
        } else if (arg == "--tasklets") {
            args.readUnsigned(opt.extract.tasklets, 1,
                              upmem::DpuConfig{}.maxTasklets);
        } else if (arg == "--vertices") {
            args.readUnsigned(opt.extract.vertices, 2);
        } else if (arg == "--edges") {
            args.readUnsigned(opt.extract.edges);
        } else if (arg == "--seed") {
            args.readUnsigned(opt.extract.seed);
        } else if (arg == "--ranks") {
            args.readUnsigned(opt.proto.ranks, 1);
        } else if (arg == "--iterations") {
            args.readUnsigned(opt.proto.iterations, 1);
        } else if (arg == "--inject") {
            const std::string v = next();
            if (v == "drop-load-barrier")
                opt.proto.dropLoadBarrier = true;
            else if (v == "shared-staging")
                opt.proto.sharedStaging = true;
            else if (v == "single-buffer")
                opt.proto.singleBuffer = true;
            else if (v == "skip-final-barrier")
                opt.proto.skipFinalBarrier = true;
            else
                usage();
        } else if (arg == "--max-states") {
            args.readUnsigned(opt.maxStates);
        } else if (arg == "--naive") {
            opt.naive = true;
        } else if (arg == "--compare-naive") {
            opt.compareNaive = true;
        } else if (arg == "--quick") {
            opt.maxStates = 200000;
        } else if (arg == "--json-out") {
            opt.jsonOut = next();
        } else if (arg == "--version") {
            std::printf("alphapim_modelcheck %s (%s%s%s)\n",
                        perf::gitSha(), perf::buildType(),
                        perf::buildFlags()[0] ? ", " : "",
                        perf::buildFlags());
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else {
            std::fprintf(stderr,
                         "alphapim_modelcheck: unknown flag '%s'\n",
                         arg.c_str());
            usage();
        }
    }
    if (!opt.kernels && !opt.protocol && !opt.apps) {
        opt.kernels = true;
        opt.protocol = true;
    }
    if (opt.kernels && opt.kernelList.empty())
        opt.kernelList.assign(std::begin(allKernels),
                              std::end(allKernels));
    if (opt.protocol && opt.scheduleList.empty())
        opt.scheduleList.assign(std::begin(allSchedules),
                                std::end(allSchedules));
    if (opt.apps && opt.appList.empty())
        opt.appList = knownApps();
    return opt;
}

void
accumulate(SubjectResult &r, const ExploreResult &e)
{
    r.stats.states += e.stats.states;
    r.stats.transitions += e.stats.transitions;
    r.stats.sleepSkips += e.stats.sleepSkips;
    r.stats.schedules += e.stats.schedules;
    r.stats.deadlockStates += e.stats.deadlockStates;
    r.stats.maxDepth = std::max(r.stats.maxDepth, e.stats.maxDepth);
    r.complete = r.complete && e.complete;
    r.findings += e.findings.size();
}

/** Explore every skeleton of an extraction under one subject label. */
SubjectResult
checkExtraction(const std::string &subject, const Extraction &ex,
                const Options &opt, std::vector<Finding> &findings)
{
    SubjectResult r;
    r.subject = subject;
    r.skeletons = static_cast<unsigned>(ex.skeletons.size());
    r.dpuPrograms = ex.dpuPrograms;
    r.launches = ex.launches;
    r.findings = ex.lintFindings.size();
    findings.insert(findings.end(), ex.lintFindings.begin(),
                    ex.lintFindings.end());

    ExploreOptions eo;
    eo.maxStates = opt.maxStates;
    eo.reduction = !opt.naive;
    for (const ExtractedSkeleton &s : ex.skeletons) {
        const ExploreResult e = explore(s.skeleton, eo);
        accumulate(r, e);
        findings.insert(findings.end(), e.findings.begin(),
                        e.findings.end());
        if (opt.compareNaive) {
            ExploreOptions naive = eo;
            naive.reduction = false;
            const ExploreResult n = explore(s.skeleton, naive);
            r.naiveStates += n.stats.states;
            r.naiveComplete = r.naiveComplete && n.complete;
        }
    }
    return r;
}

SubjectResult
checkProtocol(LaunchSchedule schedule, const Options &opt,
              std::vector<Finding> &findings)
{
    const SyncSkeleton skel =
        buildProtocolSkeleton(schedule, opt.proto);
    Extraction ex;
    ex.skeletons.push_back({skel, 1});
    ex.dpuPrograms = 1;
    SubjectResult r =
        checkExtraction(skel.subject, ex, opt, findings);
    return r;
}

void
printSubject(const SubjectResult &r)
{
    std::printf(
        "modelcheck: %-28s %u skeleton(s), %llu states, "
        "%llu transitions, %llu schedules, %llu sleep-set prunes, "
        "%s, %llu finding(s)\n",
        r.subject.c_str(), r.skeletons,
        static_cast<unsigned long long>(r.stats.states),
        static_cast<unsigned long long>(r.stats.transitions),
        static_cast<unsigned long long>(r.stats.schedules),
        static_cast<unsigned long long>(r.stats.sleepSkips),
        r.complete ? "complete" : "STATE BOUND HIT",
        static_cast<unsigned long long>(r.findings));
    if (r.naiveStates > 0 && r.stats.states > 0) {
        std::printf(
            "modelcheck: %-28s DPOR explored %llu states vs %s%llu "
            "naive (%s%.1fx reduction)\n",
            r.subject.c_str(),
            static_cast<unsigned long long>(r.stats.states),
            r.naiveComplete ? "" : ">=",
            static_cast<unsigned long long>(r.naiveStates),
            r.naiveComplete ? "" : ">=",
            static_cast<double>(r.naiveStates) /
                static_cast<double>(r.stats.states));
    }
}

std::string
reportJson(const std::vector<SubjectResult> &subjects,
           const std::vector<Finding> &findings, bool complete)
{
    std::array<std::uint64_t, numFindingKinds> counts{};
    for (const Finding &f : findings)
        ++counts[static_cast<unsigned>(f.kind)];

    telemetry::JsonWriter w;
    w.beginObject();
    w.key("schema").value("alpha-pim-analysis-v1");
    w.key("tool").value("alphapim_modelcheck");
    w.key("total_findings")
        .value(static_cast<std::uint64_t>(findings.size()));
    w.key("counts").beginObject();
    for (unsigned k = 0; k < numFindingKinds; ++k) {
        w.key(findingKindName(static_cast<FindingKind>(k)))
            .value(counts[k]);
    }
    w.endObject();
    w.key("findings").beginArray();
    for (const Finding &f : findings) {
        w.beginObject();
        w.key("kind").value(findingKindName(f.kind));
        w.key("dpu").value(static_cast<std::uint64_t>(f.dpu));
        w.key("tasklet").value(static_cast<std::uint64_t>(f.tasklet));
        if (f.otherTasklet != noTasklet) {
            w.key("other_tasklet")
                .value(static_cast<std::uint64_t>(f.otherTasklet));
        }
        if (f.space != MemSpace::None) {
            w.key("space").value(memSpaceName(f.space));
            w.key("addr").value(f.addr);
            w.key("bytes").value(static_cast<std::uint64_t>(f.bytes));
        }
        w.key("id").value(static_cast<std::uint64_t>(f.id));
        w.key("detail").value(f.detail);
        w.endObject();
    }
    w.endArray();
    w.key("modelcheck").beginObject();
    w.key("complete").value(complete);
    ExploreStats total;
    for (const SubjectResult &r : subjects) {
        total.states += r.stats.states;
        total.transitions += r.stats.transitions;
        total.sleepSkips += r.stats.sleepSkips;
        total.schedules += r.stats.schedules;
        total.deadlockStates += r.stats.deadlockStates;
    }
    w.key("states").value(total.states);
    w.key("transitions").value(total.transitions);
    w.key("sleep_skips").value(total.sleepSkips);
    w.key("schedules").value(total.schedules);
    w.key("deadlock_states").value(total.deadlockStates);
    w.key("subjects").beginArray();
    for (const SubjectResult &r : subjects) {
        w.beginObject();
        w.key("subject").value(r.subject);
        w.key("skeletons")
            .value(static_cast<std::uint64_t>(r.skeletons));
        w.key("dpu_programs")
            .value(static_cast<std::uint64_t>(r.dpuPrograms));
        w.key("launches")
            .value(static_cast<std::uint64_t>(r.launches));
        w.key("states").value(r.stats.states);
        w.key("transitions").value(r.stats.transitions);
        w.key("sleep_skips").value(r.stats.sleepSkips);
        w.key("schedules").value(r.stats.schedules);
        w.key("max_depth").value(r.stats.maxDepth);
        w.key("complete").value(r.complete);
        w.key("findings").value(r.findings);
        if (r.naiveStates > 0)
            w.key("naive_states").value(r.naiveStates);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    std::vector<SubjectResult> subjects;
    std::vector<Finding> findings;

    for (const core::KernelVariant v : opt.kernelList) {
        const Extraction ex = extractKernelSkeletons(v, opt.extract);
        subjects.push_back(checkExtraction(
            core::kernelVariantName(v), ex, opt, findings));
        printSubject(subjects.back());
    }
    for (const std::string &app : opt.appList) {
        const Extraction ex =
            extractAppSkeletons(app, opt.strategy, opt.extract);
        subjects.push_back(checkExtraction(
            app + "/" + core::mxvStrategyName(opt.strategy), ex, opt,
            findings));
        printSubject(subjects.back());
    }
    for (const LaunchSchedule s : opt.scheduleList) {
        subjects.push_back(checkProtocol(s, opt, findings));
        printSubject(subjects.back());
    }

    std::sort(findings.begin(), findings.end(), findingLess);
    findings.erase(
        std::unique(findings.begin(), findings.end(), findingEquals),
        findings.end());

    bool complete = true;
    for (const SubjectResult &r : subjects)
        complete = complete && r.complete;

    std::printf("modelcheck: %zu subject(s), %zu distinct finding(s)%s\n",
                subjects.size(), findings.size(),
                complete ? "" : ", exploration incomplete");
    for (const Finding &f : findings)
        std::printf("  %s\n", describeFinding(f).c_str());

    if (!opt.jsonOut.empty()) {
        std::ofstream out(opt.jsonOut);
        out << reportJson(subjects, findings, complete) << '\n';
        if (!out) {
            std::fprintf(stderr,
                         "alphapim_modelcheck: cannot write '%s'\n",
                         opt.jsonOut.c_str());
            return 2;
        }
        inform("wrote modelcheck report to %s", opt.jsonOut.c_str());
    }

    if (!findings.empty())
        return 3;
    return complete ? 0 : 4;
}
