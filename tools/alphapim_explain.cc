/**
 * @file
 * alphapim_explain: execution-timeline observatory over the run
 * artifacts the framework already emits.
 *
 * Trace mode (--trace FILE, a --trace-out Chrome trace):
 * reconstructs the per-rank / per-DPU timeline, walks the critical
 * path through the launch phases with per-phase attribution
 * (checked against the accounted model time), reports rank/DPU
 * occupancy, the transfer/kernel overlap fraction, and the what-if
 * overlap bounds; --html FILE additionally renders a self-contained
 * HTML page (inline SVG, no external dependencies).
 *
 * Records mode (--records FILE, a --json-out JSONL file): prints the
 * timeline summary block of every run record that carries one.
 *
 * --imbalance adds the load-imbalance section: per-DPU skew,
 * straggler attribution and the rebalance bound, plus the modeled
 * roofline position. In trace mode the analytics are recomputed from
 * the per-DPU kernel spans (stall composition and MRAM traffic ride
 * on the span args); in records mode the run record's "imbalance"
 * block is printed. The HTML report always carries the
 * per-DPU heatmap lane and the roofline chart when the trace has the
 * per-DPU data.
 *
 * --host adds the host-observatory section: where the simulator's
 * own wall seconds went (per-phase profiler), the memory footprint,
 * the replay/trace throughput, and the simulation slowdown factor.
 * In trace mode the data comes from the "host_profile" instant
 * events, in records mode from the run record's "host" block; both
 * are read through the host field list (telemetry::kHostFields). The
 * HTML report gains a host-phase lane whenever the trace carries the
 * event.
 *
 * Both modes warn loudly -- on stderr and in the report header --
 * when the artifact records dropped trace spans or dropped
 * distribution samples: the data below is then incomplete.
 *
 * Exit codes: 0 report produced, 1 artifact held no reconstructible
 * launches, 2 usage or I/O error.
 */

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/critical_path.hh"
#include "analysis/imbalance.hh"
#include "common/cli.hh"
#include "common/types.hh"
#include "perf/build_info.hh"
#include "perf/record.hh"
#include "telemetry/host_prof.hh"
#include "telemetry/json.hh"
#include "telemetry/timeline.hh"

using namespace alphapim;

namespace
{

struct ExplainOptions
{
    std::string trace;
    std::string records;
    std::string html;
    bool imbalance = false;
    bool host = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: alphapim_explain --trace FILE [--html FILE] "
        "[--imbalance] [--host]\n"
        "       alphapim_explain --records FILE [--imbalance] "
        "[--host]\n"
        "  --trace FILE    Chrome trace JSON (from --trace-out)\n"
        "  --records FILE  run-record JSONL (from --json-out)\n"
        "  --html FILE     write a self-contained HTML report\n"
        "  --imbalance     add the per-DPU skew / straggler /\n"
        "                  roofline section to the text report\n"
        "  --host          add the host-observatory section: per-\n"
        "                  phase simulator host seconds, memory\n"
        "                  footprint, throughput, slowdown factor\n"
        "  --version       print git SHA + build type and exit\n"
        "Every flag also accepts the --flag=value spelling.\n");
    std::exit(2);
}

ExplainOptions
parseArgs(int argc, char **argv)
{
    ExplainOptions opt;
    CliArgs args(argc, argv,
                 [](const std::string &) { usage(); });
    while (args.next()) {
        const std::string &arg = args.arg();
        if (arg == "--trace")
            opt.trace = args.value();
        else if (arg == "--records")
            opt.records = args.value();
        else if (arg == "--html")
            opt.html = args.value();
        else if (arg == "--imbalance")
            opt.imbalance = true;
        else if (arg == "--host")
            opt.host = true;
        else if (arg == "--version") {
            std::printf("alphapim_explain %s (%s%s%s)\n",
                        perf::gitSha(), perf::buildType(),
                        perf::buildFlags()[0] ? ", " : "",
                        perf::buildFlags());
            std::exit(0);
        } else
            usage();
    }
    if (opt.trace.empty() == opt.records.empty())
        usage();
    return opt;
}

std::string
fmt(const char *format, ...)
{
    va_list args;
    va_start(args, format);
    va_list sizing;
    va_copy(sizing, args);
    const int length = std::vsnprintf(nullptr, 0, format, sizing);
    va_end(sizing);
    std::string out(static_cast<std::size_t>(std::max(length, 0)), '\0');
    std::vsnprintf(out.data(), out.size() + 1, format, args);
    va_end(args);
    return out;
}

/** Everything read back out of one Chrome trace file. */
struct LoadedTrace
{
    std::vector<telemetry::TimelineSpan> spans;

    /** The "host_profile" events, read through the host field list
     * and folded into one whole-artifact profile. */
    telemetry::HostProfile host;
    std::size_t hostEvents = 0;

    /** Telemetry health: tracer overflow and reservoir drops. */
    double droppedSpans = 0.0;
    double samplesDropped = 0.0;
};

/** Load a Chrome trace file back into timeline spans plus the
 * host-observatory events and the telemetry-health fields. */
bool
loadTraceSpans(const std::string &path, LoadedTrace &lt,
               std::string *error)
{
    std::vector<telemetry::TimelineSpan> &out = lt.spans;
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open '" + path + "'";
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    telemetry::JsonValue doc;
    if (!telemetry::JsonValue::parse(buffer.str(), doc, error))
        return false;
    const auto *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        *error = "no traceEvents array -- not a Chrome trace";
        return false;
    }
    lt.droppedSpans = doc.number("droppedSpans");
    for (const auto &e : events->items()) {
        if (!e.isObject())
            continue;
        const auto *ph = e.find("ph");
        if (!ph || !ph->isString())
            continue;
        if (ph->asString() == "i") {
            const auto *name = e.find("name");
            const auto *args = e.find("args");
            if (!name || !name->isString() ||
                name->asString() != "host_profile" || !args ||
                !args->isObject())
                continue;
            telemetry::HostProfile event;
            if (!telemetry::readFields(*args, event,
                                       telemetry::kHostFields, error)) {
                *error = "host_profile event: " + *error;
                return false;
            }
            lt.host.add(event);
            ++lt.hostEvents;
            lt.droppedSpans = std::max(
                lt.droppedSpans, args->number("trace_dropped_spans"));
            lt.samplesDropped = std::max(
                lt.samplesDropped, args->number("metrics_samples_dropped"));
            continue;
        }
        if (ph->asString() != "X")
            continue;
        telemetry::TimelineSpan s;
        if (const auto *v = e.find("name"); v && v->isString())
            s.name = v->asString();
        if (const auto *v = e.find("cat"); v && v->isString())
            s.category = v->asString();
        s.pid = static_cast<std::uint32_t>(e.number("pid"));
        s.tid = static_cast<std::uint32_t>(e.number("tid"));
        s.start = e.number("ts") / 1e6; // micros -> seconds
        s.duration = e.number("dur") / 1e6;
        if (const auto *args = e.find("args");
            args && args->isObject()) {
            s.bytes = args->number("bytes");
            s.cycles = args->number("cycles");
            s.issued = args->number("issued");
            s.stallMemory = args->number("stall_memory");
            s.stallRevolver = args->number("stall_revolver");
            s.stallRfHazard = args->number("stall_rf_hazard");
            s.stallSync = args->number("stall_sync");
            s.instr = args->number("instr");
            s.mramBytes = args->number("mram_bytes");
        }
        out.push_back(std::move(s));
    }
    return true;
}

/**
 * Per-launch imbalance recomputed from the trace's per-DPU kernel
 * spans: spans sharing a start time belong to one launch (the
 * launcher emits the fleet's spans from a common origin), and the
 * kernel name comes from the launch window containing that start.
 * Two trace-side caveats vs the in-process observer: idle DPUs are
 * not traced, so the skew is over active DPUs only, and the roofline
 * ceilings use the default DpuConfig because the machine shape is
 * not recorded in the trace.
 */
std::vector<analysis::LaunchImbalance>
computeTraceImbalance(const telemetry::Timeline &tl)
{
    std::map<Seconds,
             std::vector<std::pair<unsigned,
                                   const telemetry::TimelineSpan *>>>
        groups;
    for (const auto &[dpu, spans] : tl.dpuSpans)
        for (const telemetry::TimelineSpan &s : spans)
            groups[s.start].emplace_back(dpu, &s);

    std::vector<analysis::LaunchImbalance> out;
    const upmem::DpuConfig cfg;
    for (const auto &[start, members] : groups) {
        std::vector<upmem::DpuProfile> profiles;
        std::vector<unsigned> track_of;
        profiles.reserve(members.size());
        for (const auto &[dpu, s] : members) {
            upmem::DpuProfile p;
            p.totalCycles = static_cast<Cycles>(s->cycles);
            p.issuedCycles = static_cast<Cycles>(s->issued);
            // In upmem::StallReason order.
            const double stalls[] = {s->stallMemory, s->stallRevolver,
                                     s->stallRfHazard, s->stallSync};
            for (std::size_t r = 0; r < std::size(stalls); ++r)
                p.stallCycles[r] = static_cast<Cycles>(stalls[r]);
            // The trace keeps only the instruction total; the class
            // split matters to neither the skew nor the roofline.
            p.instrByClass[0] =
                static_cast<std::uint64_t>(s->instr);
            p.mramReadBytes = static_cast<Bytes>(s->mramBytes);
            profiles.push_back(p);
            track_of.push_back(dpu);
        }
        std::string kernel;
        for (const telemetry::LaunchWindow &l : tl.launches) {
            if (l.start <= start && start <= l.end())
                kernel = l.kernel;
        }
        analysis::LaunchImbalance li =
            analysis::computeLaunchImbalance(kernel, profiles, {},
                                             cfg);
        // Remap the straggler from profile index to DPU track id.
        if (li.stragglerDpu < track_of.size())
            li.stragglerDpu = track_of[li.stragglerDpu];
        out.push_back(std::move(li));
    }
    return out;
}

/** Everything the reports are rendered from. */
struct Analysis
{
    telemetry::Timeline timeline;
    telemetry::TimelineStats stats;
    analysis::CriticalPath path;
    analysis::WhatIf whatif;
    std::vector<analysis::LaunchImbalance> imbalance;
    telemetry::HostProfile host;
    std::size_t hostEvents = 0;

    /** Telemetry-health warnings; rendered in the report header and
     * echoed to stderr (dropped spans / dropped samples). */
    std::vector<std::string> warnings;
};

Analysis
analyze(LoadedTrace lt)
{
    Analysis a;
    a.host = lt.host;
    a.hostEvents = lt.hostEvents;
    if (lt.droppedSpans > 0.0) {
        a.warnings.push_back(fmt(
            "WARNING: the tracer dropped %.0f spans (buffer "
            "overflow) -- the timeline below is incomplete",
            lt.droppedSpans));
    }
    if (lt.samplesDropped > 0.0) {
        a.warnings.push_back(fmt(
            "WARNING: %.0f distribution samples were dropped past "
            "the reservoir cap -- percentile metrics are "
            "approximate",
            lt.samplesDropped));
    }
    std::vector<telemetry::TimelineSpan> spans =
        std::move(lt.spans);
    a.timeline = telemetry::buildTimeline(spans);
    a.stats = telemetry::computeStats(a.timeline);
    a.path = analysis::criticalPath(a.timeline.launches);
    a.whatif = analysis::estimateOverlap(a.timeline.launches);
    a.imbalance = computeTraceImbalance(a.timeline);
    return a;
}

std::string
textReport(const std::string &source, const Analysis &a)
{
    const auto &s = a.stats;
    std::string out;
    out += fmt("alphapim-explain: %s\n", source.c_str());
    for (const std::string &w : a.warnings)
        out += w + "\n";
    out += fmt(
        "window: %.3f ms model time -- %zu launches, %zu rank "
        "tracks, %zu DPU tracks\n",
        toMillis(s.windowSeconds), s.launches, s.ranks, s.dpus);

    out += fmt("critical path: %.3f ms across %zu nodes\n",
               toMillis(a.path.length), a.path.nodes);
    for (std::size_t p = 0; p < analysis::numPathPhases; ++p) {
        const auto phase = static_cast<analysis::PathPhase>(p);
        out += fmt("  %-9s %8.3f ms  (%5.1f%% of the path)\n",
                   analysis::pathPhaseName(phase),
                   toMillis(a.path.phaseSeconds[p]),
                   a.path.phaseFraction(phase) * 100.0);
    }
    const Seconds accounted = a.timeline.accountedSeconds();
    const double error = accounted > 0.0
        ? std::abs(a.path.length - accounted) / accounted
        : 0.0;
    out += fmt(
        "attribution: path %.3f ms vs accounted launch time %.3f "
        "ms -- %.2f%% apart (%s)\n",
        toMillis(a.path.length), toMillis(accounted), error * 100.0,
        error <= 0.01 ? "OK" : "MISMATCH");

    out += fmt(
        "rank occupancy: mean %.1f%%, min %.1f%%; DPU occupancy "
        "mean %.2f%%\n",
        s.rankOccupancyMean * 100.0, s.rankOccupancyMin * 100.0,
        s.dpuOccupancyMean * 100.0);
    for (const auto &[rank, frac] : s.rankOccupancy)
        out += fmt("  rank %-3u busy %5.1f%% of the window\n", rank,
                   frac * 100.0);
    out += fmt(
        "transfer/kernel overlap: %.2f (transfers busy %.3f ms, "
        "kernels busy %.3f ms); idle fraction %.2f\n",
        s.overlapFraction, toMillis(s.transferBusySeconds),
        toMillis(s.kernelBusySeconds), s.idleFraction);

    const auto &w = a.whatif;
    out += "what-if overlap bounds (speedup ceilings vs the "
           "serial schedule):\n";
    out += fmt(
        "  rank overlap      %.3f ms  (%.2fx)  kernels hidden "
        "under neighbouring ranks' transfers\n",
        toMillis(w.rankOverlapSeconds), w.rankOverlapSpeedup());
    out += fmt(
        "  double buffering  %.3f ms  (%.2fx)  next input load "
        "hidden under the host merge\n",
        toMillis(w.doubleBufferSeconds), w.doubleBufferSpeedup());
    out += fmt(
        "  combined pipeline %.3f ms  (%.2fx)  throughput-bound "
        "on the busiest resource\n",
        toMillis(w.combinedSeconds), w.combinedSpeedup());
    return out;
}

/** --imbalance text section of the trace report: run aggregate, the
 * worst launch's straggler attribution, and the roofline position. */
std::string
imbalanceReport(const Analysis &a)
{
    const std::vector<analysis::LaunchImbalance> &launches =
        a.imbalance;
    std::string out;
    if (launches.empty()) {
        out += "imbalance: no per-DPU kernel spans in the trace "
               "(recorded before the heatmap args existed?)\n";
        return out;
    }
    const analysis::RunImbalance run = analysis::foldRun(launches);
    const analysis::LaunchImbalance *worst = &launches.front();
    for (const analysis::LaunchImbalance &li : launches) {
        if (li.stragglerCyclesOverMean >
            worst->stragglerCyclesOverMean)
            worst = &li;
    }
    out += fmt(
        "imbalance: %zu launches, run straggler factor %.2fx\n",
        run.launches, run.stragglerFactor);
    out += fmt(
        "  worst launch%s%s: cycles gini %.2f, cov %.2f, p99/mean "
        "%.2fx over %u DPUs\n",
        worst->kernel.empty() ? "" : " ",
        worst->kernel.c_str(), worst->cycles.gini,
        worst->cycles.cov, worst->cycles.p99OverMean(),
        worst->dpus);
    out += "  straggler: " + analysis::describeStraggler(*worst) + "\n";
    out += fmt(
        "  rebalance bound: leveled kernel time %.3f ms vs %.3f ms "
        "actual (%.2fx available)\n",
        toMillis(run.leveledKernelSeconds),
        toMillis(run.kernelSeconds),
        run.leveledKernelSeconds > 0.0
            ? run.kernelSeconds / run.leveledKernelSeconds
            : 1.0);
    const analysis::RooflinePoint &rp = worst->roofline;
    out += fmt(
        "  roofline (worst launch): %.2f instr/byte (ridge %.2f) "
        "-- %s-bound; %.3g ops/s achieved vs %.3g pipeline "
        "ceiling\n",
        rp.opIntensity, rp.ridgeIntensity,
        rp.memoryBound ? "memory" : "compute",
        rp.achievedOpsPerSec, rp.pipelineCeilingOpsPerSec);
    out += "  note: trace-side skew covers traced (active) DPUs "
           "only; roofline ceilings assume the default machine "
           "config\n";
    return out;
}

/** --host text section: per-phase host/model breakdown, throughput,
 * memory footprint and the simulation slowdown factor. */
std::string
hostReport(const telemetry::HostProfile &h, std::size_t events)
{
    std::string out;
    if (events == 0) {
        out += "host profile: no host_profile events in the trace "
               "(recorded with --host-prof=off or by an older "
               "build?)\n";
        return out;
    }
    out += fmt(
        "host profile: %.3f s simulator wall vs %.3g s model time",
        h.totalSeconds, h.modelSeconds);
    if (h.slowdownFactor > 0.0)
        out += fmt(" -- slowdown %.1fx", h.slowdownFactor);
    out += fmt(" (%zu profile events)\n", events);
    for (unsigned p = 0; p < telemetry::kHostPhaseCount; ++p) {
        out += fmt("  %-15s %9.3f ms  (%5.1f%% of host wall)\n",
                   telemetry::hostPhaseName(
                       static_cast<telemetry::HostPhase>(p)),
                   toMillis(h.phaseSeconds[p]),
                   h.totalSeconds > 0.0
                       ? h.phaseSeconds[p] / h.totalSeconds * 100.0
                       : 0.0);
    }
    out += fmt(
        "  throughput: %.3g replayed slots/s (%.3g slots), %.3g "
        "trace records/s (%.3g records)\n",
        h.replaySlotsPerSec, static_cast<double>(h.replaySlots),
        h.traceRecordsPerSec, static_cast<double>(h.traceRecords));
    out += fmt(
        "  memory: peak RSS %.1f MB, tasklet-trace high water "
        "%.2f MB\n",
        static_cast<double>(h.peakRssBytes) / 1e6,
        static_cast<double>(h.taskletTraceBytesPeak) / 1e6);
    return out;
}

/** Host-phase colors, indexed by telemetry::HostPhase. */
constexpr const char *kHostPhaseColors
    [telemetry::kHostPhaseCount] = {
        "#0ea5e9", // partition_build: sky
        "#f59e0b", // trace_record: amber
        "#16a34a", // replay: green
        "#a3e635", // profile_fold: lime
        "#3b82f6", // transfer_model: blue
        "#8b5cf6", // host_merge: violet
        "#dc2626", // analysis: red
};

/** Host-phase lane: one proportional stacked bar of where the
 * simulator's own wall time went. Empty when the trace carries no
 * host_profile events. */
std::string
hostLaneSvg(const telemetry::HostProfile &h)
{
    if (h.totalSeconds <= 0.0)
        return "";
    constexpr double width = 1000.0;
    constexpr double labelW = 90.0;
    constexpr double rowH = 18.0;
    const double chartW = width - labelW - 10.0;
    std::string svg;
    svg += fmt("<svg id=\"hostlane\" viewBox=\"0 0 %.0f %.0f\" "
               "xmlns=\"http://www.w3.org/2000/svg\" "
               "font-family=\"monospace\" font-size=\"11\">\n",
               width, rowH + 8.0);
    svg += fmt("<text x=\"4\" y=\"%.1f\">host</text>\n",
               4.0 + rowH - 5.0);
    double x = labelW;
    for (unsigned p = 0; p < telemetry::kHostPhaseCount; ++p) {
        const double frac = h.phaseSeconds[p] / h.totalSeconds;
        if (frac <= 0.0)
            continue;
        const double w = frac * chartW;
        const char *name = telemetry::hostPhaseName(
            static_cast<telemetry::HostPhase>(p));
        svg += fmt("<rect id=\"host-%s\" x=\"%.2f\" y=\"4\" "
                   "width=\"%.2f\" height=\"%.0f\" fill=\"%s\">"
                   "<title>%s: %.3f ms (%.1f%% of host "
                   "wall)</title></rect>\n",
                   name, x, std::max(0.5, w), rowH - 4.0,
                   kHostPhaseColors[p], name,
                   toMillis(h.phaseSeconds[p]), frac * 100.0);
        x += w;
    }
    svg += "</svg>\n";
    return svg;
}

const char *
phaseColor(const std::string &name)
{
    if (name == "scatter" || name == "broadcast")
        return "#3b82f6"; // load-side transfers: blue
    if (name == "gather")
        return "#8b5cf6"; // retrieve transfers: violet
    if (name == "kernel")
        return "#16a34a"; // kernels: green
    return "#9ca3af";
}

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          case '&':
            out += "&amp;";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/**
 * Per-DPU heatmap lane: one bar per traced DPU, length proportional
 * to its total kernel cycles across the run, segmented by where the
 * dispatch slots went (issued work + the four stall reasons); the
 * unattributed remainder stays background-grey. Empty string when
 * the trace carries no per-DPU cycle args (older traces).
 */
std::string
heatmapSvg(const telemetry::Timeline &tl)
{
    struct DpuAgg
    {
        double cycles = 0.0;
        double issued = 0.0;
        double stalls[4] = {};
    };
    std::vector<std::pair<unsigned, DpuAgg>> lanes;
    double max_cycles = 0.0;
    for (const auto &[dpu, spans] : tl.dpuSpans) {
        DpuAgg agg;
        for (const telemetry::TimelineSpan &s : spans) {
            agg.cycles += s.cycles;
            agg.issued += s.issued;
            agg.stalls[0] += s.stallMemory;
            agg.stalls[1] += s.stallRevolver;
            agg.stalls[2] += s.stallRfHazard;
            agg.stalls[3] += s.stallSync;
        }
        max_cycles = std::max(max_cycles, agg.cycles);
        lanes.emplace_back(dpu, agg);
    }
    if (max_cycles <= 0.0)
        return "";

    constexpr double width = 1000.0;
    constexpr double labelW = 90.0;
    constexpr double rowH = 12.0;
    const double chartW = width - labelW - 10.0;
    const double height =
        static_cast<double>(lanes.size()) * rowH + 8.0;
    const struct
    {
        const char *name;
        const char *color;
    } segments[5] = {
        {"issued", "#16a34a"},    {"memory", "#dc2626"},
        {"revolver", "#f59e0b"},  {"rf-hazard", "#6366f1"},
        {"sync", "#8b5cf6"},
    };

    std::string svg;
    svg += fmt("<svg id=\"heatmap\" viewBox=\"0 0 %.0f %.0f\" "
               "xmlns=\"http://www.w3.org/2000/svg\" "
               "font-family=\"monospace\" font-size=\"10\">\n",
               width, height);
    for (std::size_t r = 0; r < lanes.size(); ++r) {
        const auto &[dpu, agg] = lanes[r];
        const double y = 4.0 + static_cast<double>(r) * rowH;
        svg += fmt("<text x=\"4\" y=\"%.1f\">dpu %u</text>\n",
                   y + rowH - 3.0, dpu);
        const double bar = agg.cycles / max_cycles * chartW;
        svg += fmt("<rect id=\"heat-%u-total\" x=\"%.1f\" "
                   "y=\"%.1f\" width=\"%.2f\" height=\"%.0f\" "
                   "fill=\"#e5e7eb\"><title>dpu %u: %.0f "
                   "cycles</title></rect>\n",
                   dpu, labelW, y, std::max(0.5, bar), rowH - 3.0,
                   dpu, agg.cycles);
        double x = labelW;
        const double parts[5] = {agg.issued, agg.stalls[0],
                                 agg.stalls[1], agg.stalls[2],
                                 agg.stalls[3]};
        for (int p = 0; p < 5; ++p) {
            if (parts[p] <= 0.0 || agg.cycles <= 0.0)
                continue;
            const double w = parts[p] / agg.cycles * bar;
            svg += fmt("<rect id=\"heat-%u-%s\" x=\"%.2f\" "
                       "y=\"%.1f\" width=\"%.2f\" height=\"%.0f\" "
                       "fill=\"%s\"><title>dpu %u %s: %.0f%% of "
                       "cycles</title></rect>\n",
                       dpu, segments[p].name, x, y,
                       std::max(0.25, w), rowH - 3.0,
                       segments[p].color, dpu, segments[p].name,
                       parts[p] / agg.cycles * 100.0);
            x += w;
        }
    }
    svg += "</svg>\n";
    return svg;
}

/**
 * Log-log roofline chart: the pipeline and MRAM-bandwidth ceilings
 * of the default machine config with one point per launch (green =
 * compute-bound, red = memory-bound). Empty when no launch carries
 * MRAM traffic (operational intensity undefined).
 */
std::string
rooflineSvg(const std::vector<analysis::LaunchImbalance> &launches)
{
    double pipe = 0.0;
    double ridge = 0.0;
    for (const analysis::LaunchImbalance &li : launches) {
        pipe = std::max(pipe, li.roofline.pipelineCeilingOpsPerSec);
        ridge = li.roofline.ridgeIntensity;
    }
    bool any_point = false;
    for (const analysis::LaunchImbalance &li : launches)
        any_point = any_point || li.roofline.opIntensity > 0.0;
    if (!any_point || pipe <= 0.0 || ridge <= 0.0)
        return "";

    constexpr double width = 520.0;
    constexpr double height = 300.0;
    constexpr double left = 70.0;
    constexpr double top = 20.0;
    constexpr double plotW = 430.0;
    constexpr double plotH = 250.0;
    // Fixed log-log window: 4 intensity decades around the ridge
    // region, 5 throughput decades below 10x the pipeline ceiling.
    const double y_top = pipe * 10.0;
    auto lx = [&](double v) {
        const double l =
            std::log10(std::max(1e-2, std::min(1e2, v)));
        return left + (l + 2.0) / 4.0 * plotW;
    };
    auto ly = [&](double v) {
        const double l = std::log10(
            std::max(y_top * 1e-5, std::min(y_top, v)));
        return top + (std::log10(y_top) - l) / 5.0 * plotH;
    };

    std::string svg;
    svg += fmt("<svg id=\"roofline\" viewBox=\"0 0 %.0f %.0f\" "
               "xmlns=\"http://www.w3.org/2000/svg\" "
               "font-family=\"monospace\" font-size=\"10\">\n",
               width, height);
    svg += fmt("<rect x=\"%.0f\" y=\"%.0f\" width=\"%.0f\" "
               "height=\"%.0f\" fill=\"none\" "
               "stroke=\"#9ca3af\"/>\n",
               left, top, plotW, plotH);
    // Bandwidth ceiling: the diagonal through (ridge, pipe).
    const double bw = pipe / ridge; // fleet bytes/s x 1 instr/byte
    svg += fmt("<polyline id=\"roof-ceiling\" points=\"%.1f,%.1f "
               "%.1f,%.1f %.1f,%.1f\" fill=\"none\" "
               "stroke=\"#111827\" stroke-width=\"1.5\"/>\n",
               lx(1e-2), ly(1e-2 * bw), lx(ridge), ly(pipe),
               lx(1e2), ly(pipe));
    svg += fmt("<text x=\"%.1f\" y=\"%.1f\">ridge %.2f "
               "instr/byte</text>\n",
               lx(ridge) + 4.0, ly(pipe) - 6.0, ridge);
    svg += fmt("<text x=\"%.0f\" y=\"%.0f\">instructions per MRAM "
               "byte (log)</text>\n",
               left + 110.0, top + plotH + 16.0);
    svg += fmt("<text x=\"8\" y=\"%.0f\" "
               "transform=\"rotate(-90 8 %.0f)\">ops/s "
               "(log)</text>\n",
               top + plotH - 60.0, top + plotH - 60.0);
    for (std::size_t k = 0; k < launches.size(); ++k) {
        const analysis::RooflinePoint &rp = launches[k].roofline;
        if (rp.opIntensity <= 0.0)
            continue;
        svg += fmt(
            "<circle id=\"roof-%zu\" cx=\"%.1f\" cy=\"%.1f\" "
            "r=\"3.5\" fill=\"%s\" fill-opacity=\"0.7\"><title>%s: "
            "%.2f instr/byte, %.3g ops/s (%s-bound)</title>"
            "</circle>\n",
            k, lx(rp.opIntensity), ly(rp.achievedOpsPerSec),
            rp.memoryBound ? "#dc2626" : "#16a34a",
            htmlEscape(launches[k].kernel).c_str(),
            rp.opIntensity, rp.achievedOpsPerSec,
            rp.memoryBound ? "memory" : "compute");
    }
    svg += "</svg>\n";
    return svg;
}

/** Self-contained HTML page: summary <pre> + inline SVG Gantt of the
 * rank tracks, a bounded set of DPU tracks, and the launch spine. */
std::string
htmlReport(const std::string &source, const Analysis &a)
{
    constexpr double width = 1000.0;
    constexpr double rowH = 18.0;
    constexpr double labelW = 90.0;
    constexpr unsigned maxDpuRows = 16;

    const telemetry::Timeline &tl = a.timeline;
    const double t0 = tl.windowStart;
    const double span = tl.window() > 0.0 ? tl.window() : 1.0;
    auto x_of = [&](double t) {
        return labelW + (t - t0) / span * (width - labelW - 10.0);
    };

    struct Row
    {
        std::string label;
        const std::vector<telemetry::TimelineSpan> *spans;
    };
    std::vector<Row> rows;
    for (const auto &[rank, spans] : tl.rankSpans)
        rows.push_back({"rank " + std::to_string(rank), &spans});
    unsigned dpu_rows = 0;
    for (const auto &[dpu, spans] : tl.dpuSpans) {
        if (dpu_rows++ >= maxDpuRows)
            break;
        rows.push_back({"dpu " + std::to_string(dpu), &spans});
    }

    std::string svg;
    const double launch_row_y = 4.0;
    const double tracks_y = launch_row_y + rowH + 6.0;
    const double height =
        tracks_y + static_cast<double>(rows.size()) * rowH + 8.0;
    svg += fmt("<svg viewBox=\"0 0 %.0f %.0f\" "
               "xmlns=\"http://www.w3.org/2000/svg\" "
               "font-family=\"monospace\" font-size=\"11\">\n",
               width, height);

    // Launch spine: one bar per launch, phase-colored segments.
    // Element ids are stable across runs (index-derived, emitted in
    // deterministic map order) so the report diffs byte-for-byte.
    svg += fmt("<text x=\"4\" y=\"%.1f\">launches</text>\n",
               launch_row_y + rowH - 5.0);
    const char *spine_colors[4] = {"#3b82f6", "#16a34a", "#8b5cf6",
                                   "#f59e0b"};
    for (std::size_t k = 0; k < tl.launches.size(); ++k) {
        const telemetry::LaunchWindow &l = tl.launches[k];
        double t = l.start;
        const double parts[4] = {l.load, l.kernel_time, l.retrieve,
                                 l.merge};
        for (int p = 0; p < 4; ++p) {
            if (parts[p] <= 0.0)
                continue;
            svg += fmt("<rect id=\"spine-%zu-%s\" x=\"%.2f\" "
                       "y=\"%.1f\" width=\"%.2f\" "
                       "height=\"%.0f\" fill=\"%s\"><title>%s "
                       "%s %.3f ms</title></rect>\n",
                       k,
                       analysis::pathPhaseName(
                           static_cast<analysis::PathPhase>(p)),
                       x_of(t), launch_row_y,
                       std::max(0.5, x_of(t + parts[p]) - x_of(t)),
                       rowH - 4.0, spine_colors[p],
                       htmlEscape(l.kernel).c_str(),
                       analysis::pathPhaseName(
                           static_cast<analysis::PathPhase>(p)),
                       toMillis(parts[p]));
            t += parts[p];
        }
    }

    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double y =
            tracks_y + static_cast<double>(r) * rowH;
        svg += fmt("<text x=\"4\" y=\"%.1f\">%s</text>\n",
                   y + rowH - 5.0,
                   htmlEscape(rows[r].label).c_str());
        for (std::size_t i = 0; i < rows[r].spans->size(); ++i) {
            const telemetry::TimelineSpan &s = (*rows[r].spans)[i];
            svg += fmt(
                "<rect id=\"track-%zu-%zu\" x=\"%.2f\" y=\"%.1f\" "
                "width=\"%.2f\" "
                "height=\"%.0f\" fill=\"%s\"><title>%s %.3f "
                "ms</title></rect>\n",
                r, i, x_of(s.start), y,
                std::max(0.5, x_of(s.end()) - x_of(s.start)),
                rowH - 4.0, phaseColor(s.name),
                htmlEscape(s.name).c_str(), toMillis(s.duration));
        }
    }
    svg += "</svg>\n";

    std::string html;
    html += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            "<title>alphapim-explain</title>\n<style>\n"
            "body { font-family: sans-serif; margin: 2em; }\n"
            "pre { background: #f3f4f6; padding: 1em; }\n"
            ".legend span { padding: 0 0.6em; }\n"
            "</style></head><body>\n";
    html += "<h1>Execution timeline: " + htmlEscape(source) +
            "</h1>\n";
    html += "<div class=\"legend\">"
            "<span style=\"background:#3b82f6;color:#fff\">load / "
            "scatter</span>"
            "<span style=\"background:#16a34a;color:#fff\">kernel"
            "</span>"
            "<span style=\"background:#8b5cf6;color:#fff\">retrieve "
            "/ gather</span>"
            "<span style=\"background:#f59e0b;color:#fff\">merge"
            "</span></div>\n";
    html += svg;
    const std::string host_lane = hostLaneSvg(a.host);
    if (!host_lane.empty()) {
        html += "<h2>Host phases (simulator wall time)</h2>\n"
                "<div class=\"legend\">";
        for (unsigned p = 0; p < telemetry::kHostPhaseCount; ++p) {
            html += fmt("<span style=\"background:%s;color:#fff\">"
                        "%s</span>",
                        kHostPhaseColors[p],
                        telemetry::hostPhaseName(
                            static_cast<telemetry::HostPhase>(p)));
        }
        html += "</div>\n";
        html += host_lane;
    }
    const std::string heat = heatmapSvg(tl);
    if (!heat.empty()) {
        html += "<h2>Per-DPU load heatmap</h2>\n"
                "<div class=\"legend\">"
                "<span style=\"background:#16a34a;color:#fff\">"
                "issued</span>"
                "<span style=\"background:#dc2626;color:#fff\">"
                "memory stall</span>"
                "<span style=\"background:#f59e0b;color:#fff\">"
                "revolver stall</span>"
                "<span style=\"background:#6366f1;color:#fff\">"
                "rf-hazard stall</span>"
                "<span style=\"background:#8b5cf6;color:#fff\">"
                "sync stall</span></div>\n";
        html += heat;
    }
    const std::string roof = rooflineSvg(a.imbalance);
    if (!roof.empty()) {
        html += "<h2>Modeled roofline</h2>\n";
        html += roof;
        html += "<p>Ceilings assume the default machine config; "
                "the trace does not record clock or DMA width."
                "</p>\n";
    }
    html += "<h2>Report</h2>\n<pre>" +
            htmlEscape(textReport(source, a)) + "</pre>\n";
    if (!a.imbalance.empty()) {
        html += "<h2>Imbalance</h2>\n<pre>" +
                htmlEscape(imbalanceReport(a)) + "</pre>\n";
    }
    if (a.hostEvents > 0) {
        html += "<h2>Host profile</h2>\n<pre>" +
                htmlEscape(hostReport(a.host, a.hostEvents)) +
                "</pre>\n";
    }
    html += "</body></html>\n";
    return html;
}

int
runTraceMode(const ExplainOptions &opt)
{
    LoadedTrace lt;
    std::string error;
    if (!loadTraceSpans(opt.trace, lt, &error)) {
        std::fprintf(stderr, "alphapim-explain: %s\n",
                     error.c_str());
        return 2;
    }
    const Analysis a = analyze(std::move(lt));
    for (const std::string &w : a.warnings)
        std::fprintf(stderr, "alphapim-explain: %s\n", w.c_str());
    if (a.timeline.launches.empty()) {
        std::fprintf(stderr,
                     "alphapim-explain: no launches found in '%s' "
                     "-- was the trace recorded with this tool "
                     "chain?\n",
                     opt.trace.c_str());
        return 1;
    }
    std::fputs(textReport(opt.trace, a).c_str(), stdout);
    if (opt.imbalance)
        std::fputs(imbalanceReport(a).c_str(), stdout);
    if (opt.host)
        std::fputs(hostReport(a.host, a.hostEvents).c_str(), stdout);
    if (!opt.html.empty()) {
        std::ofstream out(opt.html);
        if (!out) {
            std::fprintf(stderr,
                         "alphapim-explain: cannot create '%s'\n",
                         opt.html.c_str());
            return 2;
        }
        out << htmlReport(opt.trace, a);
        std::printf("wrote HTML report to %s\n", opt.html.c_str());
    }
    return 0;
}

int
runRecordsMode(const ExplainOptions &opt)
{
    perf::RecordSet set;
    std::string error;
    if (!perf::loadRecordSet(opt.records, set, &error)) {
        std::fprintf(stderr, "alphapim-explain: %s\n",
                     error.c_str());
        return 2;
    }
    std::printf("alphapim-explain: %s -- %zu records\n",
                opt.records.c_str(), set.records.size());
    std::size_t with_timeline = 0;
    std::size_t with_imbalance = 0;
    std::size_t with_host = 0;
    for (const perf::RunRecord &r : set.records) {
        if (opt.host && r.host) {
            ++with_host;
            const telemetry::HostProfile &h = *r.host;
            const auto phase_name = [](unsigned p) {
                return telemetry::hostPhaseName(
                    static_cast<telemetry::HostPhase>(p));
            };
            unsigned dominant = 0;
            for (unsigned p = 1; p < telemetry::kHostPhaseCount; ++p)
                if (h.phaseSeconds[p] > h.phaseSeconds[dominant])
                    dominant = p;
            std::printf(
                "  host %s: %.3g s host wall, slowdown %.1fx; "
                "dominant phase %s (%.0f%% of wall)\n",
                r.key.str().c_str(), h.totalSeconds,
                h.slowdownFactor, phase_name(dominant),
                h.totalSeconds > 0.0
                    ? h.phaseSeconds[dominant] / h.totalSeconds * 100.0
                    : 0.0);
            std::string phases = "    phases:";
            for (unsigned p = 0; p < telemetry::kHostPhaseCount; ++p)
                phases += fmt(" %s %.3g s", phase_name(p),
                              h.phaseSeconds[p]);
            std::printf("%s\n", phases.c_str());
            std::printf(
                "    throughput: %.3g replayed slots/s (%llu "
                "slots), %.3g trace records/s (%llu records)\n",
                h.replaySlotsPerSec,
                static_cast<unsigned long long>(h.replaySlots),
                h.traceRecordsPerSec,
                static_cast<unsigned long long>(h.traceRecords));
            std::printf(
                "    memory: peak RSS %.1f MB, tasklet-trace high "
                "water %.2f MB, tracer %.2f MB, metrics %.2f MB\n",
                static_cast<double>(h.peakRssBytes) / 1e6,
                static_cast<double>(h.taskletTraceBytesPeak) / 1e6,
                static_cast<double>(h.tracerBytes) / 1e6,
                static_cast<double>(h.metricsBytes) / 1e6);
        }
        if (r.timeline) {
            ++with_timeline;
            const perf::TimelineSummary &t = *r.timeline;
            std::printf(
                "  %s: window %.3f ms, %llu launches, overlap "
                "%.2f, rank occupancy mean %.1f%%, transfers "
                "%.0f%% of the critical path; what-if rank overlap "
                "%.2fx, double buffer %.2fx, combined %.2fx\n",
                r.key.str().c_str(), toMillis(t.windowSeconds),
                static_cast<unsigned long long>(t.launches),
                t.overlapFraction, t.rankOccupancyMean * 100.0,
                t.transferCriticalFraction * 100.0,
                t.whatifRankOverlapSpeedup,
                t.whatifDoubleBufferSpeedup,
                t.whatifCombinedSpeedup);
        }
        if (!opt.imbalance || !r.imbalance)
            continue;
        ++with_imbalance;
        const analysis::RunImbalance &m = *r.imbalance;
        std::printf(
            "  imbalance %s: %llu launches, straggler factor "
            "%.2fx, cycles gini %.2f (cov %.2f, p99/mean %.2fx), "
            "nnz gini %.2f\n",
            r.key.str().c_str(),
            static_cast<unsigned long long>(m.launches),
            m.stragglerFactor, m.cyclesGini, m.cyclesCov,
            m.cyclesP99OverMean, m.nnzGini);
        std::string straggler =
            "    straggler: " + analysis::describeStraggler(m);
        if (!m.stragglerKernel.empty())
            straggler += " (" + m.stragglerKernel + ")";
        std::printf("%s\n", straggler.c_str());
        std::printf(
            "    rebalance bound: leveled kernel time %.3g s vs "
            "%.3g s actual (%.2fx available)\n",
            m.leveledKernelSeconds, m.kernelSeconds,
            m.leveledKernelSeconds > 0.0
                ? m.kernelSeconds / m.leveledKernelSeconds
                : 1.0);
        std::printf(
            "    roofline: %.2f instr/byte (ridge %.2f), %.3g "
            "ops/s achieved vs %.3g pipeline ceiling; "
            "memory-bound %.0f%% of launches\n",
            m.roofline.opIntensity, m.roofline.ridgeIntensity,
            m.roofline.achievedOpsPerSec,
            m.roofline.pipelineCeilingOpsPerSec,
            m.roofline.memoryBoundFraction * 100.0);
    }
    if (opt.imbalance && with_imbalance == 0) {
        std::fprintf(stderr,
                     "alphapim-explain: no record carries an "
                     "imbalance block (records predate schema "
                     "alpha-pim-run-v4?)\n");
        return 1;
    }
    if (opt.host && with_host == 0) {
        std::fprintf(stderr,
                     "alphapim-explain: no record carries a host "
                     "block (records predate schema "
                     "alpha-pim-run-v5, or were produced with "
                     "--host-prof=off?)\n");
        return 1;
    }
    if (with_timeline == 0 && with_imbalance == 0 &&
        with_host == 0) {
        std::fprintf(stderr,
                     "alphapim-explain: no record carries a "
                     "timeline block (records predate schema "
                     "alpha-pim-run-v3?)\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const ExplainOptions opt = parseArgs(argc, argv);
    return opt.trace.empty() ? runRecordsMode(opt)
                             : runTraceMode(opt);
}
