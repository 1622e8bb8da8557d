#include "record.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <tuple>

#include "analysis/critical_path.hh"
#include "core/result_json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace alphapim::perf
{

bool
RunKey::operator<(const RunKey &o) const
{
    return std::tie(bench, dataset, variant, dpus, seed) <
           std::tie(o.bench, o.dataset, o.variant, o.dpus, o.seed);
}

bool
RunKey::operator==(const RunKey &o) const
{
    return std::tie(bench, dataset, variant, dpus, seed) ==
           std::tie(o.bench, o.dataset, o.variant, o.dpus, o.seed);
}

std::string
RunKey::str() const
{
    return bench + "/" + dataset + "/" + variant + "@" +
           std::to_string(dpus) + "dpus";
}

namespace
{

using telemetry::Better;
using telemetry::field;
using telemetry::FieldPtr;
using telemetry::JsonField;
using enum telemetry::Compare;

using X = XferCounts;
constexpr JsonField<XferCounts> kXfer[] = {
    field<&X::scatters>("scatters"),
    field<&X::scatterBytes>("scatter_bytes", Exact),
    field<&X::gathers>("gathers"),
    field<&X::gatherBytes>("gather_bytes", Exact),
    field<&X::broadcasts>("broadcasts"),
    field<&X::broadcastBytes>("broadcast_bytes", Exact),
};

using T = TimelineSummary;
constexpr JsonField<TimelineSummary> kTimeline[] = {
    field<&T::windowSeconds>("window_seconds"),
    field<&T::launches>("launches"),
    field<&T::ranks>("ranks"),
    field<&T::overlapFraction>("overlap_fraction", Exact),
    field<&T::rankOccupancyMean>("rank_occupancy_mean", Exact),
    field<&T::rankOccupancyMin>("rank_occupancy_min"),
    field<&T::dpuOccupancyMean>("dpu_occupancy_mean"),
    field<&T::idleFraction>("idle_fraction", Exact),
    field<&T::transferCriticalFraction>("transfer_critical_fraction",
                                        Exact),
    field<&T::whatifRankOverlapSpeedup>("whatif_rank_overlap_speedup"),
    field<&T::whatifDoubleBufferSpeedup>(
        "whatif_double_buffer_speedup"),
    field<&T::whatifCombinedSpeedup>("whatif_combined_speedup"),
};

/** An imbalance entry that sits in the nested "roofline" object. */
template <auto Member>
constexpr JsonField<analysis::RunImbalance>
roofline(const char *key, telemetry::Compare compare = None)
{
    return {key,
            [](analysis::RunImbalance &s) -> FieldPtr {
                return &(s.roofline.*Member);
            },
            compare, Better::Lower, "roofline"};
}

using I = analysis::RunImbalance;
using R = analysis::RunRoofline;
constexpr JsonField<analysis::RunImbalance> kImbalance[] = {
    field<&I::launches>("launches"),
    field<&I::stragglerFactor>("straggler_factor", Exact),
    field<&I::cyclesGini>("cycles_gini", Exact),
    field<&I::cyclesCov>("cycles_cov"),
    field<&I::cyclesP99OverMean>("cycles_p99_over_mean"),
    field<&I::nnzGini>("nnz_gini"),
    field<&I::nnzMaxOverMean>("nnz_max_over_mean", Exact),
    field<&I::stragglerKernel>("straggler_kernel"),
    field<&I::stragglerDpu>("straggler_dpu"),
    field<&I::stragglerCyclesOverMean>("straggler_cycles_over_mean"),
    field<&I::stragglerStall>("straggler_stall"),
    field<&I::stragglerStallFraction>("straggler_stall_fraction"),
    field<&I::stragglerNnzOverMean>("straggler_nnz_over_mean"),
    field<&I::kernelSeconds>("kernel_seconds"),
    field<&I::leveledKernelSeconds>("leveled_kernel_seconds"),
    roofline<&R::opIntensity>("op_intensity", Exact),
    roofline<&R::achievedOpsPerSec>("achieved_ops_per_sec"),
    roofline<&R::pipelineCeilingOpsPerSec>(
        "pipeline_ceiling_ops_per_sec"),
    roofline<&R::ridgeIntensity>("ridge_intensity"),
    roofline<&R::memoryBoundFraction>("memory_bound_fraction"),
};

using S = ServeSummary;
constexpr JsonField<ServeSummary> kServe[] = {
    field<&S::submitted>("submitted", Exact),
    field<&S::admitted>("admitted", Exact),
    field<&S::rejected>("rejected", Exact),
    field<&S::completed>("completed", Exact),
    field<&S::batches>("batches", Exact),
    field<&S::meanBatchSize>("mean_batch_size", Exact),
    field<&S::maxBatchSize>("max_batch_size"),
    field<&S::maxQueueDepth>("max_queue_depth"),
    field<&S::latencyP50>("latency_p50", Exact),
    field<&S::latencyP95>("latency_p95", Exact),
    field<&S::latencyP99>("latency_p99", Exact),
    field<&S::latencyP999>("latency_p999", Exact),
    field<&S::latencyMean>("latency_mean", Exact),
    field<&S::makespanSeconds>("makespan_seconds", Exact),
    field<&S::queriesPerSec>("queries_per_sec", Exact, Better::Higher),
};

} // namespace

const FieldList<XferCounts> kXferFields = kXfer;
const FieldList<TimelineSummary> kTimelineFields = kTimeline;
const FieldList<analysis::RunImbalance> kImbalanceFields = kImbalance;
const FieldList<ServeSummary> kServeFields = kServe;

std::string
encodeRunRecord(const RunManifest &manifest, const RunKey &key,
                std::uint64_t iterations,
                const core::PhaseTimes &times,
                const upmem::LaunchProfile *profile,
                double wallSeconds, const RecordBlocks &blocks)
{
    telemetry::JsonWriter w;
    w.beginObject();
    writeManifestFields(w, manifest);
    w.key("bench").value(key.bench);
    w.key("dataset").value(key.dataset);
    w.key("variant").value(key.variant);
    w.key("dpus").value(key.dpus);
    w.key("seed").value(key.seed);
    w.key("iterations").value(iterations);
    if (wallSeconds >= 0.0)
        w.key("wall_seconds").value(wallSeconds);
    w.key("times");
    core::writePhaseTimes(w, times);
    if (profile) {
        w.key("profile");
        core::writeLaunchProfile(w, *profile);
    }
    forEachBlock([&](const char *name, auto member, auto fields) {
        if (const auto &block = blocks.*member) {
            w.key(name);
            telemetry::writeFields(w, *block, fields);
        }
    });
    w.endObject();
    return w.str();
}

namespace
{

/** Read the unsigned field `key` of `obj` into `out`; false (with
 * *error naming prefix + key) when its number does not fit. */
bool
uintField(const telemetry::JsonValue &obj, const std::string &key,
          std::uint64_t &out, std::string *error,
          const char *prefix = "")
{
    if (telemetry::readValue(obj.find(key), &out, key, error))
        return true;
    if (error)
        *error = prefix + *error;
    return false;
}

} // namespace

bool
parseRunRecord(const std::string &line, RunRecord &out,
               std::string *error)
{
    telemetry::JsonValue doc;
    if (!telemetry::JsonValue::parse(line, doc, error))
        return false;
    if (!doc.isObject()) {
        if (error)
            *error = "record is not a JSON object";
        return false;
    }

    out = RunRecord();
    out.manifest = parseManifestFields(doc);

    const auto *bench = doc.find("bench");
    const auto *dataset = doc.find("dataset");
    const auto *variant = doc.find("variant");
    if (!bench || !bench->isString() || !dataset ||
        !dataset->isString() || !variant || !variant->isString()) {
        if (error)
            *error = "record lacks bench/dataset/variant identity";
        return false;
    }
    out.key.bench = bench->asString();
    out.key.dataset = dataset->asString();
    out.key.variant = variant->asString();
    if (!uintField(doc, "dpus", out.key.dpus, error) ||
        !uintField(doc, "seed", out.key.seed, error) ||
        !uintField(doc, "iterations", out.iterations, error))
        return false;
    if (const auto *wall = doc.find("wall_seconds");
        wall && wall->isNumber())
        out.wallSeconds = wall->asNumber();

    if (const auto *times = doc.find("times");
        times && times->isObject()) {
        out.times.load = times->number("load");
        out.times.kernel = times->number("kernel");
        out.times.retrieve = times->number("retrieve");
        out.times.merge = times->number("merge");
    }

    if (const auto *p = doc.find("profile"); p && p->isObject()) {
        out.hasProfile = true;
        if (!uintField(*p, "total_cycles", out.totalCycles, error,
                       "profile.") ||
            !uintField(*p, "issued_cycles", out.issuedCycles, error,
                       "profile.") ||
            !uintField(*p, "max_cycles", out.maxCycles, error,
                       "profile.") ||
            !uintField(*p, "active_dpus", out.activeDpus, error,
                       "profile."))
            return false;
        out.issuedFraction = p->number("issued_fraction");
        out.avgActiveThreads = p->number("avg_active_threads");
        if (const auto *sf = p->find("stall_fractions");
            sf && sf->isObject()) {
            for (const auto &[name, v] : sf->members())
                out.stallFractions[name] = v.asNumber();
        }
        if (const auto *mix = p->find("instr_by_category");
            mix && mix->isObject()) {
            for (const auto &[name, v] : mix->members()) {
                if (!uintField(*mix, name, out.instrByCategory[name],
                               error, "profile.instr_by_category."))
                    return false;
            }
        }
    }

    bool ok = true;
    forEachBlock([&](const char *name, auto member, auto fields) {
        const auto *obj = doc.find(name);
        if (!ok || !obj || !obj->isObject())
            return;
        std::string field_error;
        if (!telemetry::readFields(*obj, (out.*member).emplace(),
                                   fields, &field_error)) {
            ok = false;
            if (error)
                *error = std::string(name) + "." + field_error;
        }
    });
    return ok;
}

namespace
{

constexpr const char *kXferCounters[6] = {
    "xfer.scatters",   "xfer.scatter_bytes",
    "xfer.gathers",    "xfer.gather_bytes",
    "xfer.broadcasts", "xfer.broadcast_bytes",
};

/** Condense a reconstructed timeline (and its computed stats) into
 * the record-level summary: occupancy/overlap plus the critical-path
 * transfer fraction and what-if speedup bounds. */
TimelineSummary
summarizeTimeline(const telemetry::Timeline &timeline,
                  const telemetry::TimelineStats &stats)
{
    TimelineSummary s;
    s.windowSeconds = stats.windowSeconds;
    s.launches = static_cast<std::uint64_t>(stats.launches);
    s.ranks = static_cast<std::uint64_t>(stats.ranks);
    s.rankOccupancyMean = stats.rankOccupancyMean;
    s.rankOccupancyMin = stats.rankOccupancyMin;
    s.dpuOccupancyMean = stats.dpuOccupancyMean;
    s.overlapFraction = stats.overlapFraction;
    s.idleFraction = stats.idleFraction;

    s.transferCriticalFraction =
        analysis::criticalPath(timeline.launches).transferFraction();

    const analysis::WhatIf whatif =
        analysis::estimateOverlap(timeline.launches);
    s.whatifRankOverlapSpeedup = whatif.rankOverlapSpeedup();
    s.whatifDoubleBufferSpeedup = whatif.doubleBufferSpeedup();
    s.whatifCombinedSpeedup = whatif.combinedSpeedup();
    return s;
}

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

RunWindow
beginRunWindow(analysis::ImbalanceObserver *imbalance)
{
    RunWindow w;
    for (std::size_t i = 0; i < 6; ++i)
        w.xferStart[i] =
            telemetry::metrics().counterValue(kXferCounters[i]);
    if (imbalance)
        imbalance->beginRun();
    // Per-run host window: each record's host block covers exactly
    // one measured region.
    telemetry::hostProfiler().reset();
    w.traceStart = telemetry::tracer().totalEventCount();
    w.wallStart = steadySeconds();
    return w;
}

std::string
encodeRunWindow(const RunWindow &window, const RunManifest &manifest,
                const RunKey &key, std::uint64_t iterations,
                const core::PhaseTimes &times,
                const upmem::LaunchProfile *profile,
                const analysis::ImbalanceObserver *imbalance,
                const ServeSummary *serve)
{
    RecordBlocks blocks;
    std::uint64_t delta[6];
    for (std::size_t i = 0; i < 6; ++i)
        delta[i] = telemetry::metrics().counterValue(kXferCounters[i]) -
                   window.xferStart[i];
    blocks.xfer = XferCounts{delta[0], delta[1], delta[2],
                             delta[3], delta[4], delta[5]};

    const std::vector<telemetry::TraceEvent> events =
        telemetry::tracer().eventsSince(window.traceStart);
    if (!events.empty()) {
        const telemetry::Timeline tl = telemetry::buildTimeline(events);
        if (!tl.launches.empty()) {
            const telemetry::TimelineStats stats =
                telemetry::computeStats(tl);
            telemetry::recordTimelineMetrics(stats,
                                             telemetry::metrics());
            blocks.timeline = summarizeTimeline(tl, stats);
        }
    }

    if (imbalance) {
        analysis::RunImbalance run = imbalance->collectRun();
        if (run.launches > 0)
            blocks.imbalance = std::move(run);
    }

    const double wall = steadySeconds() - window.wallStart;
    if (telemetry::hostProfiler().enabled()) {
        // Publishes host.* metrics and the "host_profile" trace
        // event as a side effect, so --metrics-out/--trace-out
        // carry the same observatory data as the record.
        blocks.host = telemetry::publishHostProfile(times.total());
    }
    if (serve)
        blocks.serve = *serve;
    return encodeRunRecord(manifest, key, iterations, times, profile,
                           wall, blocks);
}

bool
loadRecordSet(const std::string &path, RecordSet &out,
              std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    out = RecordSet();
    out.path = path;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        RunRecord rec;
        std::string parse_error;
        if (!parseRunRecord(line, rec, &parse_error)) {
            if (error)
                *error = path + ":" + std::to_string(lineno) + ": " +
                         parse_error;
            return false;
        }
        out.records.push_back(std::move(rec));
    }
    auto unique_of = [&](auto get) {
        std::vector<std::string> seen;
        for (const auto &r : out.records) {
            const std::string v = get(r);
            if (std::find(seen.begin(), seen.end(), v) == seen.end())
                seen.push_back(v);
        }
        return seen;
    };
    out.schemas = unique_of(
        [](const RunRecord &r) { return r.manifest.schema; });
    out.gitShas = unique_of(
        [](const RunRecord &r) { return r.manifest.gitSha; });
    return true;
}

} // namespace alphapim::perf
