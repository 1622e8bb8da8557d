#include "upmem_system.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "telemetry/host_prof.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace alphapim::upmem
{

namespace
{

/** Metric names per stall reason (dots and underscores only). */
const char *
stallMetricName(StallReason reason)
{
    switch (reason) {
      case StallReason::Memory:
        return "dpu.stall.memory_cycles";
      case StallReason::Revolver:
        return "dpu.stall.revolver_cycles";
      case StallReason::RfHazard:
        return "dpu.stall.rf_hazard_cycles";
      case StallReason::Sync:
        return "dpu.stall.sync_cycles";
      default:
        return "dpu.stall.unknown_cycles";
    }
}

/** Fold one launch's aggregate profile into the metrics registry. */
void
recordLaunchMetrics(const LaunchProfile &launch,
                    const std::vector<DpuProfile> &per_dpu)
{
    auto &m = telemetry::metrics();
    m.addCounter("dpu.launches");
    m.addCounter("dpu.total_cycles", launch.aggregate.totalCycles);
    m.addCounter("dpu.issued_cycles", launch.aggregate.issuedCycles);
    for (unsigned r = 0;
         r < static_cast<unsigned>(StallReason::NumReasons); ++r) {
        const auto reason = static_cast<StallReason>(r);
        m.addCounter(stallMetricName(reason),
                     launch.aggregate.stallCycles[r]);
    }
    for (unsigned c = 0; c < numOpCategories; ++c) {
        const auto cat = static_cast<OpCategory>(c);
        m.addCounter(std::string("dpu.instr.") + opCategoryName(cat),
                     launch.aggregate.instructionsInCategory(cat));
    }
    // Per-DPU cycle distribution: the load-imbalance signal. Idle
    // DPUs contribute zero samples, which is exactly the imbalance.
    for (const DpuProfile &p : per_dpu)
        m.addSample("dpu.cycles_per_launch",
                    static_cast<double>(p.totalCycles));
    m.addSample("dpu.active_per_launch", launch.activeDpus);
}

/** Draw one launch's per-DPU kernel spans on the DPU tracks and
 * advance the trace clock by its kernel time. */
void
traceLaunch(const SystemConfig &cfg,
            const std::vector<DpuProfile> &per_dpu, Seconds kernel)
{
    auto &t = telemetry::tracer();
    const auto num_dpus = static_cast<unsigned>(per_dpu.size());
    const Seconds start = t.now() + cfg.kernelLaunchOverhead;
    const unsigned shown = std::min(num_dpus, t.dpuTrackLimit());
    for (unsigned d = 0; d < shown; ++d) {
        const DpuProfile &p = per_dpu[d];
        if (p.totalCycles == 0)
            continue;
        t.nameTrack(telemetry::dpuTrack(d), "dpu " + std::to_string(d));
        // Stall composition and DMA traffic ride on the span so
        // alphapim_explain can draw the per-DPU heatmap lane and
        // roofline chart from the trace alone.
        t.completeEvent(
            telemetry::dpuTrack(d), "kernel", "dpu", start,
            static_cast<double>(p.totalCycles) / cfg.dpu.clockHz,
            {telemetry::arg("cycles", p.totalCycles),
             telemetry::arg("dpu", static_cast<std::uint64_t>(d)),
             telemetry::arg("rank",
                            static_cast<std::uint64_t>(
                                d / cfg.transfer.dpusPerRank)),
             telemetry::arg("issued", p.issuedCycles),
             telemetry::arg("stall_memory",
                            p.stallCycles[static_cast<std::size_t>(
                                StallReason::Memory)]),
             telemetry::arg("stall_revolver",
                            p.stallCycles[static_cast<std::size_t>(
                                StallReason::Revolver)]),
             telemetry::arg("stall_rf_hazard",
                            p.stallCycles[static_cast<std::size_t>(
                                StallReason::RfHazard)]),
             telemetry::arg("stall_sync",
                            p.stallCycles[static_cast<std::size_t>(
                                StallReason::Sync)]),
             telemetry::arg("instr", p.totalInstructions()),
             telemetry::arg("mram_bytes",
                            p.mramReadBytes + p.mramWriteBytes)});
    }
    if (shown < num_dpus) {
        debugLog("telemetry",
                 "trace shows %u of %u DPU tracks (raise the "
                 "dpu-track limit to see more)",
                 shown, num_dpus);
    }
    t.advance(kernel);
}

/**
 * The tasklet traces one DPU records into. Each host thread keeps one
 * set and lends it to every DPU it simulates, across launches, so
 * clearing keeps every tasklet's capacity and records stop regrowing
 * from empty on every DPU. A launch nested in `generate` runs its
 * DPUs on the same thread while the outer DPU's set is still being
 * filled; they record into a set of their own.
 */
class DpuTraceSet
{
  public:
    /** Borrow this thread's set, or make one when it is lent out;
     * either way sized to `tasklets` and cleared. */
    explicit DpuTraceSet(unsigned tasklets)
        : borrowed_(!lent), traces_(borrowed_ ? kept : own_)
    {
        lent = true;
        traces_.resize(tasklets);
        for (TaskletTrace &trace : traces_)
            trace.clear();
    }

    ~DpuTraceSet()
    {
        if (borrowed_)
            lent = false;
    }

    DpuTraceSet(const DpuTraceSet &) = delete;
    DpuTraceSet &operator=(const DpuTraceSet &) = delete;

    std::vector<TaskletTrace> &traces() { return traces_; }

  private:
    static thread_local std::vector<TaskletTrace> kept;
    static thread_local bool lent;

    const bool borrowed_;
    std::vector<TaskletTrace> own_;
    std::vector<TaskletTrace> &traces_;
};

thread_local std::vector<TaskletTrace> DpuTraceSet::kept;
thread_local bool DpuTraceSet::lent = false;

} // namespace

UpmemSystem::UpmemSystem(SystemConfig cfg, LaunchObservers observers)
    : cfg_(cfg), transfer_(cfg_.transfer), host_(cfg_.host),
      observers_(std::move(observers)),
      workers_(std::make_shared<WorkerPool>())
{
    ALPHA_ASSERT(cfg_.numDpus > 0, "system needs at least one DPU");
    ALPHA_ASSERT(cfg_.dpu.tasklets > 0 &&
                     cfg_.dpu.tasklets <= cfg_.dpu.maxTasklets,
                 "tasklet count outside hardware limits");
    ALPHA_ASSERT(cfg_.dpu.maxTasklets <= taskletCeiling,
                 "maxTasklets above the scheduler's tasklet ceiling");
    for (const auto &o : observers_)
        requirements_ |= o->requirements();
}

LaunchProfile
UpmemSystem::launchKernel(
    unsigned num_dpus,
    const std::function<void(unsigned, std::vector<TaskletTrace> &)>
        &generate,
    const LaunchInfo &info, const KnownProfiles &known,
    std::vector<DpuProfile> *profiles) const
{
    ALPHA_ASSERT(num_dpus > 0 && num_dpus <= cfg_.numDpus,
                 "launch requests more DPUs than allocated");
    ALPHA_ASSERT(known.profiles.empty() ||
                     known.profiles.size() == num_dpus,
                 "known profiles must cover every DPU of the launch");
    ALPHA_ASSERT(known.weights.empty() ||
                     known.weights.size() == num_dpus,
                 "weights must cover every DPU of the launch");

    // Replay is the dominant cost of a launch; an observer that only
    // harvests traces (the model checker's capture) turns it off.
    const bool replaying =
        !(requirements_ & LaunchObserver::NoReplay);
    for (const auto &o : observers_)
        o->onLaunchBegin(info, num_dpus);

    const RevolverScheduler scheduler(cfg_.dpu);
    // Each worker writes only its own slot; the profiles are folded
    // serially in DPU order afterwards so floating-point accumulation
    // (activeThreadCycles) is deterministic regardless of thread
    // count and scheduling -- run records are exact-compared by the
    // bench differ.
    std::vector<DpuProfile> per_dpu_profiles(num_dpus);
    const bool host_prof = telemetry::hostProfiler().enabled();

    // A DPU whose profile is known takes it here, unless an observer
    // wants every DPU's traces. It reaches the pool only to run its
    // functional body, if it has one. The pool hands items out in
    // order, so sorting by weight starts the heaviest first (Graham's
    // LPT rule) and no long replay is left to start last.
    std::vector<unsigned> items;
    const bool skipping =
        !known.profiles.empty() &&
        !(requirements_ & LaunchObserver::TracesOfEveryDpu);
    if (skipping) {
        for (unsigned d = 0; d < num_dpus; ++d) {
            const DpuProfile *profile = known.profiles[d];
            if (!profile || known.compute)
                items.push_back(d);
            if (profile && replaying)
                per_dpu_profiles[d] = *profile;
        }
        if (!known.weights.empty()) {
            std::stable_sort(items.begin(), items.end(),
                             [&](unsigned a, unsigned b) {
                                 return known.weights[a] >
                                        known.weights[b];
                             });
        }
    }

    const std::size_t jobs = skipping ? items.size() : num_dpus;
    workers_->run(jobs, [&](std::size_t item) {
        const unsigned dpu =
            skipping ? items[item] : static_cast<unsigned>(item);
        if (skipping && known.profiles[dpu]) {
            // The same generate step, without the appends.
            telemetry::HostPhaseTimer timer(
                telemetry::HostPhase::TraceRecord);
            known.compute(dpu);
            return;
        }
        DpuTraceSet set(cfg_.dpu.tasklets);
        std::vector<TaskletTrace> &traces = set.traces();
        {
            telemetry::HostPhaseTimer timer(
                telemetry::HostPhase::TraceRecord);
            generate(dpu, traces);
        }
        if (host_prof) {
            std::uint64_t records = 0, bytes = 0;
            for (const TaskletTrace &trace : traces) {
                records += trace.records().size();
                bytes += trace.records().capacity() *
                         sizeof(TraceRecord);
            }
            telemetry::hostProfiler().addTraceRecords(records);
            telemetry::hostProfiler().noteTaskletTraceBytes(bytes);
        }
        if (!observers_.empty()) {
            telemetry::HostPhaseTimer timer(
                telemetry::HostPhase::Analysis);
            for (const auto &o : observers_)
                o->onDpuTraces(dpu, traces, cfg_.dpu);
        }
        if (replaying) {
            telemetry::HostPhaseTimer timer(
                telemetry::HostPhase::Replay);
            per_dpu_profiles[dpu] = scheduler.run(traces);
        }
        if (host_prof) {
            telemetry::hostProfiler().addReplaySlots(
                per_dpu_profiles[dpu].totalCycles);
        }
    });
    LaunchProfile launch;
    {
        telemetry::HostPhaseTimer timer(
            telemetry::HostPhase::ProfileFold);
        for (const DpuProfile &profile : per_dpu_profiles)
            launch.add(profile);
    }

    telemetry::HostPhaseTimer analysis_timer(
        telemetry::HostPhase::Analysis);
    for (const auto &o : observers_)
        o->onLaunchEnd(info, per_dpu_profiles, cfg_.dpu);
    if (telemetry::metrics().enabled())
        recordLaunchMetrics(launch, per_dpu_profiles);
    if (telemetry::tracer().enabled())
        traceLaunch(cfg_, per_dpu_profiles, kernelSeconds(launch));
    if (profiles)
        *profiles = std::move(per_dpu_profiles);
    return launch;
}

} // namespace alphapim::upmem
