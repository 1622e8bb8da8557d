/**
 * @file
 * Host-performance observatory: a low-overhead wall-clock phase
 * profiler for the simulator itself. Every other telemetry layer in
 * this tree measures *model* time (simulated seconds); this one
 * measures where the simulator's own host seconds and bytes go --
 * partition build, trace record, revolver replay, the serial profile
 * fold, transfer modeling, host merge, analysis passes -- so the
 * ROADMAP item 3 optimizations (parallel replay, TaskletTrace
 * arenas) can be justified and regression-gated with data.
 *
 * Design constraints mirror the tracer's: recording entry points
 * check one relaxed atomic and return when disabled, so tier-1 bench
 * timing is unaffected unless profiling is requested. Aggregation is
 * thread-aware: per-phase totals are relaxed atomics (replay runs on
 * the system's pool workers), and a thread-local timer stack attributes
 * *self* time -- a nested phase's wall time is subtracted from its
 * parent, so phase seconds sum to profiled wall seconds instead of
 * double-counting.
 */

#ifndef ALPHA_PIM_TELEMETRY_HOST_PROF_HH
#define ALPHA_PIM_TELEMETRY_HOST_PROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>

#include "telemetry/json.hh"

namespace alphapim::telemetry
{

/** The simulator's host cost centers. */
enum class HostPhase : unsigned
{
    PartitionBuild, ///< kernel construction: row/col/grid blocks
    TraceRecord,    ///< functional execution + trace generation
    Replay,         ///< revolver-scheduler replay (per DPU)
    ProfileFold,    ///< serial per-DPU profile fold in the launcher
    TransferModel,  ///< scatter/gather/broadcast cost modeling
    HostMerge,      ///< host-side merge of per-DPU results
    Analysis,       ///< checker / capture / imbalance / timeline
};

/** Number of HostPhase values. */
inline constexpr unsigned kHostPhaseCount = 7;

/** Stable lowercase phase name ("partition_build", "replay", ...). */
const char *hostPhaseName(HostPhase phase);

/**
 * Point-in-time aggregate of the profiler, plus derived throughput
 * and memory numbers. Produced by HostProfiler::snapshot().
 */
struct HostProfile
{
    /** Per-phase self wall seconds, indexed by HostPhase. */
    double phaseSeconds[kHostPhaseCount] = {};

    /** Per-phase timer invocations, indexed by HostPhase. */
    std::uint64_t phaseCalls[kHostPhaseCount] = {};

    /** Sum of the per-phase self seconds. */
    double totalSeconds = 0.0;

    /** Replayed instruction slots (issue-slot cycles fed through the
     * revolver scheduler). */
    std::uint64_t replaySlots = 0;

    /** TaskletTrace records generated (traced instruction events). */
    std::uint64_t traceRecords = 0;

    /** High-water mark of live TaskletTrace bytes across launches. */
    std::uint64_t taskletTraceBytesPeak = 0;

    /** Approximate tracer event-buffer bytes at snapshot time. */
    std::uint64_t tracerBytes = 0;

    /** Approximate metrics-registry bytes at snapshot time. */
    std::uint64_t metricsBytes = 0;

    /** Peak resident set (VmHWM), bytes; 0 when unavailable. */
    std::uint64_t peakRssBytes = 0;

    /** Current resident set (VmRSS), bytes; 0 when unavailable. */
    std::uint64_t currentRssBytes = 0;

    /** Replayed slots per second of replay-phase wall time. */
    double replaySlotsPerSec = 0.0;

    /** Trace records per second of trace-record-phase wall time. */
    double traceRecordsPerSec = 0.0;

    /** Model seconds covered by this profile (caller-provided). */
    double modelSeconds = 0.0;

    /** Simulation slowdown factor: profiled host seconds per modeled
     * second (totalSeconds / modelSeconds; 0 when model time is 0). */
    double slowdownFactor = 0.0;

    /** Derive the two throughputs and the slowdown factor from the
     * totals above. */
    void deriveRates();

    /** Fold in the profile of a later, disjoint window: seconds,
     * calls and counts add, byte figures take the maximum, and the
     * rates are derived again from the sums. */
    void add(const HostProfile &later);
};

/**
 * The host block's field list: the keys of a run record's "host"
 * block and of the "host_profile" trace event. Every field is
 * wall-clock derived, so the differ compares the seconds, the
 * throughputs and the slowdown factor as noisy samples and never
 * exact-compares any of them.
 */
extern const FieldList<HostProfile> kHostFields;

/**
 * Process-wide host-phase aggregator. All mutators are no-ops while
 * disabled; the enabled check is one relaxed atomic load.
 */
class HostProfiler
{
  public:
    /** True when profiling is active. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Enable or disable profiling. */
    void setEnabled(bool on);

    /** Zero every aggregate (phase totals, throughput counters,
     * byte high-water). The enabled flag is unchanged. */
    void reset();

    /** Fold `ns` self-nanoseconds into a phase (thread-safe). */
    void addPhaseNanos(HostPhase phase, std::uint64_t ns);

    /** Count replayed instruction slots (thread-safe). */
    void addReplaySlots(std::uint64_t slots);

    /** Count generated trace records (thread-safe). */
    void addTraceRecords(std::uint64_t records);

    /** Raise the live-TaskletTrace byte high-water mark if `bytes`
     * exceeds it (thread-safe). */
    void noteTaskletTraceBytes(std::uint64_t bytes);

    /** Self wall seconds folded into `phase` so far. */
    double phaseSeconds(HostPhase phase) const;

    /** Timer invocations folded into `phase` so far. */
    std::uint64_t phaseCalls(HostPhase phase) const;

    /**
     * Aggregate everything into a HostProfile, sampling RSS from
     * /proc/self/status and buffer sizes from the global tracer and
     * metrics registry.
     *
     * @param modelSeconds model time covered, for the slowdown
     *                     factor (pass 0 when unknown)
     */
    HostProfile snapshot(double modelSeconds) const;

    /** Current resident set size in bytes (Linux /proc/self/status
     * VmRSS; 0 elsewhere or on failure). */
    static std::uint64_t currentRssBytes();

    /** Peak resident set size in bytes (VmHWM; 0 when unknown). */
    static std::uint64_t peakRssBytes();

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> phaseNanos_[kHostPhaseCount] = {};
    std::atomic<std::uint64_t> phaseCalls_[kHostPhaseCount] = {};
    std::atomic<std::uint64_t> replaySlots_{0};
    std::atomic<std::uint64_t> traceRecords_{0};
    std::atomic<std::uint64_t> taskletTraceBytesPeak_{0};
};

/** The process-wide host profiler. */
HostProfiler &hostProfiler();

/**
 * RAII scoped timer on steady_clock. Nested timers on the same
 * thread attribute exclusive (self) time: a child's full wall time
 * is subtracted from its parent before the parent folds into its
 * phase, so the per-phase totals partition the instrumented wall
 * time. Construction is a single atomic load when profiling is off.
 */
class HostPhaseTimer
{
  public:
    explicit HostPhaseTimer(HostPhase phase);
    ~HostPhaseTimer();

    HostPhaseTimer(const HostPhaseTimer &) = delete;
    HostPhaseTimer &operator=(const HostPhaseTimer &) = delete;

  private:
    bool active_;
    HostPhase phase_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t childNanos_ = 0;
    HostPhaseTimer *parent_ = nullptr;
};

/**
 * Publish the profile as `host.*` metrics (scalars + counters) into
 * the global registry and, when the tracer is recording, emit a
 * "host_profile" instant event whose args are kHostFields, so
 * trace-mode consumers (alphapim_explain --host) read them back
 * through the same list.
 * No-op when the profiler is disabled.
 *
 * @param modelSeconds model time covered (slowdown denominator)
 * @return the snapshot that was published
 */
HostProfile publishHostProfile(double modelSeconds);

} // namespace alphapim::telemetry

#endif // ALPHA_PIM_TELEMETRY_HOST_PROF_HH
