/**
 * @file
 * Critical path of a reconstructed launch sequence, plus the what-if
 * overlap estimator that sizes pipelined execution before any engine
 * code changes.
 *
 * The simulator runs every launch as load -> kernel -> retrieve ->
 * merge with strict barriers, and launch k+1 starts when launch k's
 * merge ends. Under that schedule the critical path *is* the chain
 * of launch phases: a per-rank transfer span never outlasts its phase
 * (the phase adds launch latency and per-DPU setup to the bus time),
 * and a per-DPU kernel span never outlasts the kernel phase (which
 * adds the launch overhead to the slowest DPU). So the path is the
 * running sum of the launch windows, and the interesting output is
 * the per-phase attribution and how much of the path the what-if
 * bounds could hide:
 *
 *  - rank overlap:    kernel k runs concurrently with its own
 *                     load + retrieve (rank i's kernel under rank
 *                     i+-1's transfers), merges stay serial:
 *                     T = sum(max(c_k, l_k + r_k) + m_k)
 *  - double buffering: the next iteration's input-vector load runs
 *                     under this iteration's host merge:
 *                     T = l_1 + sum(c_k + r_k)
 *                       + sum_{k<n} max(m_k, l_{k+1}) + m_n
 *  - combined:        full pipelining, throughput-bound on the
 *                     busiest resource:
 *                     T = max(sum c, sum (l + r), sum m)
 *
 * All three are Amdahl-style lower bounds on time (upper bounds on
 * speedup); combined <= rank overlap <= serial always holds.
 *
 * Once the phases overlap, the chain stops being the critical path.
 * What measures such a schedule is the timeline itself: its window,
 * its transfer/kernel overlap fraction (telemetry::computeStats) and
 * how close the window comes to these what-if bounds.
 */

#ifndef ALPHA_PIM_ANALYSIS_CRITICAL_PATH_HH
#define ALPHA_PIM_ANALYSIS_CRITICAL_PATH_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"
#include "telemetry/timeline.hh"

namespace alphapim::analysis
{

/** The four launch phases, in execution order. */
enum class PathPhase
{
    Load,
    Kernel,
    Retrieve,
    Merge,
};

inline constexpr std::size_t numPathPhases = 4;

/** Stable lowercase name ("load", "kernel", ...). */
const char *pathPhaseName(PathPhase phase);

/** The critical path of a launch sequence. */
struct CriticalPath
{
    Seconds length = 0.0;

    /** Phases on the path: the chain up to the first phase that
     * reaches the final length, so 4 x launches unless the last
     * phases took no time. */
    std::size_t nodes = 0;

    /** Path time attributed to each PathPhase (index by the enum). */
    Seconds phaseSeconds[numPathPhases] = {};

    double
    phaseFraction(PathPhase phase) const
    {
        return length > 0.0
            ? phaseSeconds[static_cast<std::size_t>(phase)] / length
            : 0.0;
    }

    /** Fraction of the path spent in transfers (load + retrieve). */
    double
    transferFraction() const
    {
        return phaseFraction(PathPhase::Load) +
               phaseFraction(PathPhase::Retrieve);
    }
};

/** Walk each launch's load, kernel, retrieve and merge in order.
 * An empty launch list yields an empty path. */
CriticalPath
criticalPath(const std::vector<telemetry::LaunchWindow> &launches);

/** What-if overlap bounds (seconds and speedups vs serial). */
struct WhatIf
{
    Seconds serialSeconds = 0.0;
    Seconds rankOverlapSeconds = 0.0;
    Seconds doubleBufferSeconds = 0.0;
    Seconds combinedSeconds = 0.0;

    /** Serial time over `seconds`; 1.0 when `seconds` is 0. */
    double
    speedup(Seconds seconds) const
    {
        return seconds > 0.0 ? serialSeconds / seconds : 1.0;
    }
    double rankOverlapSpeedup() const { return speedup(rankOverlapSeconds); }
    double doubleBufferSpeedup() const { return speedup(doubleBufferSeconds); }
    double combinedSpeedup() const { return speedup(combinedSeconds); }
};

/** Evaluate the three overlap bounds for a launch sequence. */
WhatIf
estimateOverlap(const std::vector<telemetry::LaunchWindow> &launches);

} // namespace alphapim::analysis

#endif // ALPHA_PIM_ANALYSIS_CRITICAL_PATH_HH
