/**
 * @file
 * Common result record of an iterative graph application run on the
 * PIM system: per-iteration logs (input density, phase breakdown,
 * kernel choice) plus run totals, which batched multi-source results
 * share. Every figure that reports per-iteration or end-to-end
 * application behaviour reads these fields.
 */

#ifndef ALPHA_PIM_APPS_APP_RESULT_HH
#define ALPHA_PIM_APPS_APP_RESULT_HH

#include <cstdint>
#include <vector>

#include "core/phase_times.hh"
#include "upmem/profile.hh"

namespace alphapim::apps
{

/** One matrix-vector iteration of a graph application. */
struct IterationLog
{
    unsigned iteration = 0;
    /** Input-vector density when the iteration launched. */
    double inputDensity = 0.0;
    /** Output-vector density produced by the iteration. */
    double outputDensity = 0.0;
    /** True when the SpMV kernel was selected. */
    bool usedSpmv = false;
    /** Load/Kernel/Retrieve/Merge times of this iteration. */
    core::PhaseTimes times;
    /** Semiring operations performed. */
    std::uint64_t semiringOps = 0;
};

/**
 * Totals of one run, single-source or batched: the per-iteration
 * records and their sums. One launch per iteration, whatever the
 * batch width.
 */
struct RunTotals
{
    /** Per-iteration records in execution order. */
    std::vector<IterationLog> iterations;

    /** Sum of all per-iteration phase times. */
    core::PhaseTimes total;

    /** Aggregated DPU profile across all launches. */
    upmem::LaunchProfile profile;

    /** Total semiring operations across iterations. */
    std::uint64_t totalOps = 0;

    /** True when the run reached its fixpoint (every lane's, for a
     * batch). */
    bool converged = false;

    /** SpMSpV / SpMV launch counts. */
    unsigned spmspvLaunches = 0;
    unsigned spmvLaunches = 0;

    /** Fold one iteration's record into the totals. */
    void
    addIteration(const IterationLog &log,
                 const upmem::LaunchProfile &launch)
    {
        iterations.push_back(log);
        total += log.times;
        totalOps += log.semiringOps;
        profile.add(launch);
        if (log.usedSpmv)
            ++spmvLaunches;
        else
            ++spmspvLaunches;
    }
};

/** Aggregate outcome of a graph application run. */
struct AppResult : RunTotals
{
    /** BFS: level per vertex (invalidNode if unreached). */
    std::vector<std::uint32_t> levels;

    /** SSSP: distance per vertex (+inf if unreached). */
    std::vector<float> distances;

    /** PPR: rank per vertex. */
    std::vector<float> ranks;
};

} // namespace alphapim::apps

#endif // ALPHA_PIM_APPS_APP_RESULT_HH
