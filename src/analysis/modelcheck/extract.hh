/**
 * @file
 * Symbolic kernel execution: harvest synchronization skeletons from
 * the shipped kernels and applications by running them functionally
 * on tiny abstract partitions -- each extraction builds its own small
 * UpmemSystem with a TraceCapture attached, which skips the revolver
 * replay, so extraction costs milliseconds -- and folding the
 * recorded traces into fingerprint-deduplicated skeletons ready for
 * the exhaustive-schedule explorer. The capture and system live only
 * for the one extraction call.
 *
 * The abstraction is sound for the synchronization structure the
 * explorer checks because the kernels derive their mutex/barrier
 * pattern and address layout from core::detail's fixed layout rules,
 * not from data values: a tiny partition exercises the same
 * acquire/release/barrier shapes (per tasklet, per partition role) as
 * a large one, just with fewer repetitions.
 */

#ifndef ALPHA_PIM_ANALYSIS_MODELCHECK_EXTRACT_HH
#define ALPHA_PIM_ANALYSIS_MODELCHECK_EXTRACT_HH

#include <string>
#include <vector>

#include "analysis/modelcheck/skeleton.hh"
#include "core/engine.hh"
#include "core/kernels.hh"

namespace alphapim::analysis::modelcheck
{

/** Shape of the abstract partition the subject runs on. */
struct ExtractOptions
{
    /** DPUs of the tiny system (2 exercises cross-DPU splits). */
    unsigned dpus = 2;

    /** Tasklets per DPU; the explorer's cost is exponential in this,
     * and 3 already distinguishes pairwise from collective sync. */
    unsigned tasklets = 3;

    /** Vertices of the abstract graph. */
    NodeId vertices = 12;

    /** Undirected edges of the abstract graph. */
    EdgeId edges = 18;

    /** Generator seed (results are deterministic given it). */
    std::uint64_t seed = 7;

    /** Input-vector fill ratio for direct kernel runs. */
    double xDensity = 0.5;
};

/** One distinct per-DPU program and how often it occurred. */
struct ExtractedSkeleton
{
    SyncSkeleton skeleton;

    /** DPU programs (across launches and DPUs) sharing this
     * skeleton's fingerprint; each occurrence is attributed to the
     * first one seen. */
    unsigned occurrences = 1;
};

/** Everything harvested from one subject. */
struct Extraction
{
    /** Fingerprint-deduplicated skeletons, in first-seen order. */
    std::vector<ExtractedSkeleton> skeletons;

    /** Schedule-independent lint findings from extraction, already
     * deduplicated and in deterministic report order. */
    std::vector<Finding> lintFindings;

    /** Kernel launches captured. */
    unsigned launches = 0;

    /** Per-DPU programs seen before deduplication. */
    unsigned dpuPrograms = 0;
};

/** Run one kernel variant on an abstract partition and extract the
 * skeletons of every launch it performs. */
Extraction extractKernelSkeletons(core::KernelVariant variant,
                                  const ExtractOptions &opts = {});

/** Application names accepted by extractAppSkeletons(). */
const std::vector<std::string> &knownApps();

/**
 * Run one application ("bfs", "sssp", "ppr", "cc") end-to-end with
 * the given kernel-selection strategy on an abstract graph and
 * extract the skeletons of every launch the engine issued (including
 * any strategy-probing launches). fatal()s on an unknown app name.
 */
Extraction extractAppSkeletons(const std::string &app,
                               core::MxvStrategy strategy,
                               const ExtractOptions &opts = {});

} // namespace alphapim::analysis::modelcheck

#endif // ALPHA_PIM_ANALYSIS_MODELCHECK_EXTRACT_HH
