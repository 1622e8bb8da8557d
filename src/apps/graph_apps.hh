/**
 * @file
 * The three linear-algebraic graph applications of the paper --
 * BFS, SSSP, and Personalized PageRank -- implemented as iterative
 * matrix-vector products on the simulated UPMEM system, with
 * per-iteration kernel selection via PimEngine.
 *
 * Semirings (Table 1): BFS (or, and); SSSP (min, +); PPR (+, x).
 * Host-side frontier/mask updates and convergence checks are charged
 * to the Merge phase, following the paper's accounting.
 *
 * Every application, and the batched runs of multi_source.hh, runs
 * one iteration loop and differs only in its per-vertex update.
 * Single-source BFS and SSSP are one-lane batches: the batched
 * updates, run on the BoolOrAnd and MinPlus engines.
 */

#ifndef ALPHA_PIM_APPS_GRAPH_APPS_HH
#define ALPHA_PIM_APPS_GRAPH_APPS_HH

#include "apps/app_result.hh"
#include "core/engine.hh"

namespace alphapim::apps
{

/** Options shared by the three applications. */
struct AppConfig
{
    /** Kernel selection strategy. */
    core::MxvStrategy strategy = core::MxvStrategy::Adaptive;

    /** Override of the switch density; negative = decision tree. */
    double switchThreshold = -1.0;

    /** DPUs to use; 0 = every DPU the system has. */
    unsigned dpus = 0;

    /** Iteration cap; 0 = algorithm default (N for BFS/SSSP). */
    unsigned maxIterations = 0;

    /** PPR damping factor. */
    double pprAlpha = 0.85;

    /** PPR iteration count (power iteration). */
    unsigned pprIterations = 20;

    /** PPR early-exit L1 tolerance; 0 disables early exit. */
    double pprTolerance = 1e-4;
};

/**
 * Breadth-first search from `source` over the boolean semiring.
 * The result's `levels` holds per-vertex BFS depth.
 */
AppResult runBfs(const upmem::UpmemSystem &sys,
                 const sparse::CooMatrix<float> &adjacency,
                 NodeId source, const AppConfig &config = {});

/**
 * BFS against a caller-owned engine. The serving subsystem keeps
 * engines resident (matrix load amortized across queries) and calls
 * these `*WithEngine` variants; the `run*` functions above construct
 * a fresh engine and delegate. Only `strategy`-independent fields of
 * `config` apply (the engine already fixed strategy and threshold).
 */
AppResult bfsWithEngine(const upmem::UpmemSystem &sys,
                        core::PimEngine<core::BoolOrAnd> &engine,
                        NodeId source, const AppConfig &config = {});

/**
 * Single-source shortest paths over the (min, +) semiring on a
 * weighted adjacency. The result's `distances` holds per-vertex
 * shortest distances.
 */
AppResult runSssp(const upmem::UpmemSystem &sys,
                  const sparse::CooMatrix<float> &weighted,
                  NodeId source, const AppConfig &config = {});

/** SSSP against a caller-owned engine over the weighted matrix. */
AppResult ssspWithEngine(const upmem::UpmemSystem &sys,
                         core::PimEngine<core::MinPlus> &engine,
                         NodeId source, const AppConfig &config = {});

/**
 * Personalized PageRank over the (+, x) semiring on the column-
 * normalized adjacency. The result's `ranks` holds the PPR vector.
 */
AppResult runPpr(const upmem::UpmemSystem &sys,
                 const sparse::CooMatrix<float> &adjacency,
                 NodeId source, const AppConfig &config = {});

/** PPR against a caller-owned engine. The engine must have been
 * built over the column-normalized adjacency (normalizeColumns). */
AppResult pprWithEngine(const upmem::UpmemSystem &sys,
                        core::PimEngine<core::PlusTimes> &engine,
                        NodeId source, const AppConfig &config = {});

/**
 * Connected components by min-label propagation over the
 * (min, select) algebra -- an extension application demonstrating
 * that the framework generalizes beyond the paper's three
 * algorithms. The result's `levels` field holds the component label
 * (the smallest vertex id in each component).
 */
AppResult runConnectedComponents(
    const upmem::UpmemSystem &sys,
    const sparse::CooMatrix<float> &adjacency,
    const AppConfig &config = {});

/** Connected components against a caller-owned engine. */
AppResult ccWithEngine(const upmem::UpmemSystem &sys,
                       core::PimEngine<core::MinSelect> &engine,
                       const AppConfig &config = {});

} // namespace alphapim::apps

#endif // ALPHA_PIM_APPS_GRAPH_APPS_HH
