/**
 * @file
 * Batched multi-source BFS and SSSP: several traversals from
 * different sources share every matrix sweep. BFS packs up to 32
 * concurrent frontiers into the bits of one 32-bit word (BitsOrAnd
 * semiring: one Logic op per matrix entry no matter how many lanes
 * ride in it); SSSP carries up to kSsspLanes float distances per
 * vertex (MinPlusLanes: ops scale with lanes, but transfers,
 * traversal, and per-entry bookkeeping are shared).
 *
 * Single-source BFS and SSSP (graph_apps.hh) are the one-lane case of
 * these batched updates, run on the BoolOrAnd and MinPlus engines.
 * Every lane's result is bit-identical to the single-source run from
 * its source: unused lanes carry the additive identity, or/min are
 * exact and order-independent, and the float additions pair the
 * exact operands the one-lane run pairs. Since both runs share one
 * update, the ctest gate tests/apps/test_multi_source.cc compares
 * every lane with the host references (referenceBfs, referenceSssp)
 * as well as with the single-source run, across all four kernel
 * strategies. This module is the batching substrate of the serving
 * subsystem (src/serve/).
 */

#ifndef ALPHA_PIM_APPS_MULTI_SOURCE_HH
#define ALPHA_PIM_APPS_MULTI_SOURCE_HH

#include "apps/app_result.hh"
#include "apps/graph_apps.hh"

namespace alphapim::apps
{

/** BFS lanes one batched launch carries (bits of a u32 mask). */
inline constexpr unsigned kBfsLanes = 32;

/** SSSP lanes one batched launch carries (floats per value). */
inline constexpr unsigned kSsspLanes = 8;

/** The batched-SSSP semiring the serving subsystem instantiates. */
using SsspBatchSemiring = core::MinPlusLanes<kSsspLanes>;

/**
 * Outcome of one batched multi-source run: per-source output columns
 * plus the run totals, whose per-iteration records are the shared
 * launches.
 */
struct MultiSourceResult : RunTotals
{
    /** The batch's sources, in request order. */
    std::vector<NodeId> sources;

    /** BFS: levels[s][v] = depth of v from sources[s]. */
    std::vector<std::vector<std::uint32_t>> levels;

    /** SSSP: distances[s][v] = distance of v from sources[s]. */
    std::vector<std::vector<float>> distances;
};

/**
 * Batched BFS from up to kBfsLanes sources (duplicates allowed) over
 * the bitmask boolean semiring. One launch per depth level advances
 * every wavefront at once.
 */
MultiSourceResult runMultiBfs(const upmem::UpmemSystem &sys,
                              const sparse::CooMatrix<float> &adjacency,
                              const std::vector<NodeId> &sources,
                              const AppConfig &config = {});

/** Batched BFS against a caller-owned resident engine. */
MultiSourceResult
multiBfsWithEngine(const upmem::UpmemSystem &sys,
                   core::PimEngine<core::BitsOrAnd> &engine,
                   const std::vector<NodeId> &sources,
                   const AppConfig &config = {});

/**
 * Batched SSSP from up to kSsspLanes sources over the lane-parallel
 * tropical semiring. One launch per relaxation round advances every
 * lane at once.
 */
MultiSourceResult runMultiSssp(const upmem::UpmemSystem &sys,
                               const sparse::CooMatrix<float> &weighted,
                               const std::vector<NodeId> &sources,
                               const AppConfig &config = {});

/** Batched SSSP against a caller-owned resident engine. */
MultiSourceResult
multiSsspWithEngine(const upmem::UpmemSystem &sys,
                    core::PimEngine<SsspBatchSemiring> &engine,
                    const std::vector<NodeId> &sources,
                    const AppConfig &config = {});

} // namespace alphapim::apps

#endif // ALPHA_PIM_APPS_MULTI_SOURCE_HH
