/**
 * @file
 * Host-side reference implementations of the three graph
 * applications. They serve as correctness oracles for the PIM
 * implementations and as the functional core of the CPU baseline.
 */

#ifndef ALPHA_PIM_APPS_REFERENCE_ALGORITHMS_HH
#define ALPHA_PIM_APPS_REFERENCE_ALGORITHMS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sparse/coo.hh"
#include "sparse/csr.hh"

namespace alphapim::apps
{

/** BFS levels from `source`; invalidNode marks unreachable vertices. */
std::vector<std::uint32_t> referenceBfs(
    const sparse::CsrMatrix<float> &adjacency, NodeId source);

/** referenceBfs() over a COO adjacency, converted to CSR first. */
std::vector<std::uint32_t> referenceBfs(
    const sparse::CooMatrix<float> &adjacency, NodeId source);

/** Single-source shortest path distances (Bellman-Ford-style);
 * +inf marks unreachable vertices. */
std::vector<float> referenceSssp(
    const sparse::CsrMatrix<float> &weighted, NodeId source);

/** referenceSssp() over a COO matrix, converted to CSR first. */
std::vector<float> referenceSssp(
    const sparse::CooMatrix<float> &weighted, NodeId source);

/**
 * Personalized PageRank by power iteration:
 *   x <- alpha * A_norm x + (1 - alpha) e_source
 * where A_norm is the column-degree-normalized adjacency.
 *
 * @param iterations fixed iteration count
 */
std::vector<float> referencePpr(
    const sparse::CooMatrix<float> &adjacency, NodeId source,
    double alpha, unsigned iterations);

/** Column-degree-normalized copy of an adjacency pattern (the PPR
 * transition matrix). Zero-degree columns stay zero. */
sparse::CooMatrix<float> normalizeColumns(
    const sparse::CooMatrix<float> &adjacency);

/** Connected-component labels: every vertex is labelled with the
 * smallest vertex id in its component. */
std::vector<std::uint32_t> referenceComponents(
    const sparse::CsrMatrix<float> &adjacency);

/** referenceComponents() over a COO adjacency, converted to CSR
 * first. */
std::vector<std::uint32_t> referenceComponents(
    const sparse::CooMatrix<float> &adjacency);

} // namespace alphapim::apps

#endif // ALPHA_PIM_APPS_REFERENCE_ALGORITHMS_HH
