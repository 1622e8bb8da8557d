/**
 * @file
 * Degree statistics and structural features of a graph adjacency
 * matrix. These are exactly the features the paper's decision-tree
 * kernel selector consumes (average degree, degree std) plus the
 * Table 2 characterization columns.
 */

#ifndef ALPHA_PIM_SPARSE_GRAPH_STATS_HH
#define ALPHA_PIM_SPARSE_GRAPH_STATS_HH

#include <vector>

#include "common/types.hh"
#include "sparse/coo.hh"
#include "sparse/csr.hh"

namespace alphapim::sparse
{

/** Table 2 style characterization of one graph. */
struct GraphStats
{
    NodeId nodes = 0;
    /** Undirected edge count (nnz / 2 for the symmetric adjacency). */
    EdgeId edges = 0;
    /** Stored nonzeros of the adjacency matrix. */
    EdgeId nnz = 0;
    /** Mean undirected degree 2E/N, as reported in Table 2. */
    double avgDegree = 0.0;
    /** Population standard deviation of the degree distribution. */
    double degreeStd = 0.0;
    /** NNZ / N^2, the paper's sparsity definition. */
    double sparsity = 0.0;
    /** Largest vertex degree. */
    NodeId maxDegree = 0;
};

/** Compute GraphStats from a symmetric adjacency pattern. */
GraphStats computeGraphStats(const CooMatrix<float> &adjacency);

/** Per-vertex degree (row nnz) of the adjacency matrix. */
std::vector<NodeId> vertexDegrees(const CooMatrix<float> &adjacency);

/**
 * Vertices reachable from source, via a host-side BFS over the
 * adjacency pattern. Used to pick interesting source vertices and to
 * validate the PIM traversal results.
 */
std::vector<bool> reachableFrom(const CsrMatrix<float> &csr, NodeId source);

/** reachableFrom() over a COO adjacency, converted to CSR first. */
std::vector<bool> reachableFrom(const CooMatrix<float> &adjacency,
                                NodeId source);

/** A vertex inside the largest weakly connected component. */
NodeId largestComponentVertex(const CsrMatrix<float> &csr);

/** largestComponentVertex() over a COO adjacency, converted first. */
NodeId largestComponentVertex(const CooMatrix<float> &adjacency);

} // namespace alphapim::sparse

#endif // ALPHA_PIM_SPARSE_GRAPH_STATS_HH
