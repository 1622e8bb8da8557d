#include "graph_stats.hh"

#include <algorithm>
#include <queue>

#include "common/logging.hh"
#include "common/stats.hh"

namespace alphapim::sparse
{

std::vector<NodeId>
vertexDegrees(const CooMatrix<float> &adjacency)
{
    std::vector<NodeId> degrees(adjacency.numRows(), 0);
    for (std::size_t k = 0; k < adjacency.nnz(); ++k)
        ++degrees[adjacency.rowAt(k)];
    return degrees;
}

GraphStats
computeGraphStats(const CooMatrix<float> &adjacency)
{
    ALPHA_ASSERT(adjacency.numRows() == adjacency.numCols(),
                 "adjacency matrix must be square");
    GraphStats stats;
    stats.nodes = adjacency.numRows();
    stats.nnz = adjacency.nnz();
    stats.edges = stats.nnz / 2;

    RunningStats deg_stats;
    for (NodeId deg : vertexDegrees(adjacency)) {
        deg_stats.add(static_cast<double>(deg));
        stats.maxDegree = std::max(stats.maxDegree, deg);
    }
    stats.avgDegree = deg_stats.mean();
    stats.degreeStd = deg_stats.stddev();
    const double n = static_cast<double>(stats.nodes);
    // Table 2 convention: sparsity = E / N^2 with E the undirected
    // edge count.
    stats.sparsity = n > 0
        ? static_cast<double>(stats.edges) / (n * n)
        : 0.0;
    return stats;
}

std::vector<bool>
reachableFrom(const CsrMatrix<float> &csr, NodeId source)
{
    std::vector<bool> visited(csr.numRows(), false);
    std::queue<NodeId> frontier;
    visited[source] = true;
    frontier.push(source);
    while (!frontier.empty()) {
        const NodeId u = frontier.front();
        frontier.pop();
        for (EdgeId e = csr.rowBegin(u); e < csr.rowEnd(u); ++e) {
            const NodeId v = csr.colIndices()[e];
            if (!visited[v]) {
                visited[v] = true;
                frontier.push(v);
            }
        }
    }
    return visited;
}

std::vector<bool>
reachableFrom(const CooMatrix<float> &adjacency, NodeId source)
{
    return reachableFrom(CsrMatrix<float>::fromCoo(adjacency), source);
}

NodeId
largestComponentVertex(const CsrMatrix<float> &csr)
{
    const NodeId n = csr.numRows();
    ALPHA_ASSERT(n > 0, "empty graph has no components");

    std::vector<NodeId> component(n, invalidNode);
    NodeId best_root = 0;
    std::size_t best_size = 0;
    NodeId next_component = 0;

    std::vector<NodeId> stack;
    for (NodeId root = 0; root < n; ++root) {
        if (component[root] != invalidNode)
            continue;
        const NodeId comp = next_component++;
        std::size_t size = 0;
        stack.push_back(root);
        component[root] = comp;
        while (!stack.empty()) {
            const NodeId u = stack.back();
            stack.pop_back();
            ++size;
            for (EdgeId e = csr.rowBegin(u); e < csr.rowEnd(u); ++e) {
                const NodeId v = csr.colIndices()[e];
                if (component[v] == invalidNode) {
                    component[v] = comp;
                    stack.push_back(v);
                }
            }
        }
        if (size > best_size) {
            best_size = size;
            best_root = root;
        }
    }
    return best_root;
}

NodeId
largestComponentVertex(const CooMatrix<float> &adjacency)
{
    return largestComponentVertex(CsrMatrix<float>::fromCoo(adjacency));
}

} // namespace alphapim::sparse
