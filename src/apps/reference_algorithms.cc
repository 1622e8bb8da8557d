#include "reference_algorithms.hh"

#include <cmath>
#include <limits>
#include <queue>

#include "common/logging.hh"

namespace alphapim::apps
{

std::vector<std::uint32_t>
referenceBfs(const sparse::CsrMatrix<float> &csr, NodeId source)
{
    ALPHA_ASSERT(source < csr.numRows(), "source out of range");
    std::vector<std::uint32_t> levels(csr.numRows(), invalidNode);
    std::queue<NodeId> frontier;
    levels[source] = 0;
    frontier.push(source);
    while (!frontier.empty()) {
        const NodeId u = frontier.front();
        frontier.pop();
        for (EdgeId e = csr.rowBegin(u); e < csr.rowEnd(u); ++e) {
            const NodeId v = csr.colIndices()[e];
            if (levels[v] == invalidNode) {
                levels[v] = levels[u] + 1;
                frontier.push(v);
            }
        }
    }
    return levels;
}

std::vector<std::uint32_t>
referenceBfs(const sparse::CooMatrix<float> &adjacency, NodeId source)
{
    return referenceBfs(sparse::CsrMatrix<float>::fromCoo(adjacency),
                        source);
}

std::vector<float>
referenceSssp(const sparse::CsrMatrix<float> &csr, NodeId source)
{
    ALPHA_ASSERT(source < csr.numRows(), "source out of range");
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> dist(csr.numRows(), inf);
    dist[source] = 0.0f;

    // Bellman-Ford with a frontier: matches the linear-algebraic
    // iteration structure of the PIM implementation exactly.
    std::vector<NodeId> frontier = {source};
    std::vector<bool> in_next(csr.numRows(), false);
    for (NodeId round = 0;
         round < csr.numRows() && !frontier.empty(); ++round) {
        std::vector<NodeId> next;
        for (NodeId u : frontier) {
            for (EdgeId e = csr.rowBegin(u); e < csr.rowEnd(u); ++e) {
                const NodeId v = csr.colIndices()[e];
                const float cand = dist[u] + csr.values()[e];
                if (cand < dist[v]) {
                    dist[v] = cand;
                    if (!in_next[v]) {
                        in_next[v] = true;
                        next.push_back(v);
                    }
                }
            }
        }
        for (NodeId v : next)
            in_next[v] = false;
        frontier = std::move(next);
    }
    return dist;
}

std::vector<float>
referenceSssp(const sparse::CooMatrix<float> &weighted, NodeId source)
{
    return referenceSssp(sparse::CsrMatrix<float>::fromCoo(weighted),
                         source);
}

sparse::CooMatrix<float>
normalizeColumns(const sparse::CooMatrix<float> &adjacency)
{
    std::vector<EdgeId> col_degree(adjacency.numCols(), 0);
    for (std::size_t k = 0; k < adjacency.nnz(); ++k)
        ++col_degree[adjacency.colAt(k)];

    sparse::CooMatrix<float> normalized(adjacency.numRows(),
                                        adjacency.numCols());
    normalized.reserve(adjacency.nnz());
    for (std::size_t k = 0; k < adjacency.nnz(); ++k) {
        const NodeId c = adjacency.colAt(k);
        normalized.addEntry(
            adjacency.rowAt(k), c,
            1.0f / static_cast<float>(col_degree[c]));
    }
    return normalized;
}

std::vector<std::uint32_t>
referenceComponents(const sparse::CsrMatrix<float> &csr)
{
    const NodeId n = csr.numRows();
    std::vector<std::uint32_t> labels(n, invalidNode);
    std::vector<NodeId> stack;
    for (NodeId root = 0; root < n; ++root) {
        if (labels[root] != invalidNode)
            continue;
        // Roots are visited in ascending order, so the root id is
        // the smallest vertex id in its component.
        labels[root] = root;
        stack.push_back(root);
        while (!stack.empty()) {
            const NodeId u = stack.back();
            stack.pop_back();
            for (EdgeId e = csr.rowBegin(u); e < csr.rowEnd(u);
                 ++e) {
                const NodeId v = csr.colIndices()[e];
                if (labels[v] == invalidNode) {
                    labels[v] = root;
                    stack.push_back(v);
                }
            }
        }
    }
    return labels;
}

std::vector<std::uint32_t>
referenceComponents(const sparse::CooMatrix<float> &adjacency)
{
    return referenceComponents(
        sparse::CsrMatrix<float>::fromCoo(adjacency));
}

std::vector<float>
referencePpr(const sparse::CooMatrix<float> &adjacency, NodeId source,
             double alpha, unsigned iterations)
{
    ALPHA_ASSERT(source < adjacency.numRows(), "source out of range");
    const auto a_norm = normalizeColumns(adjacency);
    const NodeId n = adjacency.numRows();

    std::vector<float> x(n, 0.0f);
    x[source] = 1.0f;
    std::vector<float> y(n);
    const auto restart = static_cast<float>(1.0 - alpha);
    for (unsigned it = 0; it < iterations; ++it) {
        std::fill(y.begin(), y.end(), 0.0f);
        for (std::size_t k = 0; k < a_norm.nnz(); ++k) {
            y[a_norm.rowAt(k)] +=
                a_norm.valueAt(k) * x[a_norm.colAt(k)];
        }
        for (NodeId i = 0; i < n; ++i)
            y[i] = static_cast<float>(alpha) * y[i];
        y[source] += restart;
        x = y;
    }
    return x;
}

} // namespace alphapim::apps
