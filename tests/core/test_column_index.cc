/**
 * @file
 * The column index of the CSC SpMSpV kernels (CSC-R, CSC-C, CSC-2D)
 * and the order it gives a launch. For every DPU, the activity pass
 * must give the x slice, update count and busy set the block itself
 * gives: the slice by binary search on the block's column range, the
 * count by runOneDpu's sum of column lengths over that slice (its
 * slot's semiringOps / 2, which the kernel also checks against the
 * index on every DPU it runs), and the busy set by the rule the
 * kernel used before the index, kept here as `bringsNoEntries`. A
 * launch hands its busy DPUs to the pool heaviest first, unless an
 * observer asks for every DPU's traces.
 */

#include <algorithm>
#include <mutex>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/spmspv.hh"
#include "sparse/generators.hh"

using namespace alphapim;
using namespace alphapim::core;

namespace
{

/** Records the order of onDpuTraces calls; asks for every DPU's
 * traces or for nothing. */
class OrderKeeper : public upmem::LaunchObserver
{
  public:
    explicit OrderKeeper(bool traces) : traces_(traces) {}

    unsigned
    requirements() const override
    {
        return traces_ ? TracesOfEveryDpu : 0u;
    }

    void
    onLaunchBegin(const upmem::LaunchInfo &, unsigned) override
    {
        order.clear();
    }

    void
    onDpuTraces(unsigned dpu, const std::vector<upmem::TaskletTrace> &,
                const upmem::DpuConfig &) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        order.push_back(dpu);
    }

    std::vector<unsigned> order; ///< DPUs of the last launch

  private:
    const bool traces_;
    std::mutex mutex_;
};

/**
 * A scale-free graph of 600 vertices spread over 640 ids: every id
 * 16k + 15 has no edge, so x entries can name columns without
 * entries in any block.
 */
struct IndexGraph
{
    static constexpr NodeId vertices = 640;
    sparse::CooMatrix<float> adj{vertices, vertices};

    IndexGraph()
    {
        Rng rng(11);
        const auto base = sparse::edgeListToSymmetricCoo(
            sparse::generateScaleMatched(600, 8, 30, rng));
        const auto id = [](NodeId v) { return v + v / 15; };
        for (std::size_t k = 0; k < base.nnz(); ++k)
            adj.addEntry(id(base.rowAt(k)), id(base.colAt(k)),
                         base.valueAt(k));
    }

    static bool isolated(NodeId v) { return v % 16 == 15; }
};

const IndexGraph &
indexGraph()
{
    static const IndexGraph graph;
    return graph;
}

template <typename V>
sparse::SparseVector<V>
frontier(const std::vector<NodeId> &vertices, V one)
{
    sparse::SparseVector<V> x(IndexGraph::vertices);
    for (const NodeId v : vertices)
        x.append(v, one);
    return x;
}

/** The rule the kernel used before the column index: true when no x
 * entry of `slice` has a column with entries in `block`. */
template <typename V>
bool
bringsNoEntries(const DeviceBlock &block, const sparse::SparseVector<V> &x,
                std::pair<std::size_t, std::size_t> slice)
{
    for (std::size_t k = slice.first; k < slice.second; ++k) {
        const auto [first, last] =
            block.colRange(x.indices()[k] - block.colBase);
        if (first != last)
            return false;
    }
    return true;
}

/**
 * Check the activity pass of every CSC mode under S, on systems whose
 * observer asks for every DPU's traces or for nothing, against each
 * block's own answer, and the launch's semiring ops against the sum
 * of the update counts.
 */
template <Semiring S>
void
expectActivityMatchesBlocks()
{
    const IndexGraph &graph = indexGraph();
    constexpr unsigned dpus = 16;
    upmem::SystemConfig cfg;
    cfg.numDpus = dpus;

    std::vector<NodeId> every, seventh_and_empty;
    for (NodeId v = 0; v < IndexGraph::vertices; ++v) {
        every.push_back(v);
        if (v % 7 == 0 || IndexGraph::isolated(v))
            seventh_and_empty.push_back(v);
    }
    const std::vector<std::pair<const char *, std::vector<NodeId>>>
        frontiers = {{"empty x", {}},
                     {"one empty column", {15}},
                     {"one vertex", {100}},
                     {"every seventh vertex and every empty column",
                      seventh_and_empty},
                     {"every vertex", every}};

    for (const bool traces : {true, false}) {
        const upmem::UpmemSystem sys(
            cfg, {std::make_shared<OrderKeeper>(traces)});
        for (const CscMode mode :
             {CscMode::RowWise, CscMode::ColWise, CscMode::Grid}) {
            const CscSpmspv<S> kernel(sys, graph.adj, dpus, mode);
            for (const auto &[name, vertices] : frontiers) {
                const std::string label =
                    std::string(kernel.name()) +
                    (traces ? " traced " : " untraced ") + name;
                const auto x = frontier(vertices, S::one());
                const auto &idx = x.indices();
                const auto act = kernel.activity(x);
                ASSERT_EQ(act.slices.size(), dpus) << label;
                ASSERT_EQ(act.updates.size(), dpus) << label;
                std::uint64_t total = 0;
                for (unsigned d = 0; d < dpus; ++d) {
                    const DeviceBlock &b = kernel.blocks()[d];
                    const std::pair<std::size_t, std::size_t> slice = {
                        std::lower_bound(idx.begin(), idx.end(),
                                         b.colBase) -
                            idx.begin(),
                        std::lower_bound(idx.begin(), idx.end(),
                                         b.colBase + b.cols) -
                            idx.begin()};
                    std::uint64_t updates = 0;
                    for (std::size_t k = slice.first; k < slice.second;
                         ++k) {
                        const auto [first, last] =
                            b.colRange(idx[k] - b.colBase);
                        updates += last - first;
                    }
                    EXPECT_EQ(act.slices[d], slice)
                        << label << " dpu " << d;
                    EXPECT_EQ(act.updates[d], updates)
                        << label << " dpu " << d;
                    EXPECT_EQ(act.updates[d] == 0,
                              bringsNoEntries(b, x, slice))
                        << label << " dpu " << d;
                    total += act.updates[d];
                }
                EXPECT_EQ(kernel.run(x).semiringOps, 2 * total) << label;
            }
        }
    }
}

/** DPUs with an update, heaviest first, ties in DPU order. */
std::vector<unsigned>
heaviestFirst(const std::vector<std::uint64_t> &updates)
{
    std::vector<unsigned> busy;
    for (unsigned d = 0; d < updates.size(); ++d) {
        if (updates[d] > 0)
            busy.push_back(d);
    }
    std::stable_sort(busy.begin(), busy.end(), [&](unsigned a, unsigned b) {
        return updates[a] > updates[b];
    });
    return busy;
}

/**
 * The first frontier of `kernel` -- one vertex, two near ones, or
 * every k-th vertex from some offset -- with exactly three busy DPUs
 * of distinct update counts whose heaviest-first order is not DPU
 * order.
 */
template <Semiring S>
std::vector<NodeId>
threeBusyOutOfOrder(const CscSpmspv<S> &kernel)
{
    constexpr NodeId n = IndexGraph::vertices;
    std::vector<std::vector<NodeId>> candidates;
    for (NodeId v = 0; v < n; ++v) {
        candidates.push_back({v});
        for (NodeId w = v + 1; w < std::min<NodeId>(v + 64, n); ++w)
            candidates.push_back({v, w});
    }
    for (NodeId k = 2; k <= n / 2; ++k) {
        for (NodeId offset = 0; offset < k; ++offset) {
            std::vector<NodeId> vertices;
            for (NodeId v = offset; v < n; v += k)
                vertices.push_back(v);
            candidates.push_back(std::move(vertices));
        }
    }
    for (const auto &vertices : candidates) {
        const auto act = kernel.activity(frontier(vertices, S::one()));
        const auto order = heaviestFirst(act.updates);
        if (order.size() != 3 || std::is_sorted(order.begin(), order.end()))
            continue;
        if (act.updates[order[0]] > act.updates[order[1]] &&
            act.updates[order[1]] > act.updates[order[2]])
            return vertices;
    }
    return {};
}

/**
 * Launch a frontier with three busy DPUs of distinct weights on
 * `dpus` DPUs in every CSC mode. Three items run serially on the
 * caller in item order, so an observer that asks for nothing sees
 * them heaviest first; one that asks for every DPU's traces sees
 * every DPU in DPU order.
 */
void
expectHeaviestFirst(unsigned dpus)
{
    using S = MinPlus;
    upmem::SystemConfig cfg;
    cfg.numDpus = dpus;
    const auto untraced = std::make_shared<OrderKeeper>(false);
    const auto traced = std::make_shared<OrderKeeper>(true);
    const upmem::UpmemSystem untraced_sys(cfg, {untraced});
    const upmem::UpmemSystem traced_sys(cfg, {traced});
    std::vector<unsigned> dpu_order(dpus);
    for (unsigned d = 0; d < dpus; ++d)
        dpu_order[d] = d;
    for (const CscMode mode :
         {CscMode::RowWise, CscMode::ColWise, CscMode::Grid}) {
        const CscSpmspv<S> a(untraced_sys, indexGraph().adj, dpus, mode);
        const CscSpmspv<S> b(traced_sys, indexGraph().adj, dpus, mode);
        const std::string label =
            std::string(a.name()) + " at " + std::to_string(dpus) + " DPUs";
        const auto vertices = threeBusyOutOfOrder(a);
        ASSERT_FALSE(vertices.empty()) << label << ": no such frontier";
        const auto x = frontier(vertices, S::one());
        const auto want = heaviestFirst(a.activity(x).updates);

        const auto got = a.run(x);
        EXPECT_EQ(untraced->order, want) << label;
        EXPECT_EQ(b.run(x).y, got.y) << label;
        EXPECT_EQ(traced->order, dpu_order) << label;
    }
}

} // namespace

TEST(CscColumnIndex, BoolOrAnd)
{
    expectActivityMatchesBlocks<BoolOrAnd>();
}

TEST(CscColumnIndex, MinPlus)
{
    expectActivityMatchesBlocks<MinPlus>();
}

TEST(CscColumnIndex, PlusTimes)
{
    expectActivityMatchesBlocks<PlusTimes>();
}

TEST(CscLaunchOrder, ThreeBusyDpusOfSixteenRecordHeaviestFirst)
{
    // Sixteen DPUs under TracesOfEveryDpu are sixteen pool items, so
    // only the untraced order is fixed; expectHeaviestFirst(3) checks
    // the traced one.
    using S = MinPlus;
    upmem::SystemConfig cfg;
    cfg.numDpus = 16;
    const auto untraced = std::make_shared<OrderKeeper>(false);
    const upmem::UpmemSystem sys(cfg, {untraced});
    for (const CscMode mode :
         {CscMode::RowWise, CscMode::ColWise, CscMode::Grid}) {
        const CscSpmspv<S> kernel(sys, indexGraph().adj, 16, mode);
        const auto vertices = threeBusyOutOfOrder(kernel);
        ASSERT_FALSE(vertices.empty())
            << kernel.name() << ": no such frontier";
        const auto x = frontier(vertices, S::one());
        const auto want = heaviestFirst(kernel.activity(x).updates);
        kernel.run(x);
        EXPECT_EQ(untraced->order, want) << kernel.name();
    }
}

TEST(CscLaunchOrder, TracesOfEveryDpuKeepDpuOrder)
{
    expectHeaviestFirst(3);
}
