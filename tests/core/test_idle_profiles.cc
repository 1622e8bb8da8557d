/**
 * @file
 * Idle DPUs of the CSC SpMSpV kernels (CSC-R, CSC-C, CSC-2D). A DPU
 * whose x slice brings no entry into its block takes the profile its
 * kernel cached, instead of being recorded and replayed. Every launch
 * here runs twice: on a system whose observer asks for every DPU's
 * traces, so idle DPUs are simulated as before, and on one whose
 * observer asks for nothing, so they take the cached profile. Both
 * must report the same per-DPU profiles and the same result, for
 * every semiring the engines and tests use, both accumulators and
 * three frontiers: an empty one; one vertex, which leaves DPUs idle
 * both with an empty slice and with a slice whose column has no
 * entries in their block; and every seventh vertex, where a busy
 * DPU's slice may start with columns that have no entries.
 */

#include <mutex>

#include <gtest/gtest.h>

#include "../upmem/expect_profile.hh"
#include "common/random.hh"
#include "core/spmspv.hh"
#include "sparse/generators.hh"

using namespace alphapim;
using namespace alphapim::core;

namespace
{

/** Keeps the last launch's per-DPU profiles and which DPUs were
 * recorded; asks for every DPU's traces or for nothing. */
class ProfileKeeper : public upmem::LaunchObserver
{
  public:
    explicit ProfileKeeper(bool traces) : traces_(traces) {}

    unsigned
    requirements() const override
    {
        return traces_ ? TracesOfEveryDpu : 0u;
    }

    void
    onLaunchBegin(const upmem::LaunchInfo &, unsigned num_dpus) override
    {
        recorded.assign(num_dpus, 0);
    }

    void
    onDpuTraces(unsigned dpu, const std::vector<upmem::TaskletTrace> &,
                const upmem::DpuConfig &) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++recorded.at(dpu);
    }

    void
    onLaunchEnd(const upmem::LaunchInfo &,
                const std::vector<upmem::DpuProfile> &profiles,
                const upmem::DpuConfig &) override
    {
        last = profiles;
    }

    std::vector<unsigned> recorded; ///< onDpuTraces calls per DPU
    std::vector<upmem::DpuProfile> last;

  private:
    const bool traces_;
    std::mutex mutex_;
};

/** A scale-free 600-vertex graph and its least-connected vertex. */
struct TestGraph
{
    sparse::CooMatrix<float> adj;
    NodeId leaf = 0;

    TestGraph()
    {
        Rng rng(11);
        adj = sparse::edgeListToSymmetricCoo(
            sparse::generateScaleMatched(600, 8, 30, rng));
        std::vector<EdgeId> degree(adj.numRows(), 0);
        for (std::size_t k = 0; k < adj.nnz(); ++k)
            ++degree[adj.colAt(k)];
        EdgeId least = ~EdgeId{0};
        for (NodeId v = 0; v < adj.numRows(); ++v) {
            if (degree[v] > 0 && degree[v] < least) {
                least = degree[v];
                leaf = v;
            }
        }
    }
};

/** How many DPUs of a launch are busy, idle with an empty slice, and
 * idle with a slice whose columns have no entries. */
struct IdleKinds
{
    unsigned busy = 0;
    unsigned emptySlice = 0;
    unsigned noEntries = 0;
};

constexpr unsigned testDpus = 16;

enum class Frontier
{
    Empty,
    OneVertex,
    EverySeventh,
};

const char *
frontierName(Frontier frontier)
{
    switch (frontier) {
      case Frontier::Empty:
        return "empty x";
      case Frontier::OneVertex:
        return "one vertex";
      case Frontier::EverySeventh:
        return "every seventh vertex";
    }
    return "?";
}

/**
 * Run one launch of every CSC mode under S on both systems and
 * compare them. `wram_bytes` sizes the DPU's WRAM, which decides
 * whether each block accumulates in WRAM or in MRAM.
 */
template <Semiring S>
void
expectIdleProfilesMatch(Bytes wram_bytes, bool mram)
{
    using Value = typename S::Value;
    static const TestGraph graph;
    upmem::SystemConfig cfg;
    cfg.numDpus = testDpus;
    cfg.dpu.wramBytes = wram_bytes;
    const auto traced = std::make_shared<ProfileKeeper>(true);
    const auto untraced = std::make_shared<ProfileKeeper>(false);
    const upmem::UpmemSystem traced_sys(cfg, {traced});
    const upmem::UpmemSystem untraced_sys(cfg, {untraced});

    for (const CscMode mode :
         {CscMode::RowWise, CscMode::ColWise, CscMode::Grid}) {
        const CscSpmspv<S> a(traced_sys, graph.adj, testDpus, mode);
        const CscSpmspv<S> b(untraced_sys, graph.adj, testDpus, mode);
        unsigned mram_blocks = 0;
        for (const DeviceBlock &block : b.blocks()) {
            if (static_cast<Bytes>(block.rows) * sizeof(Value) >
                detail::wramOutputBudget(cfg.dpu))
                ++mram_blocks;
        }
        EXPECT_EQ(mram_blocks > 0, mram) << b.name();

        for (const Frontier frontier : {Frontier::Empty,
                                        Frontier::OneVertex,
                                        Frontier::EverySeventh}) {
            const std::string label = std::string(b.name()) +
                                      (mram ? " MRAM " : " WRAM ") +
                                      frontierName(frontier);
            sparse::SparseVector<Value> x(graph.adj.numRows());
            if (frontier == Frontier::OneVertex)
                x.append(graph.leaf, S::one());
            if (frontier == Frontier::EverySeventh) {
                for (NodeId v = 0; v < graph.adj.numRows(); v += 7)
                    x.append(v, S::one());
            }

            const MxvResult<Value> want = a.run(x);
            const MxvResult<Value> got = b.run(x);
            EXPECT_EQ(got.y, want.y) << label;
            EXPECT_EQ(got.outputNnz, want.outputNnz) << label;
            EXPECT_EQ(got.semiringOps, want.semiringOps) << label;
            EXPECT_EQ(got.times.load, want.times.load) << label;
            EXPECT_EQ(got.times.kernel, want.times.kernel) << label;
            EXPECT_EQ(got.times.retrieve, want.times.retrieve) << label;
            EXPECT_EQ(got.times.merge, want.times.merge) << label;
            ASSERT_EQ(got.profile.maxCycles, want.profile.maxCycles)
                << label;
            ASSERT_EQ(traced->last.size(), testDpus) << label;
            ASSERT_EQ(untraced->last.size(), testDpus) << label;
            for (unsigned d = 0; d < testDpus; ++d) {
                upmem::expectSameProfile(
                    traced->last[d], untraced->last[d],
                    label + " dpu " + std::to_string(d));
            }

            // The trace-asking system recorded every DPU; the other
            // recorded exactly the DPUs with an update.
            IdleKinds kinds;
            for (unsigned d = 0; d < testDpus; ++d) {
                const DeviceBlock &block = b.blocks()[d];
                bool in_slice = false, busy = false;
                for (const NodeId v : x.indices()) {
                    if (v < block.colBase || v >= block.colBase + block.cols)
                        continue;
                    in_slice = true;
                    const auto [first, last] =
                        block.colRange(v - block.colBase);
                    busy = busy || first != last;
                }
                ++(busy       ? kinds.busy
                   : in_slice ? kinds.noEntries
                              : kinds.emptySlice);
                EXPECT_EQ(traced->recorded[d], 1u) << label << " dpu " << d;
                EXPECT_EQ(untraced->recorded[d], busy ? 1u : 0u)
                    << label << " dpu " << d;
            }
            if (frontier != Frontier::OneVertex)
                continue;
            // CSC-R broadcasts x, so no slice is empty; CSC-C's one
            // slice holding the vertex holds its whole column.
            EXPECT_GT(kinds.busy, 0u) << label;
            EXPECT_EQ(kinds.noEntries > 0, mode != CscMode::ColWise)
                << label;
            EXPECT_EQ(kinds.emptySlice > 0, mode != CscMode::RowWise)
                << label;
        }
    }
}

/** Both accumulators: the default WRAM holds every block's output;
 * 64 bytes holds almost none, so those blocks accumulate in MRAM and
 * their idle traces depend on the row count. */
template <Semiring S>
void
expectIdleProfilesMatch()
{
    expectIdleProfilesMatch<S>(upmem::DpuConfig{}.wramBytes, false);
    expectIdleProfilesMatch<S>(64, true);
}

} // namespace

TEST(CachedIdleProfiles, BoolOrAnd)
{
    expectIdleProfilesMatch<BoolOrAnd>();
}

TEST(CachedIdleProfiles, MinPlus)
{
    expectIdleProfilesMatch<MinPlus>();
}

TEST(CachedIdleProfiles, PlusTimes)
{
    expectIdleProfilesMatch<PlusTimes>();
}

TEST(CachedIdleProfiles, IntPlusTimes)
{
    expectIdleProfilesMatch<IntPlusTimes>();
}

TEST(CachedIdleProfiles, MinSelect)
{
    expectIdleProfilesMatch<MinSelect>();
}

TEST(CachedIdleProfiles, BitsOrAnd)
{
    expectIdleProfilesMatch<BitsOrAnd>();
}

TEST(CachedIdleProfiles, MinPlusLanes8)
{
    expectIdleProfilesMatch<MinPlusLanes<8>>();
}
