/**
 * @file
 * Cached SpMV profiles. An SpMV DPU's traces depend only on its
 * block, the semiring's op classes and the DpuConfig, never on x, so
 * every SpMV kernel (DCOO-2D, COO.nnz, COO.row, CSR.row) keeps the
 * per-DPU profiles of its first launch, and every later launch runs
 * only the DPUs' functional bodies. Each kernel here launches four
 * times with a different x each time: on a system whose observer asks
 * for every DPU's traces, so every launch is recorded and replayed,
 * and on one whose observer asks for nothing, so launches 2 to 4 take
 * the cached profiles. Both must report the same per-DPU profiles, y
 * and phase times, for every semiring the engines use, with x cached
 * in WRAM and read from MRAM. Since x changes, a cache that kept the
 * first launch's outputs fails; since the DPUs' profiles differ, so
 * does one that ignores the DPU index.
 */

#include <memory>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "../upmem/expect_profile.hh"
#include "common/random.hh"
#include "core/spmv.hh"
#include "sparse/generators.hh"

using namespace alphapim;
using namespace alphapim::core;

namespace
{

/** Keeps the last launch's per-DPU profiles and how often each DPU
 * was recorded; asks for every DPU's traces or for nothing. */
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
        std::lock_guard<std::mutex> lock(mutex_);
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
        std::lock_guard<std::mutex> lock(mutex_);
        last = profiles;
    }

    std::vector<unsigned> recorded; ///< onDpuTraces calls per DPU
    std::vector<upmem::DpuProfile> last;

  private:
    const bool traces_;
    std::mutex mutex_;
};

constexpr unsigned testDpus = 16;
constexpr unsigned launches = 4;

/** A scale-free 600-vertex graph. */
const sparse::CooMatrix<float> &
testGraph()
{
    static const sparse::CooMatrix<float> adj = [] {
        Rng rng(11);
        return sparse::edgeListToSymmetricCoo(
            sparse::generateScaleMatched(600, 8, 30, rng));
    }();
    return adj;
}

/** Launch `launch`'s input: a different set of vertices each time. */
template <Semiring S>
sparse::SparseVector<typename S::Value>
inputOf(unsigned launch)
{
    sparse::SparseVector<typename S::Value> x(testGraph().numRows());
    for (NodeId v = launch; v < testGraph().numRows(); v += 2 + launch)
        x.append(v, S::one());
    return x;
}

/** Every result field two equal launches share. */
template <typename V>
void
expectSameResult(const MxvResult<V> &want, const MxvResult<V> &got,
                 const std::string &label)
{
    EXPECT_EQ(got.y, want.y) << label;
    EXPECT_EQ(got.outputNnz, want.outputNnz) << label;
    EXPECT_EQ(got.semiringOps, want.semiringOps) << label;
    EXPECT_EQ(got.times.load, want.times.load) << label;
    EXPECT_EQ(got.times.kernel, want.times.kernel) << label;
    EXPECT_EQ(got.times.retrieve, want.times.retrieve) << label;
    EXPECT_EQ(got.times.merge, want.times.merge) << label;
    EXPECT_EQ(got.profile.maxCycles, want.profile.maxCycles) << label;
    EXPECT_EQ(got.profile.aggregate.totalCycles,
              want.profile.aggregate.totalCycles)
        << label;
}

/** Kernel K launched on both systems, `launches` times. */
template <Semiring S, typename K>
void
expectCachedProfilesMatch(const upmem::SystemConfig &cfg,
                          const std::string &memory)
{
    using Value = typename S::Value;
    const auto traced = std::make_shared<ProfileKeeper>(true);
    const auto untraced = std::make_shared<ProfileKeeper>(false);
    const upmem::UpmemSystem traced_sys(cfg, {traced});
    const upmem::UpmemSystem untraced_sys(cfg, {untraced});
    const K a(traced_sys, testGraph(), testDpus);
    const K b(untraced_sys, testGraph(), testDpus);

    std::vector<Value> first_y;
    for (unsigned launch = 0; launch < launches; ++launch) {
        const std::string label = std::string(b.name()) + memory +
                                  " launch " + std::to_string(launch);
        const auto x = inputOf<S>(launch);
        const MxvResult<Value> want = a.run(x);
        const MxvResult<Value> got = b.run(x);
        expectSameResult(want, got, label);
        ASSERT_EQ(traced->last.size(), testDpus) << label;
        ASSERT_EQ(untraced->last.size(), testDpus) << label;
        for (unsigned d = 0; d < testDpus; ++d) {
            upmem::expectSameProfile(traced->last[d], untraced->last[d],
                                     label + " dpu " + std::to_string(d));
            EXPECT_EQ(traced->recorded[d], 1u) << label << " dpu " << d;
            // Only the first launch records; the rest take the cache.
            EXPECT_EQ(untraced->recorded[d], launch == 0 ? 1u : 0u)
                << label << " dpu " << d;
        }
        if (launch == 0) {
            first_y = want.y;
        } else {
            EXPECT_NE(want.y, first_y) << label << ": x must change y";
        }
    }
    // The DPUs' profiles differ, so a cache that hands one DPU's
    // profile to another cannot match.
    bool differ = false;
    for (unsigned d = 1; d < testDpus; ++d)
        differ = differ || traced->last[d].totalCycles !=
                               traced->last[0].totalCycles;
    EXPECT_TRUE(differ) << b.name() << memory;
}

/** Every SpMV kernel under S, with x cached in WRAM (the default
 * WRAM) and read from MRAM (a 256-byte WRAM). */
template <Semiring S>
void
expectCachedProfilesMatch()
{
    for (const Bytes wram : {upmem::DpuConfig{}.wramBytes, Bytes{256}}) {
        upmem::SystemConfig cfg;
        cfg.numDpus = testDpus;
        cfg.dpu.wramBytes = wram;
        const std::string memory =
            wram == 256 ? " x in MRAM" : " x in WRAM";
        expectCachedProfilesMatch<S, SpmvDcoo2d<S>>(cfg, memory);
        expectCachedProfilesMatch<S, SpmvCoo1d<S>>(cfg, memory);
        expectCachedProfilesMatch<S, SpmvCooRow1d<S>>(cfg, memory);
        expectCachedProfilesMatch<S, SpmvCsrRow1d<S>>(cfg, memory);
    }
}

} // namespace

TEST(CachedSpmvProfiles, BoolOrAnd)
{
    expectCachedProfilesMatch<BoolOrAnd>();
}

TEST(CachedSpmvProfiles, MinPlus)
{
    expectCachedProfilesMatch<MinPlus>();
}

TEST(CachedSpmvProfiles, PlusTimes)
{
    expectCachedProfilesMatch<PlusTimes>();
}

TEST(CachedSpmvProfiles, IntPlusTimes)
{
    expectCachedProfilesMatch<IntPlusTimes>();
}

TEST(CachedSpmvProfiles, MinSelect)
{
    expectCachedProfilesMatch<MinSelect>();
}

TEST(CachedSpmvProfiles, BitsOrAnd)
{
    expectCachedProfilesMatch<BitsOrAnd>();
}

TEST(CachedSpmvProfiles, MinPlusLanes8)
{
    expectCachedProfilesMatch<MinPlusLanes<8>>();
}

TEST(CachedSpmvProfiles, RacingFirstLaunchesKeepOneSet)
{
    // Two threads make a fresh kernel's first launch at once: each
    // replays, one set is kept, and every launch matches a system
    // that records every DPU.
    upmem::SystemConfig cfg;
    cfg.numDpus = testDpus;
    const auto traced = std::make_shared<ProfileKeeper>(true);
    const upmem::UpmemSystem traced_sys(cfg, {traced});
    const upmem::UpmemSystem sys(cfg);
    const SpmvDcoo2d<PlusTimes> reference(traced_sys, testGraph(),
                                          testDpus);
    const SpmvDcoo2d<PlusTimes> kernel(sys, testGraph(), testDpus);

    std::vector<MxvResult<float>> want;
    for (unsigned launch = 0; launch < 3; ++launch)
        want.push_back(reference.run(inputOf<PlusTimes>(launch)));

    MxvResult<float> first, second;
    std::thread one([&] { first = kernel.run(inputOf<PlusTimes>(0)); });
    std::thread two([&] { second = kernel.run(inputOf<PlusTimes>(1)); });
    one.join();
    two.join();
    expectSameResult(want[0], first, "racing launch 0");
    expectSameResult(want[1], second, "racing launch 1");
    expectSameResult(want[2], kernel.run(inputOf<PlusTimes>(2)),
                     "cached launch");
}
