/**
 * @file
 * Differential tests of RevolverScheduler against the reference
 * replayer (reference_replayer.hh), the timing model written by its
 * definition. Every DpuProfile field must match on the fuzz corpus,
 * on the golden corpus at every tasklet count and configuration
 * variant, and on per-DPU traces captured from real launches of all
 * nine kernel variants.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/random.hh"
#include "core/kernels.hh"
#include "expect_profile.hh"
#include "reference_replayer.hh"
#include "scheduler_corpus.hh"
#include "sparse/generators.hh"
#include "upmem/launch_observer.hh"
#include "upmem/scheduler.hh"
#include "upmem/upmem_system.hh"

using namespace alphapim;
using namespace alphapim::upmem;

namespace
{

void
expectMatchesReference(const DpuConfig &cfg,
                       const std::vector<TaskletTrace> &traces,
                       const std::string &label)
{
    expectSameProfile(referenceReplay(cfg, traces),
                      RevolverScheduler(cfg).run(traces), label);
}

/** Keeps every DPU's traces and replayed profile of each launch. */
class LaunchRecorder : public LaunchObserver
{
  public:
    unsigned requirements() const override { return TracesOfEveryDpu; }

    struct Launch
    {
        std::string kernel;
        DpuConfig cfg;
        std::vector<std::vector<TaskletTrace>> traces; ///< per DPU
        std::vector<DpuProfile> profiles;              ///< per DPU
    };

    void
    onLaunchBegin(const LaunchInfo & /*info*/, unsigned num_dpus) override
    {
        pending_.assign(num_dpus, {});
    }

    /** Concurrent calls write distinct DPU slots. */
    void
    onDpuTraces(unsigned dpu, const std::vector<TaskletTrace> &traces,
                const DpuConfig & /*cfg*/) override
    {
        pending_[dpu] = traces;
    }

    void
    onLaunchEnd(const LaunchInfo &info,
                const std::vector<DpuProfile> &profiles,
                const DpuConfig &cfg) override
    {
        launches.push_back({info.kernel, cfg, std::move(pending_), profiles});
        pending_.clear();
    }

    std::vector<Launch> launches;

  private:
    std::vector<std::vector<TaskletTrace>> pending_;
};

constexpr core::KernelVariant allVariants[] = {
    core::KernelVariant::SpmspvCoo,    core::KernelVariant::SpmspvCsr,
    core::KernelVariant::SpmspvCscR,   core::KernelVariant::SpmspvCscC,
    core::KernelVariant::SpmspvCsc2d,  core::KernelVariant::SpmvCoo1d,
    core::KernelVariant::SpmvCooRow1d, core::KernelVariant::SpmvCsrRow1d,
    core::KernelVariant::SpmvDcoo2d,
};

/** One launch of every kernel variant under semiring S, with a
 * quarter of the input entries set. */
template <core::Semiring S>
void
launchAllVariants(const UpmemSystem &sys, const sparse::CooMatrix<float> &a)
{
    sparse::SparseVector<typename S::Value> x(a.numRows());
    for (NodeId i = 0; i < a.numRows(); i += 4)
        x.append(i, static_cast<typename S::Value>(1 + i % 7));
    for (const auto variant : allVariants)
        core::makeKernel<S>(variant, sys, a, sys.numDpus())->run(x);
}

} // namespace

TEST(SchedulerReference, MatchesOnFuzzCorpus)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        for (unsigned tasklets : {1u, 3u, 8u, 16u}) {
            DpuConfig cfg;
            cfg.tasklets = tasklets;
            expectMatchesReference(cfg, randomTraces(seed, tasklets),
                                   "seed " + std::to_string(seed) +
                                       " tasklets " +
                                       std::to_string(tasklets));
        }
    }
}

TEST(SchedulerReference, MatchesOnGoldenCorpus)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (unsigned tasklets : goldenTasklets) {
            const auto traces = goldenTraces(seed, tasklets);
            for (unsigned variant = 0; variant < goldenVariants;
                 ++variant) {
                expectMatchesReference(
                    goldenConfig(variant, tasklets), traces,
                    "seed " + std::to_string(seed) + " tasklets " +
                        std::to_string(tasklets) + " variant " +
                        std::to_string(variant));
            }
        }
    }
}

TEST(SchedulerReference, MatchesOnKernelTraces)
{
    auto recorder = std::make_shared<LaunchRecorder>();
    SystemConfig cfg;
    cfg.numDpus = 16;
    const UpmemSystem sys(cfg, {recorder});
    Rng rng(5);
    const auto a = sparse::edgeListToSymmetricCoo(
        sparse::generateScaleMatched(1000, 10, 30, rng));
    launchAllVariants<core::PlusTimes>(sys, a);
    launchAllVariants<core::IntPlusTimes>(sys, a);

    ASSERT_EQ(recorder->launches.size(), 2 * std::size(allVariants));
    for (const auto &launch : recorder->launches) {
        std::uint64_t instructions = 0;
        for (unsigned d = 0; d < launch.traces.size(); ++d) {
            expectSameProfile(referenceReplay(launch.cfg, launch.traces[d]),
                              launch.profiles[d],
                              launch.kernel + " dpu " + std::to_string(d));
            instructions += launch.profiles[d].totalInstructions();
        }
        EXPECT_GT(instructions, 0u) << launch.kernel;
    }
}
