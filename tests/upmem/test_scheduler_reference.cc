/**
 * @file
 * Differential tests of RevolverScheduler against the reference
 * replayer (reference_replayer.hh), the timing model written by its
 * definition. Every DpuProfile field must match on the fuzz corpus,
 * on the golden corpus at every tasklet count and configuration
 * variant, on trace sets built to end the scheduler's Ops bursts in
 * each way one can end, and on per-DPU traces captured from real
 * launches of all nine kernel variants under four semirings.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

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

/** Trace sets built so that the scheduler's Ops burst runs and then
 * has to stop, each in one way. Tasklet 0 keeps the fast path shut
 * with one-op records of alternating classes while the others run. */
std::vector<std::pair<std::string, std::vector<TaskletTrace>>>
burstStopCases(std::uint64_t seed, unsigned tasklets)
{
    Rng rng(seed);
    auto draw = [&](std::uint64_t bound) {
        return static_cast<std::uint32_t>(rng.nextBounded(bound));
    };
    constexpr OpClass aluClasses[] = {OpClass::IntAdd, OpClass::Logic,
                                      OpClass::FloatMul,
                                      OpClass::Compare};
    auto blocker = [&](TaskletTrace &trace, unsigned records) {
        for (unsigned i = 0; i < records; ++i)
            trace.ops(i % 2 ? OpClass::Move : OpClass::Control);
    };
    auto run = [&](TaskletTrace &trace, std::uint32_t ops) {
        trace.ops(aluClasses[draw(4)], ops);
    };
    std::vector<std::pair<std::string, std::vector<TaskletTrace>>> cases;

    // A DMA waiter falls due while the others burst through their runs.
    std::vector<TaskletTrace> dma_due(tasklets);
    blocker(dma_due[0], 400);
    for (unsigned t = 1; t < tasklets; ++t) {
        if (t % 3 == 1)
            dma_due[t].dmaRead(8 + 8 * draw(64));
        run(dma_due[t], 20 + draw(60));
        dma_due[t].dmaWrite(8 + 8 * draw(16));
        run(dma_due[t], 20 + draw(60));
    }
    cases.emplace_back("dma waiter falls due", std::move(dma_due));

    // A Dma, Mutex or Barrier record reaches the run queue's front.
    std::vector<TaskletTrace> kinds(tasklets);
    blocker(kinds[0], 300);
    kinds[0].barrier(0);
    for (unsigned t = 1; t < tasklets; ++t) {
        run(kinds[t], 5 + draw(30));
        kinds[t].dmaRead(8 + 8 * draw(16));
        run(kinds[t], 5 + draw(30));
        kinds[t].mutexLock(t % 2);
        kinds[t].ops(OpClass::LoadWram, 1 + draw(3));
        kinds[t].mutexUnlock(t % 2);
        run(kinds[t], 5 + draw(30));
        kinds[t].barrier(0);
        run(kinds[t], 5 + draw(30));
    }
    cases.emplace_back("non-Ops record at the front", std::move(kinds));

    // Spinners reach the front: long critical sections on one mutex.
    std::vector<TaskletTrace> spin(tasklets);
    blocker(spin[0], 200);
    for (unsigned t = 1; t < tasklets; ++t) {
        run(spin[t], 1 + draw(12));
        spin[t].mutexLock(0);
        run(spin[t], 20 + draw(40));
        spin[t].mutexUnlock(0);
        run(spin[t], 1 + draw(12));
    }
    cases.emplace_back("spinner at the front", std::move(spin));

    // The blocking count reaches zero: short records drain, then long
    // ALU runs leave the fast path open.
    std::vector<TaskletTrace> zero(tasklets);
    for (unsigned t = 0; t < tasklets; ++t) {
        blocker(zero[t], 1 + draw(3) + t % 2);
        run(zero[t], 60 + draw(200));
        blocker(zero[t], 1 + draw(2));
        run(zero[t], 60 + draw(200));
    }
    cases.emplace_back("blocking count reaches zero", std::move(zero));

    // Tasklets finish in the middle of the others' runs.
    std::vector<TaskletTrace> finish(tasklets);
    blocker(finish[0], 250);
    for (unsigned t = 1; t < tasklets; ++t) {
        run(finish[t], 1 + draw(8));
        run(finish[t], 3 + t + draw(40));
    }
    cases.emplace_back("tasklet finishes", std::move(finish));
    return cases;
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


TEST(SchedulerReference, MatchesWhereOpsBurstsStop)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (unsigned tasklets : {2u, 5u, 11u, 16u, 24u}) {
            for (const auto &[name, traces] : burstStopCases(seed, tasklets)) {
                DpuConfig cfg;
                cfg.tasklets = tasklets;
                expectMatchesReference(cfg, traces,
                                       name + " seed " +
                                           std::to_string(seed) +
                                           " tasklets " +
                                           std::to_string(tasklets));
            }
        }
    }
}

TEST(SchedulerReference, MatchesOnKernelTraces)
{
    Rng rng(5);
    const auto a = sparse::edgeListToSymmetricCoo(
        sparse::generateScaleMatched(1000, 10, 30, rng));
    // At 512 DPUs each tasklet holds one or two entries, the regime of
    // dense_ppr's 2048-DPU launches; BoolOrAnd and MinPlus are the BFS
    // and SSSP semirings, whose ops are Logic, and Compare with
    // FloatAdd.
    for (const unsigned dpus : {16u, 512u}) {
        auto recorder = std::make_shared<LaunchRecorder>();
        SystemConfig cfg;
        cfg.numDpus = dpus;
        const UpmemSystem sys(cfg, {recorder});
        launchAllVariants<core::PlusTimes>(sys, a);
        launchAllVariants<core::IntPlusTimes>(sys, a);
        launchAllVariants<core::BoolOrAnd>(sys, a);
        launchAllVariants<core::MinPlus>(sys, a);

        ASSERT_EQ(recorder->launches.size(), 4 * std::size(allVariants));
        for (const auto &launch : recorder->launches) {
            const std::string label =
                launch.kernel + " at " + std::to_string(dpus) + " DPUs";
            std::uint64_t instructions = 0;
            for (unsigned d = 0; d < launch.traces.size(); ++d) {
                expectSameProfile(
                    referenceReplay(launch.cfg, launch.traces[d]),
                    launch.profiles[d], label + " dpu " + std::to_string(d));
                instructions += launch.profiles[d].totalInstructions();
            }
            EXPECT_GT(instructions, 0u) << label;
        }
    }
}
