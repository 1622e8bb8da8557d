/**
 * @file
 * google-benchmark microbenchmarks of the simulation infrastructure
 * itself: revolver-scheduler replay throughput on long Ops runs and on
 * SpMSpV-shaped short records, trace generation, partitioned-block
 * construction, and one full SpMSpV launch. These bound the
 * wall-clock cost of the figure benches; all report wall time, since
 * a launch replays on parallelFor worker threads.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "core/kernels.hh"
#include "sparse/generators.hh"
#include "upmem/scheduler.hh"

using namespace alphapim;

namespace
{

/** Replay `traces` once per iteration; report modeled DPU cycles
 * (replay slots) per wall second, like upmem.replay_mslots_per_s. */
void
replayLoop(benchmark::State &state, const upmem::DpuConfig &cfg,
           const std::vector<upmem::TaskletTrace> &traces)
{
    const upmem::RevolverScheduler sched(cfg);
    std::uint64_t slots = 0;
    for (auto _ : state) {
        auto profile = sched.run(traces);
        benchmark::DoNotOptimize(profile.totalCycles);
        slots += profile.totalCycles;
    }
    state.counters["slots_per_second"] = benchmark::Counter(
        static_cast<double>(slots), benchmark::Counter::kIsRate);
}

void
BM_SchedulerReplay(benchmark::State &state)
{
    upmem::DpuConfig cfg;
    cfg.tasklets = 16;
    std::vector<upmem::TaskletTrace> traces(16);
    const auto ops_per_tasklet =
        static_cast<std::uint32_t>(state.range(0));
    for (auto &t : traces) {
        for (unsigned chunk = 0; chunk < 16; ++chunk) {
            t.ops(upmem::OpClass::IntAdd, ops_per_tasklet / 32);
            t.dmaRead(1024);
            t.ops(upmem::OpClass::Compare, ops_per_tasklet / 32);
        }
    }
    replayLoop(state, cfg, traces);
    state.SetItemsProcessed(state.iterations() * 16 *
                            ops_per_tasklet);
}

/**
 * The regime real kernels replay in: per edge, the SpMSpV inner loop
 * records a pair load, a multiply, the row group's mutex around an
 * addressed WRAM read-modify-write, and a loop branch, so almost every
 * dispatch takes the per-instruction path.
 */
void
BM_SchedulerReplayShortRecords(benchmark::State &state)
{
    upmem::DpuConfig cfg;
    cfg.tasklets = 16;
    std::vector<upmem::TaskletTrace> traces(16);
    const auto edges_per_tasklet =
        static_cast<std::uint32_t>(state.range(0));
    Rng rng(4);
    for (auto &t : traces) {
        for (std::uint32_t e = 0; e < edges_per_tasklet; ++e) {
            if (e % 8 == 0)
                t.dmaRead(64);
            const auto group =
                static_cast<std::uint32_t>(rng.nextBounded(8));
            const auto slot = 4 * rng.nextBounded(1024);
            t.ops(upmem::OpClass::LoadWram, 2);
            t.ops(upmem::OpClass::IntMul, 1);
            t.mutexLock(group);
            t.wramAccess(upmem::OpClass::LoadWram, 1, slot, 4);
            t.ops(upmem::OpClass::IntAdd, 1);
            t.wramAccess(upmem::OpClass::StoreWram, 1, slot, 4);
            t.mutexUnlock(group);
            t.ops(upmem::OpClass::Control, 1);
        }
    }
    replayLoop(state, cfg, traces);
    state.SetItemsProcessed(state.iterations() * 16 *
                            edges_per_tasklet);
}

void
BM_SpmspvLaunch(benchmark::State &state)
{
    Rng rng(1);
    const auto list = sparse::generateScaleMatched(
        static_cast<NodeId>(state.range(0)), 10, 30, rng);
    const auto adj = sparse::edgeListToSymmetricCoo(list);
    upmem::SystemConfig sys_cfg;
    sys_cfg.numDpus = 64;
    const upmem::UpmemSystem sys(sys_cfg);
    const core::CscSpmspv<core::IntPlusTimes> kernel(
        sys, adj, 64, core::CscMode::Grid);

    sparse::SparseVector<std::uint32_t> x(adj.numRows());
    for (NodeId i = 0; i < adj.numRows(); i += 10)
        x.append(i, 1u);

    for (auto _ : state) {
        auto result = kernel.run(x);
        benchmark::DoNotOptimize(result.outputNnz);
    }
    state.SetItemsProcessed(state.iterations() * adj.nnz());
}

void
BM_GridPartitioning(benchmark::State &state)
{
    Rng rng(2);
    const auto list = sparse::generateScaleMatched(
        static_cast<NodeId>(state.range(0)), 10, 30, rng);
    const auto adj = sparse::edgeListToSymmetricCoo(list);
    for (auto _ : state) {
        const auto grid = core::makeGrid2d(adj, 256);
        auto blocks = core::buildGridBlocks(
            adj, grid, core::BlockOrder::ColMajor);
        benchmark::DoNotOptimize(blocks.size());
    }
    state.SetItemsProcessed(state.iterations() * adj.nnz());
}

void
BM_DatasetGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        Rng rng(3);
        const auto list = sparse::generateScaleMatched(
            static_cast<NodeId>(state.range(0)), 12, 40, rng);
        benchmark::DoNotOptimize(list.edges.size());
    }
}

} // namespace

BENCHMARK(BM_SchedulerReplay)->Arg(1 << 10)->Arg(1 << 14)->UseRealTime();
BENCHMARK(BM_SchedulerReplayShortRecords)->Arg(1 << 8)->Arg(1 << 11)
    ->UseRealTime();
BENCHMARK(BM_SpmspvLaunch)->Arg(5'000)->Arg(20'000)->UseRealTime();
BENCHMARK(BM_GridPartitioning)->Arg(20'000)->UseRealTime();
BENCHMARK(BM_DatasetGeneration)->Arg(50'000)->UseRealTime();

BENCHMARK_MAIN();
