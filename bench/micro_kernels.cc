/**
 * @file
 * google-benchmark microbenchmarks of the simulation infrastructure
 * itself: revolver-scheduler replay throughput on long Ops runs, on
 * SpMSpV-shaped short records with a WRAM or an MRAM accumulator, and
 * on traces captured from real CSC-2D and DCOO-2D launches (one of
 * them dense_ppr-shaped, at 2048 DPUs); trace recording of those
 * launches with replay off; the host merge fold,
 * the profile fold, the imbalance analysis and the transfer model;
 * trace generation, the CSC-2D and DCOO-2D partition builds, CSR
 * conversion, full CSC-2D and CSC-R SpMSpV launches (road_traverse-
 * shaped ones: nearly every DPU idle, or one BFS level whose busy
 * DPUs reach the worker pool), full dense_ppr-shaped DCOO-2D SpMV
 * launches (a kernel's first and a cached one), and the fixed cost of
 * dispatching an empty launch. Each host phase the profiler names has
 * a benchmark of the same name. These bound the wall-clock cost
 * of the figure benches; all report wall time, since a launch
 * replays on the system's worker pool.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/capture.hh"
#include "analysis/imbalance.hh"
#include "apps/reference_algorithms.hh"
#include "common/random.hh"
#include "core/kernels.hh"
#include "sparse/csr.hh"
#include "sparse/datasets.hh"
#include "sparse/generators.hh"
#include "upmem/profile.hh"
#include "upmem/scheduler.hh"
#include "upmem/transfer_model.hh"
#include "upmem/upmem_system.hh"

using namespace alphapim;

namespace
{

/** One trace set per DPU. */
using DpuTraces = std::vector<std::vector<upmem::TaskletTrace>>;

/** Replay every DPU's traces once per iteration; report modeled DPU
 * cycles (replay slots) per wall second, like
 * upmem.replay_mslots_per_s. */
void
replayLoop(benchmark::State &state, const upmem::DpuConfig &cfg,
           const DpuTraces &dpus)
{
    const upmem::RevolverScheduler sched(cfg);
    std::uint64_t slots = 0;
    for (auto _ : state) {
        for (const auto &traces : dpus) {
            auto profile = sched.run(traces);
            benchmark::DoNotOptimize(profile.totalCycles);
            slots += profile.totalCycles;
        }
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
    replayLoop(state, cfg, {traces});
    state.SetItemsProcessed(state.iterations() * 16 *
                            ops_per_tasklet);
}

/**
 * The regime real kernels replay in: per edge, the SpMSpV inner loop
 * records a pair load, a multiply, the row group's mutex around a
 * read-modify-write of the row's accumulator, and a loop branch, so
 * almost every dispatch takes the per-instruction path. The
 * accumulator sits in WRAM (addressed scratchpad records) or, as in
 * CSC-C on large matrices, in MRAM (one random 8-byte DMA read and
 * write per edge).
 */
void
replayEdges(benchmark::State &state, bool mram_accumulator)
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
            if (mram_accumulator) {
                t.dmaRead(8, 2 * slot);
                t.ops(upmem::OpClass::IntAdd, 1);
                t.dmaWrite(8, 2 * slot);
            } else {
                t.wramAccess(upmem::OpClass::LoadWram, 1, slot, 4);
                t.ops(upmem::OpClass::IntAdd, 1);
                t.wramAccess(upmem::OpClass::StoreWram, 1, slot, 4);
            }
            t.mutexUnlock(group);
            t.ops(upmem::OpClass::Control, 1);
        }
    }
    replayLoop(state, cfg, {traces});
    state.SetItemsProcessed(state.iterations() * 16 *
                            edges_per_tasklet);
}

void
BM_SchedulerReplayShortRecords(benchmark::State &state)
{
    replayEdges(state, false);
}

/** The DMA-bound case: the DMA waiters are the one part of the
 * scheduler's run queue it rescans, whenever one is dispatched. */
void
BM_SchedulerReplayDmaBound(benchmark::State &state)
{
    replayEdges(state, true);
}

/** The real launches the kernel-trace benchmarks time: a PlusTimes
 * kernel (arg 0 = CSC-2D, 1 = DCOO-2D) on a 20k-vertex scale-free
 * graph at 64 DPUs, with a tenth of the input entries set. Arg 2 is
 * shaped like dense_ppr's face launch: DCOO-2D at 2048 DPUs, about
 * 100 entries per DPU and a handful per tasklet. */
struct KernelLaunch
{
    core::KernelVariant variant;
    sparse::CooMatrix<float> adj;
    sparse::SparseVector<float> x;
    upmem::SystemConfig sysCfg;

    explicit KernelLaunch(const benchmark::State &state)
        : variant(state.range(0) == 0 ? core::KernelVariant::SpmspvCsc2d
                                      : core::KernelVariant::SpmvDcoo2d),
          adj(graph()), x(adj.numRows())
    {
        for (NodeId i = 0; i < adj.numRows(); i += 10)
            x.append(i, 1.0f);
        sysCfg.numDpus = state.range(0) == 2 ? 2048 : 64;
    }

    static sparse::CooMatrix<float>
    graph()
    {
        Rng rng(1);
        return sparse::edgeListToSymmetricCoo(
            sparse::generateScaleMatched(20'000, 10, 30, rng));
    }
};

/**
 * Traces of one real launch (KernelLaunch), captured once with replay
 * off and then replayed each iteration.
 */
void
BM_SchedulerReplayKernelTraces(benchmark::State &state)
{
    const KernelLaunch launch(state);
    auto capture = std::make_shared<analysis::TraceCapture>();
    const upmem::UpmemSystem sys(launch.sysCfg, {capture});
    core::makeKernel<core::PlusTimes>(launch.variant, sys, launch.adj,
                                      sys.numDpus())
        ->run(launch.x);
    auto launches = capture->take();
    if (launches.size() != 1) {
        state.SkipWithError("expected exactly one captured launch");
        return;
    }
    replayLoop(state, launch.sysCfg.dpu, launches.front().dpuTraces);
    state.SetLabel(core::kernelVariantName(launch.variant));
}

/** Counts the trace records every DPU generates, idle ones included,
 * and turns the replay off. */
class RecordCounter : public upmem::LaunchObserver
{
  public:
    unsigned
    requirements() const override
    {
        return TracesOfEveryDpu | NoReplay;
    }

    void
    onDpuTraces(unsigned /*dpu*/,
                const std::vector<upmem::TaskletTrace> &traces,
                const upmem::DpuConfig & /*cfg*/) override
    {
        std::uint64_t n = 0;
        for (const upmem::TaskletTrace &t : traces)
            n += t.records().size();
        records.fetch_add(n, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> records{0};
};

/**
 * Trace recording (HostPhase::TraceRecord): the whole real launch
 * (KernelLaunch) on a system whose only observer turns the replay
 * off, so the kernels' trace generation is nearly all of the host
 * time left. Reports trace records per second.
 */
void
BM_TraceRecord(benchmark::State &state)
{
    const KernelLaunch launch(state);
    auto counter = std::make_shared<RecordCounter>();
    const upmem::UpmemSystem sys(launch.sysCfg, {counter});
    const auto kernel = core::makeKernel<core::PlusTimes>(
        launch.variant, sys, launch.adj, sys.numDpus());
    for (auto _ : state) {
        auto result = kernel->run(launch.x);
        benchmark::DoNotOptimize(result.y.data());
    }
    state.counters["records_per_second"] = benchmark::Counter(
        static_cast<double>(counter->records.load()),
        benchmark::Counter::kIsRate);
    state.SetLabel(core::kernelVariantName(launch.variant));
}

/**
 * The host Merge step alone (HostPhase::HostMerge): foldSlots over
 * synthetic per-DPU slots shaped like the two extremes measured on
 * the end-to-end benchmark. Arg 0 is a road_traverse CSC-2D launch:
 * 256 DPUs in a 16 x 16 grid over 5.4k rows, with two outputs for
 * every three DPUs. Arg 1 is a dense_ppr DCOO-2D launch: 2048 DPUs in
 * a 32 x 64 grid over 7.3k rows, with 18 outputs each.
 */
void
BM_HostMerge(benchmark::State &state)
{
    const bool dense = state.range(0) == 1;
    const unsigned grid_rows = dense ? 32 : 16;
    const unsigned grid_cols = dense ? 64 : 16;
    const NodeId n = dense ? 7'338 : 5'400;
    Rng rng(4);
    std::vector<core::DpuSlot<float>> slots(grid_rows * grid_cols);
    std::uint64_t outputs = 0;
    for (std::size_t d = 0; d < slots.size(); ++d) {
        // A DPU's outputs fall in its grid row's row range.
        const auto tile_row = static_cast<NodeId>(d / grid_cols);
        const NodeId lo = n * tile_row / grid_rows;
        const NodeId hi = n * (tile_row + 1) / grid_rows;
        const unsigned k =
            dense ? 18 : (rng.nextBernoulli(2.0 / 3.0) ? 1 : 0);
        for (unsigned i = 0; i < k; ++i) {
            const NodeId row = lo + (hi - lo) * i / k +
                               static_cast<NodeId>(
                                   rng.nextBounded((hi - lo) / k));
            slots[d].outputs.emplace_back(
                row, static_cast<float>(rng.nextDouble()));
        }
        outputs += k;
    }
    std::vector<float> y(n, 0.0f);
    for (auto _ : state) {
        core::foldSlots<core::PlusTimes>(slots, y);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * outputs));
    state.SetLabel(dense ? "dense_ppr" : "road_traverse");
}

/** One launch's per-DPU profiles: skewed cycles, a fixed stall and
 * instruction mix, and MRAM traffic. */
std::vector<upmem::DpuProfile>
launchProfiles(std::size_t dpus)
{
    Rng rng(5);
    std::vector<upmem::DpuProfile> profiles(dpus);
    for (upmem::DpuProfile &p : profiles) {
        p.totalCycles = 20'000 + rng.nextBounded(60'000);
        p.issuedCycles = p.totalCycles / 3;
        for (auto &stall : p.stallCycles)
            stall = p.totalCycles / 8;
        for (auto &instr : p.instrByClass)
            instr = rng.nextBounded(4'000);
        p.activeThreadCycles = static_cast<double>(p.totalCycles) * 4.0;
        p.mramReadBytes = rng.nextBounded(1 << 20);
        p.mramWriteBytes = rng.nextBounded(1 << 18);
    }
    return profiles;
}

/**
 * The serial profile fold alone (HostPhase::ProfileFold):
 * LaunchProfile::add over one launch's per-DPU profiles, as
 * launchKernel folds them after replay. The arg is the DPU count.
 */
void
BM_ProfileFold(benchmark::State &state)
{
    const std::vector<upmem::DpuProfile> profiles =
        launchProfiles(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        upmem::LaunchProfile launch;
        for (const upmem::DpuProfile &p : profiles)
            launch.add(p);
        benchmark::DoNotOptimize(launch);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * profiles.size()));
}

/**
 * The imbalance analysis alone (HostPhase::Analysis): one
 * ImbalanceObserver::onLaunchEnd over a launch's per-DPU profiles,
 * joined with partition shares, with the metrics registry off. The
 * arg is the DPU count.
 */
void
BM_Analysis(benchmark::State &state)
{
    const std::vector<upmem::DpuProfile> profiles =
        launchProfiles(static_cast<std::size_t>(state.range(0)));
    Rng rng(7);
    std::vector<sparse::PartitionShare> shares(profiles.size());
    for (sparse::PartitionShare &s : shares) {
        s.rows = 100 + rng.nextBounded(50);
        s.nnz = 1'000 + rng.nextBounded(10'000);
        s.bytes = 12 * s.nnz;
    }
    const upmem::LaunchInfo info{"CSC-2D", [&] { return shares; }};
    const upmem::DpuConfig cfg;
    analysis::ImbalanceObserver observer;
    for (auto _ : state) {
        observer.beginRun(); // keep one launch, not one per iteration
        observer.onLaunchEnd(info, profiles, cfg);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * profiles.size()));
}

/**
 * The transfer cost model alone (HostPhase::TransferModel): one
 * scatterGather over per-DPU byte counts, a fifth of them empty as
 * on a sparse frontier. The arg is the DPU count.
 */
void
BM_TransferModel(benchmark::State &state)
{
    Rng rng(6);
    std::vector<Bytes> bytes(static_cast<std::size_t>(state.range(0)));
    for (Bytes &b : bytes)
        b = rng.nextBernoulli(0.2) ? 0 : 8 * (1 + rng.nextBounded(4'096));
    const upmem::TransferModel model{upmem::TransferConfig{}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.scatterGather(
            bytes, upmem::TransferDirection::HostToDpu));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes.size()));
}

/** Time kernel.run(x) of a CSC kernel in `mode` under S, on a system
 * of `dpus` DPUs without observers. */
template <core::Semiring S>
void
timeSpmspvLaunch(benchmark::State &state,
                 const sparse::CooMatrix<float> &adj, unsigned dpus,
                 core::CscMode mode,
                 const sparse::SparseVector<typename S::Value> &x,
                 const std::string &label)
{
    upmem::SystemConfig sys_cfg;
    sys_cfg.numDpus = dpus;
    const upmem::UpmemSystem sys(sys_cfg);
    const core::CscSpmspv<S> kernel(sys, adj, dpus, mode);
    for (auto _ : state) {
        auto result = kernel.run(x);
        benchmark::DoNotOptimize(result.outputNnz);
    }
    state.SetItemsProcessed(state.iterations() * adj.nnz());
    state.SetLabel(std::string(kernel.name()) + label);
}

/**
 * One full SpMSpV launch, Load to Merge, on a system without
 * observers, so DPUs that get no update take their kernel's cached
 * idle profile and the others go to the pool heaviest first. Arg 0 is
 * the vertex count of a scale-free graph at 64 DPUs with a tenth of
 * the input entries set, or 0 for a road_traverse launch: r-TX at
 * scale 0.005 on 256 DPUs. Arg 1 picks CSC-2D (0) or CSC-R (1) under
 * IntPlusTimes, on r-TX with a one-vertex frontier, where nearly every
 * DPU is idle and too few are busy to reach the pool; or (2, r-TX
 * only) CSC-2D under MinPlus with one BFS level from the lattice
 * middle as the frontier, the first of 30 or more vertices, whose
 * busy DPUs do reach the pool, so their order and hand-off show.
 */
void
BM_SpmspvLaunch(benchmark::State &state)
{
    const bool road = state.range(0) == 0;
    sparse::CooMatrix<float> adj;
    if (road) {
        adj = sparse::buildDataset("r-TX", 0.005).adjacency;
    } else {
        Rng rng(1);
        adj = sparse::edgeListToSymmetricCoo(sparse::generateScaleMatched(
            static_cast<NodeId>(state.range(0)), 10, 30, rng));
    }
    const unsigned dpus = road ? 256 : 64;
    // One vertex in the middle of the lattice, as a traversal's early
    // frontiers are.
    const NodeId middle = adj.rowAt(adj.nnz() / 2);

    if (state.range(1) == 2) {
        const auto level = apps::referenceBfs(adj, middle);
        std::vector<std::size_t> sizes;
        for (const std::uint32_t l : level) {
            if (l == invalidNode)
                continue;
            if (l >= sizes.size())
                sizes.resize(l + 1, 0);
            ++sizes[l];
        }
        std::uint32_t pick = 0;
        while (pick + 1 < sizes.size() && sizes[pick] < 30)
            ++pick;
        sparse::SparseVector<float> x(adj.numRows());
        for (NodeId v = 0; v < adj.numRows(); ++v) {
            if (level[v] == pick)
                x.append(v, static_cast<float>(pick));
        }
        timeSpmspvLaunch<core::MinPlus>(
            state, adj, dpus, core::CscMode::Grid, x,
            " r-TX, BFS level of " + std::to_string(x.nnz()));
        return;
    }

    sparse::SparseVector<std::uint32_t> x(adj.numRows());
    if (road) {
        x.append(middle, 1u);
    } else {
        for (NodeId i = 0; i < adj.numRows(); i += 10)
            x.append(i, 1u);
    }
    timeSpmspvLaunch<core::IntPlusTimes>(
        state, adj, dpus,
        state.range(1) == 0 ? core::CscMode::Grid : core::CscMode::RowWise,
        x, road ? " r-TX" : "");
}

/**
 * One full SpMV launch, Load to Merge, shaped like dense_ppr's face
 * launches: DCOO-2D PlusTimes at 2048 DPUs over face at scale 1 with
 * every input entry set, on a system without observers. Arg 0 times a
 * kernel's first launch, which records and replays every DPU and keeps
 * their profiles; each iteration builds a fresh kernel, untimed. Arg 1
 * times a later launch, which takes those profiles and runs only the
 * DPUs' functional bodies.
 */
void
BM_SpmvLaunch(benchmark::State &state)
{
    const bool first = state.range(0) == 0;
    const auto adj = sparse::buildDataset("face", 1.0).adjacency;
    upmem::SystemConfig sys_cfg;
    sys_cfg.numDpus = 2048;
    const upmem::UpmemSystem sys(sys_cfg);
    sparse::SparseVector<float> x(adj.numRows());
    for (NodeId v = 0; v < adj.numRows(); ++v)
        x.append(v, 1.0f / static_cast<float>(adj.numRows()));

    std::optional<core::SpmvDcoo2d<core::PlusTimes>> kernel;
    kernel.emplace(sys, adj, sys_cfg.numDpus);
    if (!first)
        kernel->run(x);
    for (auto _ : state) {
        if (first) {
            state.PauseTiming();
            kernel.emplace(sys, adj, sys_cfg.numDpus);
            state.ResumeTiming();
        }
        auto result = kernel->run(x);
        benchmark::DoNotOptimize(result.outputNnz);
    }
    state.SetItemsProcessed(state.iterations() * adj.nnz());
    state.SetLabel(first ? "first launch" : "cached launch");
}

/**
 * The fixed cost of one launch: launchKernel with an empty body and
 * no observers, so what is left is handing the DPUs to the system's
 * workers, their empty replays and the profile fold. The arg is the
 * DPU count.
 */
void
BM_LaunchDispatch(benchmark::State &state)
{
    upmem::SystemConfig cfg;
    cfg.numDpus = static_cast<unsigned>(state.range(0));
    const upmem::UpmemSystem sys(cfg);
    for (auto _ : state) {
        const upmem::LaunchProfile launch = sys.launchKernel(
            cfg.numDpus, [](unsigned, std::vector<upmem::TaskletTrace> &) {});
        benchmark::DoNotOptimize(launch.maxCycles);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

/** The coalesced adjacency of a scale-matched graph (about ten
 * nonzeros per vertex). */
sparse::CooMatrix<float>
benchGraph(NodeId vertices)
{
    Rng rng(2);
    const auto list = sparse::generateScaleMatched(vertices, 10, 30, rng);
    return sparse::edgeListToSymmetricCoo(list);
}

/**
 * Kernel construction alone (HostPhase::PartitionBuild): the 2D grid
 * and its blocks, the work the two PimEngine kernel constructors
 * time. Arg 0 picks the CSC-2D (column-major, 0) or the DCOO-2D
 * (row-major, 1) build; args 1 and 2 are the vertices and DPUs: 20k
 * vertices (196k nonzeros) at 256 DPUs, and serve_mix's size, 250
 * vertices (about 2.5k nonzeros) at 32 DPUs.
 */
void
BM_PartitionBuild(benchmark::State &state)
{
    const bool row_major = state.range(0) == 1;
    const auto adj = benchGraph(static_cast<NodeId>(state.range(1)));
    const auto dpus = static_cast<unsigned>(state.range(2));
    for (auto _ : state) {
        const auto grid = core::makeGrid2d(adj, dpus);
        auto blocks = core::buildGridBlocks(
            adj, grid,
            row_major ? core::BlockOrder::RowMajor
                      : core::BlockOrder::ColMajor);
        benchmark::DoNotOptimize(blocks.data());
    }
    state.SetItemsProcessed(state.iterations() * adj.nnz());
    state.SetLabel(row_major ? "DCOO-2D" : "CSC-2D");
}

/**
 * CSR conversion, which every host reference traversal (the set-up's
 * source picking) pays, on BM_PartitionBuild's 20k-vertex graph. Arg
 * 0 converts the coalesced, row-major input; arg 1 the same entries
 * in a shuffled order.
 */
void
BM_CsrFromCoo(benchmark::State &state)
{
    auto adj = benchGraph(20'000);
    if (state.range(0) == 1) {
        std::vector<std::size_t> order(adj.nnz());
        std::iota(order.begin(), order.end(), 0);
        Rng rng(3);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBounded(i)]);
        sparse::CooMatrix<float> shuffled(adj.numRows(), adj.numCols());
        for (const std::size_t k : order)
            shuffled.addEntry(adj.rowAt(k), adj.colAt(k), adj.valueAt(k));
        adj = std::move(shuffled);
    }
    for (auto _ : state) {
        const auto csr = sparse::CsrMatrix<float>::fromCoo(adj);
        benchmark::DoNotOptimize(csr.colIndices().data());
    }
    state.SetItemsProcessed(state.iterations() * adj.nnz());
    state.SetLabel(state.range(0) == 1 ? "shuffled" : "sorted");
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
BENCHMARK(BM_SchedulerReplayDmaBound)->Arg(1 << 8)->Arg(1 << 11)
    ->UseRealTime();
// 0 = CSC-2D, 1 = DCOO-2D.
BENCHMARK(BM_SchedulerReplayKernelTraces)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime();
BENCHMARK(BM_TraceRecord)->Arg(0)->Arg(1)->Arg(2)->UseRealTime();
// 0 = road_traverse-shaped slots, 1 = dense_ppr-shaped slots.
BENCHMARK(BM_HostMerge)->Arg(0)->Arg(1)->UseRealTime();
BENCHMARK(BM_ProfileFold)->Arg(256)->Arg(2048)->UseRealTime();
BENCHMARK(BM_Analysis)->Arg(256)->Arg(2048)->UseRealTime();
BENCHMARK(BM_TransferModel)->Arg(256)->Arg(2048)->UseRealTime();
// {vertices, or 0 for r-TX; CSC-2D 0 | CSC-R 1 (one frontier vertex on
// r-TX) | CSC-2D MinPlus over one r-TX BFS level 2}.
BENCHMARK(BM_SpmspvLaunch)
    ->Args({5'000, 0})
    ->Args({20'000, 0})
    ->Args({20'000, 1})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({0, 2})
    ->UseRealTime();
// 0 = a fresh kernel's first launch, 1 = a later, cached one.
BENCHMARK(BM_SpmvLaunch)->Arg(0)->Arg(1)->UseRealTime();
BENCHMARK(BM_LaunchDispatch)->Arg(32)->Arg(256)->Arg(2048)->UseRealTime();
// 0 = CSC-2D (column-major), 1 = DCOO-2D (row-major).
// {CSC-2D 0 | DCOO-2D 1, vertices, DPUs}.
BENCHMARK(BM_PartitionBuild)
    ->Args({0, 20'000, 256})
    ->Args({1, 20'000, 256})
    ->Args({0, 250, 32})
    ->Args({1, 250, 32})
    ->UseRealTime();
// 0 = sorted input, 1 = shuffled input.
BENCHMARK(BM_CsrFromCoo)->Arg(0)->Arg(1)->UseRealTime();
BENCHMARK(BM_DatasetGeneration)->Arg(50'000)->UseRealTime();

BENCHMARK_MAIN();
