/**
 * @file
 * Shared machinery of the PIM matrix-vector kernels: the abstract
 * kernel interface used by applications and benches, the launch
 * skeleton every kernel runs (Kernel -> Retrieve -> Merge over
 * per-DPU output slots), work-splitting helpers, and the WRAM
 * budgeting rules that decide whether a kernel accumulates its output
 * (or caches its input vector) in scratchpad or in MRAM.
 */

#ifndef ALPHA_PIM_CORE_KERNEL_BASE_HH
#define ALPHA_PIM_CORE_KERNEL_BASE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/device_block.hh"
#include "core/phase_times.hh"
#include "core/semiring.hh"
#include "sparse/partition_shares.hh"
#include "sparse/sparse_vector.hh"
#include "telemetry/host_prof.hh"
#include "upmem/upmem_system.hh"

namespace alphapim::core
{

/**
 * Export the partitioner's per-DPU assignment in the kernel-agnostic
 * form the imbalance observatory joins with per-DPU profiles. Kernels
 * pass it to UpmemSystem::launchKernel as the lazily evaluated
 * LaunchInfo::shares of each launch, so it is only computed when an
 * attached LaunchObserver asks for it.
 */
std::vector<sparse::PartitionShare>
partitionShares(const std::vector<DeviceBlock> &blocks);

/** Which matrix-vector kernel family an implementation belongs to. */
enum class KernelKind
{
    SpMSpV, ///< compressed input vector
    SpMV,   ///< dense input vector
};

/**
 * Abstract PIM matrix-vector kernel y = A (*) x over a semiring.
 *
 * Implementations own the partitioned device image of A (built once,
 * amortized over iterations, and excluded from phase timing exactly
 * as the paper does) and model every launch's Load / Kernel /
 * Retrieve / Merge phases.
 */
template <Semiring S>
class PimMxvKernel
{
  public:
    using Value = typename S::Value;

    virtual ~PimMxvKernel() = default;

    /** Multiply against input vector x (compressed form). */
    virtual MxvResult<Value>
    run(const sparse::SparseVector<Value> &x) const = 0;

    /** Paper-style variant name ("CSC-2D", "COO", ...). */
    virtual const char *name() const = 0;

    /** SpMSpV or SpMV. */
    virtual KernelKind kind() const = 0;

    /** Number of matrix rows ( == columns for adjacency matrices). */
    virtual NodeId numRows() const = 0;

    /** Total modeled MRAM footprint of the partitioned matrix. */
    virtual Bytes matrixBytes() const = 0;
};

/** What one DPU hands back from a launch. Only that DPU's launch
 * worker writes it. */
template <typename V>
struct DpuSlot
{
    /** Nonzero outputs as (global row, value), at most one per row. */
    std::vector<std::pair<NodeId, V>> outputs;
    Bytes retrieveBytes = 0;       ///< bytes the Retrieve phase gathers
    std::uint64_t mergeOps = 0;    ///< host operations Merge charges
    std::uint64_t semiringOps = 0; ///< semiring add+mul performed
};

/** What a kernel knows of a launch's DPUs before it runs (see
 * upmem::KnownProfiles). */
template <typename V>
struct KnownSlots
{
    /** Empty, or per DPU the profile it replays to; null for the
     * DPUs to record and replay. */
    std::vector<const upmem::DpuProfile *> profiles;

    /** Empty, or compute(dpu, slot): a known DPU's body over a null
     * trace sink, which fills its slot. Without it a known DPU (an
     * idle one) leaves its slot empty. */
    std::function<void(unsigned, DpuSlot<V> &)> compute;

    /** Empty, or per DPU its work: the pool runs the heaviest first
     * (upmem::KnownProfiles::weights). */
    std::vector<std::uint64_t> weights;
};

/**
 * The host Merge step: add every slot's outputs into `y` in DPU
 * order. The order is fixed, so floating-point sums do not depend on
 * how the DPUs were spread over host threads.
 */
template <Semiring S>
void
foldSlots(const std::vector<DpuSlot<typename S::Value>> &slots,
          std::vector<typename S::Value> &y)
{
    for (const auto &slot : slots) {
        for (const auto &[row, value] : slot.outputs)
            y[row] = S::add(y[row], value);
    }
}

/**
 * Run one launch of a kernel whose Load the caller has charged:
 * Kernel (`body` on every DPU), then Merge (foldSlots, on this
 * thread) and the Retrieve and Merge charges.
 *
 * @param kernel     variant name reported to the launch observers
 * @param blocks     the kernel's per-DPU blocks, one DPU each
 * @param n          output dimension
 * @param load       the Load phase's modeled time
 * @param body       body(dpu, traces, slot): emulate DPU `dpu`,
 *                   record its tasklet traces and fill its own slot
 * @param merge_cost merge_cost(retrieved_bytes, merge_ops): the
 *                   kernel's modeled Merge time over all slots
 * @param known      the DPUs whose profiles the kernel knows, which
 *                   launchKernel may take instead of recording and
 *                   replaying them
 * @param profiles   null, or receives every DPU's profile
 */
template <Semiring S, typename Body, typename MergeCost>
MxvResult<typename S::Value>
launchMxv(const upmem::UpmemSystem &sys, const char *kernel,
          const std::vector<DeviceBlock> &blocks, NodeId n, Seconds load,
          const Body &body, const MergeCost &merge_cost,
          KnownSlots<typename S::Value> known = {},
          std::vector<upmem::DpuProfile> *profiles = nullptr)
{
    MxvResult<typename S::Value> result;
    result.times.load = load;
    std::vector<DpuSlot<typename S::Value>> slots(blocks.size());
    upmem::KnownProfiles launch_known{std::move(known.profiles), {},
                                      std::move(known.weights)};
    if (known.compute) {
        launch_known.compute = [&](unsigned dpu) {
            known.compute(dpu, slots[dpu]);
        };
    }
    result.profile = sys.launchKernel(
        static_cast<unsigned>(blocks.size()),
        [&](unsigned dpu, std::vector<upmem::TaskletTrace> &traces) {
            body(dpu, traces, slots[dpu]);
        },
        {kernel, [&blocks] { return partitionShares(blocks); }},
        launch_known, profiles);
    result.times.kernel = sys.kernelSeconds(result.profile);

    result.y.assign(n, S::zero());
    {
        telemetry::HostPhaseTimer host_timer(
            telemetry::HostPhase::HostMerge);
        foldSlots<S>(slots, result.y);
    }

    std::vector<Bytes> retrieve_bytes(slots.size());
    Bytes retrieved = 0;
    std::uint64_t merge_ops = 0;
    for (std::size_t d = 0; d < slots.size(); ++d) {
        retrieve_bytes[d] = slots[d].retrieveBytes;
        retrieved += slots[d].retrieveBytes;
        merge_ops += slots[d].mergeOps;
        result.semiringOps += slots[d].semiringOps;
    }
    result.times.retrieve = sys.transfer().scatterGather(
        retrieve_bytes, upmem::TransferDirection::DpuToHost);
    result.times.merge = merge_cost(retrieved, merge_ops);

    for (const auto &v : result.y) {
        if (!S::isZero(v))
            ++result.outputNnz;
    }
    return result;
}

/**
 * Every DPU's profile of a kernel whose traces depend only on its
 * blocks, the semiring's op classes and the DpuConfig, never on the
 * launch's input (the SpMV kernels), kept from its first launch.
 *
 * That launch records and replays every DPU as usual and keeps the
 * profiles; every later one takes them as known and runs only the
 * DPUs' functional bodies, over a null trace sink. This is exact: a
 * replay is a pure function of the traces and the DpuConfig. A system
 * whose observers want every DPU's traces, or no replay, neither
 * fills nor uses it.
 *
 * run() is const and may be called from two threads at once: racing
 * first launches each replay, and only the first set kept stays.
 */
class FirstLaunchProfiles
{
  public:
    FirstLaunchProfiles() = default;
    FirstLaunchProfiles(const FirstLaunchProfiles &) = delete;
    FirstLaunchProfiles &operator=(const FirstLaunchProfiles &) = delete;
    ~FirstLaunchProfiles() { delete kept_.load(); }

    /**
     * launchMxv, with every DPU known once a first launch kept its
     * profiles. `body(dpu, traces, slot)` must take a vector of
     * TaskletTraces and upmem::NullTraces alike.
     */
    template <Semiring S, typename Body, typename MergeCost>
    MxvResult<typename S::Value>
    launch(const upmem::UpmemSystem &sys, const char *kernel,
           const std::vector<DeviceBlock> &blocks, NodeId n,
           Seconds load, const Body &body,
           const MergeCost &merge_cost) const
    {
        using V = typename S::Value;
        if (sys.requirements() &
            (upmem::LaunchObserver::TracesOfEveryDpu |
             upmem::LaunchObserver::NoReplay))
            return launchMxv<S>(sys, kernel, blocks, n, load, body,
                                merge_cost);
        if (const auto *kept = kept_.load()) {
            KnownSlots<V> known;
            known.profiles.reserve(kept->size());
            for (const upmem::DpuProfile &profile : *kept)
                known.profiles.push_back(&profile);
            known.compute = [&body](unsigned dpu, DpuSlot<V> &slot) {
                upmem::NullTraces traces;
                body(dpu, traces, slot);
            };
            return launchMxv<S>(sys, kernel, blocks, n, load, body,
                                merge_cost, std::move(known));
        }
        std::vector<upmem::DpuProfile> profiles;
        auto result = launchMxv<S>(sys, kernel, blocks, n, load, body,
                                   merge_cost, {}, &profiles);
        auto *fresh =
            new std::vector<upmem::DpuProfile>(std::move(profiles));
        const std::vector<upmem::DpuProfile> *none = nullptr;
        if (!kept_.compare_exchange_strong(none, fresh))
            delete fresh;
        return result;
    }

  private:
    mutable std::atomic<const std::vector<upmem::DpuProfile> *> kept_{
        nullptr};
};

namespace detail
{

/** Compressed (index, value) pair size in MRAM. The matrix slice is
 * always stored with float values, so matrix streams use this
 * constant regardless of the semiring. */
inline constexpr Bytes pairBytes = sizeof(NodeId) + sizeof(float);

/** Compressed (index, value) pair size for vector entries of value
 * type V -- equals pairBytes for every 4-byte semiring, and grows
 * with the lane count for batched values. */
template <typename V>
inline constexpr Bytes vecPairBytes = sizeof(NodeId) + sizeof(V);

/** Stride of one value of type V in the padded MRAM input/output
 * images: the 8-byte DMA granularity, or the value size once it
 * exceeds it. 8 for every 4-byte semiring. */
template <typename V>
inline constexpr std::uint64_t valueStride =
    (sizeof(V) + 7ull) & ~7ull;

/** WRAM words (4 B) holding one value of type V; the register loads
 * a kernel charges to bring one value into play. */
template <typename V>
inline constexpr std::uint32_t valueWords = (sizeof(V) + 3) / 4;

/** Number of hardware mutexes used for output-group locking. */
inline constexpr unsigned outputMutexes = 32;

/** Barrier id used for the end-of-kernel rendezvous. */
inline constexpr std::uint32_t kernelBarrier = 0;

// ---- Modeled device address layout --------------------------------
//
// The kernels annotate their traces with the address ranges an
// equivalent hand-written UPMEM kernel would touch, so the
// pim-verify analyzer (a LaunchObserver in src/analysis/) can check
// them against the execution model. The layout is deliberately simple: per-DPU MRAM
// holds the matrix slice at the bottom, the (padded, stride-8) input
// vector image in a middle region, and the (padded, stride-8) output
// image in a top region; WRAM reserves its first wramChunkBytes for
// the streaming staging buffer and accumulates output above it.

/** MRAM base of the partitioned matrix slice. */
inline constexpr std::uint64_t mramMatrixBase = 0;

/** MRAM base of the input-vector image (stride-8 padded entries). */
inline constexpr std::uint64_t mramInputBase = 32ull << 20;

/** MRAM base of the output image (stride-8 padded entries). */
inline constexpr std::uint64_t mramOutputBase = 48ull << 20;

/** WRAM address of the shared output accumulator / merge area. */
inline constexpr std::uint32_t wramOutputBase = 0x4000;

/** True when `elems` stride-8 entries fit a 16 MiB MRAM region, i.e.
 * the layout above can address them; kernels fall back to
 * unaddressed records otherwise. */
inline constexpr bool
mramRegionFits(std::uint64_t elems)
{
    return elems * 8 <= (16ull << 20);
}

/**
 * The 8-byte-aligned MRAM byte range backing elements [lo, hi) of a
 * packed array at `base`. Both ends are aligned *down*, so the
 * slices of consecutive [lo,hi) ranges stay disjoint -- exactly the
 * discipline a real UPMEM kernel needs for its write-back DMA, whose
 * transfers move whole 8-byte units.
 */
struct AlignedSlice
{
    std::uint64_t addr;
    Bytes bytes;
};

inline AlignedSlice
alignedSlice(std::uint64_t base, std::uint64_t lo, std::uint64_t hi,
             unsigned elem_bytes)
{
    const std::uint64_t begin = (base + lo * elem_bytes) & ~7ull;
    const std::uint64_t end = (base + hi * elem_bytes) & ~7ull;
    return {begin, end > begin ? end - begin : 0};
}

/** WRAM budget available for output accumulation. */
inline Bytes
wramOutputBudget(const upmem::DpuConfig &cfg)
{
    return cfg.wramBytes / 2;
}

/** WRAM budget available for caching the input vector. */
inline Bytes
wramInputBudget(const upmem::DpuConfig &cfg)
{
    return cfg.wramBytes / 4;
}

/**
 * Split `total` items into `parts` contiguous ranges of near-equal
 * size; returns the starts array (length parts + 1).
 */
std::vector<std::uint64_t> evenSplit(std::uint64_t total,
                                     unsigned parts);

/** ceil(log2(n + 1)): probe count of a binary search over n items. */
unsigned searchDepth(std::uint64_t n);

} // namespace detail

} // namespace alphapim::core

#endif // ALPHA_PIM_CORE_KERNEL_BASE_HH
