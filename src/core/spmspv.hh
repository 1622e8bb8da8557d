/**
 * @file
 * SpMSpV kernel implementations for the simulated UPMEM system
 * (paper section 4.1): COO and CSR row-wise variants, and the CSC
 * family (CSC-R row-wise, CSC-C column-wise, CSC-2D grid).
 *
 * Every variant executes the product functionally on the host while
 * recording, per DPU and tasklet, the instruction trace the
 * equivalent UPMEM C kernel would issue; phase times follow
 * DESIGN.md section 4.
 */

#ifndef ALPHA_PIM_CORE_SPMSPV_HH
#define ALPHA_PIM_CORE_SPMSPV_HH

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "common/logging.hh"
#include "core/device_block.hh"
#include "core/kernel_base.hh"
#include "core/partition.hh"
#include "telemetry/host_prof.hh"
#include "upmem/scheduler.hh"
#include "upmem/tasklet_ctx.hh"

namespace alphapim::core
{

/** Partitioning mode of the CSC SpMSpV family. */
enum class CscMode
{
    RowWise, ///< CSC-R: row partition, broadcast input vector
    ColWise, ///< CSC-C: column partition, full-length partial outputs
    Grid,    ///< CSC-2D: tiles, partitioned input and output
};

/**
 * CSC-format SpMSpV: iterate the *active* columns named by the sparse
 * input vector; skip everything else. The paper's efficient family.
 */
template <Semiring S>
class CscSpmspv : public PimMxvKernel<S>
{
  public:
    using Value = typename S::Value;
    /// Compressed (index, value) bytes of one x/y entry.
    static constexpr Bytes kVecPair = detail::vecPairBytes<Value>;
    /// Padded stride of one value in the MRAM accumulator image.
    static constexpr std::uint64_t kAccStride =
        detail::valueStride<Value>;
    /// Scalar lanes one value carries (ops charged per lane).
    static constexpr std::uint32_t kLanes = semiringLanes<S>();
    /// WRAM words loaded to bring one value into registers.
    static constexpr std::uint32_t kValueWords =
        detail::valueWords<Value>;

    /**
     * Build the partitioned device image.
     *
     * @param sys  simulated system
     * @param a    square adjacency matrix (values as the app set them)
     * @param dpus DPUs to use
     * @param mode partitioning strategy
     */
    CscSpmspv(const upmem::UpmemSystem &sys,
              const sparse::CooMatrix<float> &a, unsigned dpus,
              CscMode mode)
        : sys_(sys), dpus_(dpus), mode_(mode), n_(a.numRows())
    {
        ALPHA_ASSERT(a.numRows() == a.numCols(),
                     "adjacency matrix must be square");
        telemetry::HostPhaseTimer host_timer(
            telemetry::HostPhase::PartitionBuild);
        switch (mode_) {
          case CscMode::RowWise:
            blocks_ = buildRowBlocks(a, makeRowPartition(a, dpus_),
                                     BlockOrder::ColMajor);
            break;
          case CscMode::ColWise:
            blocks_ = buildColBlocks(a, makeColPartition(a, dpus_));
            break;
          case CscMode::Grid:
            grid_ = makeGrid2d(a, dpus_);
            blocks_ = buildGridBlocks(a, grid_, BlockOrder::ColMajor);
            break;
        }
        indexColumns();
        // A system whose observers want every DPU's traces simulates
        // idle DPUs too, so it would never take a cached profile.
        if (!(sys_.requirements() &
              upmem::LaunchObserver::TracesOfEveryDpu))
            cacheIdleProfiles();
    }

    /** What a launch on some x asks of each DPU. */
    struct Activity
    {
        /// Per DPU, the range of x's entries in its column range.
        std::vector<std::pair<std::size_t, std::size_t>> slices;
        /// Per DPU, its updates: the block entries in the columns x
        /// names, each one multiply-add of runOneDpu. 0 = idle.
        std::vector<std::uint64_t> updates;
    };

    /**
     * Each DPU's x slice and update count, from the column index: x's
     * slices take one binary search pair per distinct column range,
     * and the counts one pass over the index entries of x's columns,
     * so the pass never visits an idle DPU's block.
     */
    Activity
    activity(const sparse::SparseVector<Value> &x) const
    {
        ALPHA_ASSERT(x.dim() == n_, "input vector dimension mismatch");
        const auto &idx = x.indices();
        std::vector<std::pair<std::size_t, std::size_t>> range_slices(
            colRanges_.size());
        for (std::size_t r = 0; r < colRanges_.size(); ++r) {
            const auto [base, cols] = colRanges_[r];
            const auto lo = std::lower_bound(idx.begin(), idx.end(), base);
            const auto hi = std::lower_bound(lo, idx.end(), base + cols);
            range_slices[r] = {
                static_cast<std::size_t>(lo - idx.begin()),
                static_cast<std::size_t>(hi - idx.begin())};
        }
        Activity act;
        act.slices.resize(blocks_.size());
        for (std::size_t d = 0; d < blocks_.size(); ++d)
            act.slices[d] = range_slices[rangeOf_[d]];
        act.updates.assign(blocks_.size(), 0);
        for (const NodeId c : idx) {
            for (std::uint32_t k = colStart_[c]; k < colStart_[c + 1]; ++k)
                act.updates[shares_[k].dpu] += shares_[k].entries;
        }
        return act;
    }

    MxvResult<Value>
    run(const sparse::SparseVector<Value> &x) const override
    {
        ALPHA_ASSERT(x.dim() == n_, "input vector dimension mismatch");

        // -------- Load phase: distribute the compressed x --------
        const Bytes x_bytes =
            static_cast<Bytes>(x.nnz()) * kVecPair;
        const Activity act = activity(x);
        std::vector<Bytes> load_bytes(blocks_.size());
        for (std::size_t d = 0; d < blocks_.size(); ++d) {
            load_bytes[d] = static_cast<Bytes>(act.slices[d].second -
                                               act.slices[d].first) *
                            kVecPair;
        }
        // A DPU without an update replays to its cached idle profile
        // and leaves its slot empty; the others go to the pool
        // heaviest first.
        KnownSlots<Value> idle;
        if (!idleOf_.empty()) {
            idle.profiles.resize(blocks_.size());
            for (std::size_t d = 0; d < blocks_.size(); ++d) {
                if (act.updates[d] == 0)
                    idle.profiles[d] = &idleProfiles_[idleOf_[d]];
            }
            idle.weights = act.updates;
        }
        const Seconds load =
            mode_ == CscMode::RowWise
                ? sys_.transfer().broadcast(x_bytes, dpus_)
                : sys_.transfer().scatterGather(
                      load_bytes, upmem::TransferDirection::HostToDpu);

        return launchMxv<S>(
            sys_, this->name(), blocks_, n_, load,
            [&](unsigned dpu, std::vector<upmem::TaskletTrace> &tr,
                DpuSlot<Value> &out) {
                runOneDpu(dpu, x, act.slices[dpu], act.updates[dpu],
                          tr, out);
            },
            [this](Bytes retrieved, std::uint64_t merge_ops) {
                // CSC-R's row slices are disjoint: nothing to merge.
                if (mode_ == CscMode::RowWise)
                    return Seconds{0.0};
                return sys_.host().mergeTime(
                    static_cast<Bytes>(n_) * sizeof(Value) + retrieved,
                    merge_ops);
            },
            std::move(idle));
    }

    const char *
    name() const override
    {
        switch (mode_) {
          case CscMode::RowWise:
            return "CSC-R";
          case CscMode::ColWise:
            return "CSC-C";
          case CscMode::Grid:
            return "CSC-2D";
        }
        return "CSC";
    }

    KernelKind kind() const override { return KernelKind::SpMSpV; }

    NodeId numRows() const override { return n_; }

    Bytes
    matrixBytes() const override
    {
        Bytes total = 0;
        for (const auto &b : blocks_)
            total += b.mramBytes();
        return total;
    }

    /** Grid shape (valid in Grid mode). */
    const Grid2d &grid() const { return grid_; }

    /** The per-DPU blocks, one DPU each. */
    const std::vector<DeviceBlock> &blocks() const { return blocks_; }

  private:
    /** True when `block`'s output accumulator fits in WRAM. */
    bool
    wramAccumulates(const DeviceBlock &block) const
    {
        return static_cast<Bytes>(block.rows) * sizeof(Value) <=
               detail::wramOutputBudget(sys_.config().dpu);
    }

    /**
     * Build the column index: for each global column, the DPUs whose
     * block has entries in it, in DPU order, and how many. One pass
     * over the blocks' column runs counts each column's DPUs, a second
     * fills them in: O(nnz + n), 8 B per (column, block) pair.
     */
    void
    indexColumns()
    {
        const auto forEachRun = [this](const auto &visit) {
            for (std::size_t d = 0; d < blocks_.size(); ++d) {
                const DeviceBlock &b = blocks_[d];
                for (std::size_t e = 0; e < b.nnz();) {
                    std::size_t end = e + 1;
                    while (end < b.nnz() && b.colIdx[end] == b.colIdx[e])
                        ++end;
                    visit(static_cast<std::uint32_t>(d),
                          b.colBase + b.colIdx[e],
                          static_cast<std::uint32_t>(end - e));
                    e = end;
                }
            }
        };
        // A column's pairs are at most its entries.
        EdgeId entries = 0;
        for (const DeviceBlock &b : blocks_)
            entries += b.nnz();
        ALPHA_ASSERT(entries <= ~std::uint32_t{0},
                     "column index outgrows 32-bit offsets");
        colStart_.assign(static_cast<std::size_t>(n_) + 1, 0);
        forEachRun([&](std::uint32_t, NodeId col, std::uint32_t) {
            ++colStart_[col + 1];
        });
        std::partial_sum(colStart_.begin(), colStart_.end(),
                         colStart_.begin());
        shares_.resize(colStart_[n_]);
        // colStart_[c] is column c's fill cursor, which leaves it at
        // column c + 1's start; shift the starts back afterwards.
        forEachRun([&](std::uint32_t d, NodeId col, std::uint32_t len) {
            shares_[colStart_[col]++] = {d, len};
        });
        std::copy_backward(colStart_.begin(), colStart_.end() - 1,
                           colStart_.end());
        colStart_[0] = 0;

        // The blocks' distinct column ranges: one for CSC-R, one per
        // DPU for CSC-C, one per grid column for CSC-2D.
        std::map<std::pair<NodeId, NodeId>, std::uint32_t> ranges;
        rangeOf_.resize(blocks_.size());
        for (std::size_t d = 0; d < blocks_.size(); ++d) {
            const auto [it, fresh] = ranges.try_emplace(
                {blocks_[d].colBase, blocks_[d].cols},
                static_cast<std::uint32_t>(colRanges_.size()));
            if (fresh)
                colRanges_.push_back(it->first);
            rangeOf_[d] = it->second;
        }
    }

    /**
     * Cache the profile of every DPU that gets no update. Such a
     * DPU's traces are those of runOneDpu on an empty slice: no
     * tasklet gets a column, so they depend only on the semiring, the
     * DpuConfig and the block's accumulator. That gives one profile
     * for every WRAM-accumulating block, and one per row count for
     * the MRAM-accumulating ones, each recorded by runOneDpu and
     * replayed by the launch's scheduler once.
     */
    void
    cacheIdleProfiles()
    {
        const auto &cfg = sys_.config().dpu;
        const upmem::RevolverScheduler scheduler(cfg);
        const sparse::SparseVector<Value> empty(n_);
        // Row count of an MRAM accumulator, or 0 for WRAM (an MRAM
        // accumulator has rows).
        std::map<NodeId, std::uint32_t> shapes;
        idleOf_.resize(blocks_.size());
        for (std::size_t d = 0; d < blocks_.size(); ++d) {
            const NodeId key =
                wramAccumulates(blocks_[d]) ? 0 : blocks_[d].rows;
            const auto [it, fresh] = shapes.try_emplace(
                key, static_cast<std::uint32_t>(idleProfiles_.size()));
            if (fresh) {
                std::vector<upmem::TaskletTrace> traces(cfg.tasklets);
                DpuSlot<Value> slot;
                runOneDpu(static_cast<unsigned>(d), empty, {0, 0}, 0,
                          traces, slot);
                idleProfiles_.push_back(scheduler.run(traces));
            }
            idleOf_[d] = it->second;
        }
    }

    /**
     * Emulate one DPU: split the update stream over tasklets, record
     * traces, and hand back the DPU's nonzero outputs in its slot.
     * `indexed` is the DPU's update count by the column index, which
     * must agree with its block.
     */
    void
    runOneDpu(unsigned dpu, const sparse::SparseVector<Value> &x,
              std::pair<std::size_t, std::size_t> slice,
              std::uint64_t indexed,
              std::vector<upmem::TaskletTrace> &traces,
              DpuSlot<Value> &dpu_out) const
    {
        const DeviceBlock &block = blocks_[dpu];
        const auto &cfg = sys_.config().dpu;
        const unsigned tasklets = cfg.tasklets;

        // Active columns: x nonzeros within this block's column range.
        struct ActiveCol
        {
            NodeId localCol;
            Value xval;
            std::size_t first; ///< entry range in the block
            std::size_t last;
        };
        std::vector<ActiveCol> active;
        active.reserve(slice.second - slice.first);
        std::uint64_t updates = 0;
        for (std::size_t k = slice.first; k < slice.second; ++k) {
            const NodeId local =
                x.indices()[k] - block.colBase;
            const auto [first, last] = block.colRange(local);
            active.push_back({local, x.values()[k], first, last});
            updates += last - first;
        }
        ALPHA_ASSERT(updates == indexed,
                     "column index disagrees with the block");

        // Accumulator scratch reused by every DPU this thread
        // emulates. It is all zero between DPUs and only touched rows
        // are reset, so a DPU with k updates costs O(k) host work,
        // not O(block.rows).
        thread_local std::vector<Value> row_sum;
        thread_local std::vector<std::uint8_t> row_touched;
        thread_local std::vector<NodeId> touched_rows;
        if (row_sum.size() < block.rows) {
            row_sum.resize(block.rows, S::zero());
            row_touched.resize(block.rows, 0);
        }

        const bool wram_out = wramAccumulates(block);
        const bool mram_addressed = detail::mramRegionFits(
            block.rows * (kAccStride / 8));
        const NodeId group_size = std::max<NodeId>(
            1, (block.rows + detail::outputMutexes - 1) /
                   detail::outputMutexes);

        // Whole active columns are assigned to tasklets, balanced by
        // entry count (paper section 4.1.2: thread-level workload
        // balancing by column for CSC). At low density fewer active
        // columns than tasklets leave threads unengaged -- the
        // paper's Figure 10 observation.
        struct Piece
        {
            std::size_t activeIdx;
            std::size_t first; ///< block entry offset
            std::size_t len;
        };
        std::vector<std::vector<Piece>> work(tasklets);
        {
            std::vector<EdgeId> weights(active.size());
            for (std::size_t i = 0; i < active.size(); ++i)
                weights[i] = active[i].last - active[i].first;
            const Partition1d split =
                balancedPartition(weights, tasklets);
            std::uint64_t seen = 0;
            for (unsigned t = 0; t < tasklets; ++t) {
                for (NodeId i = split.begin(t); i < split.end(t);
                     ++i) {
                    const ActiveCol &col = active[i];
                    if (col.last == col.first)
                        continue;
                    work[t].push_back(
                        {i, col.first, col.last - col.first});
                    seen += col.last - col.first;
                }
            }
            ALPHA_ASSERT(seen == updates, "update split lost entries");
        }

        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            // The tasklet's share of the compressed x slice streams
            // in sequentially ahead of the column loop.
            if (!work[t].empty()) {
                ctx.streamFromMram(
                    static_cast<Bytes>(work[t].size()) * kVecPair);
            }
            std::uint32_t held_group = ~0u;
            for (const Piece &piece : work[t]) {
                const ActiveCol &col = active[piece.activeIdx];

                // Column prologue: x value + colPtr lookup + stream.
                ctx.loadWram(kValueWords);
                ctx.randomMramRead(
                    16, detail::mramMatrixBase +
                            ((static_cast<std::uint64_t>(
                                  col.localCol) *
                              sizeof(EdgeId)) &
                             ~7ull));
                ctx.op(upmem::OpClass::IntAdd, 2);
                ctx.control(1);
                const auto mat = detail::alignedSlice(
                    detail::mramMatrixBase, piece.first,
                    piece.first + piece.len, detail::pairBytes);
                ctx.streamFromMram(static_cast<Bytes>(piece.len) *
                                       detail::pairBytes,
                                   mat.addr);

                for (std::size_t e = piece.first;
                     e < piece.first + piece.len; ++e) {
                    const NodeId row = block.rowIdx[e];
                    const Value contrib = S::mul(
                        S::fromMatrix(block.values[e]), col.xval);
                    if (!row_touched[row]) {
                        row_touched[row] = 1;
                        touched_rows.push_back(row);
                    }
                    row_sum[row] = S::add(row_sum[row], contrib);

                    ctx.loadWram(2);
                    ctx.op(S::mulOp(), kLanes);
                    const std::uint32_t group = row / group_size;
                    if (group != held_group) {
                        if (held_group != ~0u)
                            ctx.mutexUnlock(held_group);
                        ctx.mutexLock(group);
                        held_group = group;
                    }
                    if (wram_out) {
                        // Shared WRAM accumulator slot of this row,
                        // guarded by the row group's mutex.
                        const std::uint32_t slot =
                            detail::wramOutputBase +
                            static_cast<std::uint32_t>(row) *
                                static_cast<std::uint32_t>(
                                    sizeof(Value));
                        ctx.loadWramAt(slot, sizeof(Value));
                        ctx.op(S::addOp(), kLanes);
                        ctx.storeWramAt(slot, sizeof(Value));
                    } else {
                        // MRAM accumulator entry, padded to the
                        // 8-byte DMA granularity.
                        const std::uint64_t slot =
                            mram_addressed
                                ? detail::mramOutputBase +
                                      static_cast<std::uint64_t>(
                                          row) *
                                          kAccStride
                                : upmem::traceNoAddr;
                        ctx.randomMramRead(kAccStride, slot);
                        ctx.op(S::addOp(), kLanes);
                        ctx.randomMramWrite(kAccStride, slot);
                    }
                    ctx.control(1);
                }
                if (held_group != ~0u) {
                    ctx.mutexUnlock(held_group);
                    held_group = ~0u;
                }
            }
            ctx.barrier(detail::kernelBarrier);
        }

        for (const NodeId row : touched_rows) {
            if (!S::isZero(row_sum[row]))
                dpu_out.outputs.emplace_back(block.rowBase + row,
                                             row_sum[row]);
            row_sum[row] = S::zero();
            row_touched[row] = 0;
        }
        touched_rows.clear();

        // Compaction + write-back after the barrier. The WRAM-
        // accumulating kernel keeps a touched-row list at update
        // time, so compaction is proportional to the output nnz;
        // the MRAM-accumulating kernel (CSC-C on large matrices)
        // must stream and scan the whole dense partial.
        const std::uint64_t out_nnz = dpu_out.outputs.size();
        const auto out_split = detail::evenSplit(out_nnz, tasklets);
        const auto rows_split =
            detail::evenSplit(block.rows, tasklets);
        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            const auto share = static_cast<std::uint32_t>(
                out_split[t + 1] - out_split[t]);
            if (!wram_out) {
                // Scan this tasklet's slice of the stride-padded
                // MRAM accumulator (after the barrier, so ordered
                // with the update phase).
                const auto rows_share = static_cast<std::uint32_t>(
                    rows_split[t + 1] - rows_split[t]);
                const auto acc = detail::alignedSlice(
                    detail::mramOutputBase, rows_split[t],
                    rows_split[t + 1],
                    static_cast<unsigned>(kAccStride));
                if (acc.bytes > 0)
                    ctx.streamFromMram(acc.bytes,
                                       mram_addressed
                                           ? acc.addr
                                           : upmem::traceNoAddr);
                ctx.op(upmem::OpClass::Compare, rows_share * kLanes);
                ctx.control(rows_share / 4 + 1);
            } else {
                ctx.loadWram(share);
                ctx.op(upmem::OpClass::Compare, share * kLanes);
                ctx.control(share / 4 + 1);
            }
            ctx.streamToMram(static_cast<Bytes>(share) * kVecPair);
        }

        dpu_out.semiringOps = 2 * updates; // one mul + one add each
        dpu_out.retrieveBytes = static_cast<Bytes>(out_nnz) * kVecPair;
        if (mode_ != CscMode::RowWise)
            dpu_out.mergeOps = out_nnz;
    }

    const upmem::UpmemSystem &sys_;
    unsigned dpus_;
    CscMode mode_;
    NodeId n_;
    Grid2d grid_;
    std::vector<DeviceBlock> blocks_;
    /// One (column, DPU) pair of the column index.
    struct ColumnShare
    {
        std::uint32_t dpu;     ///< a DPU whose block has the column
        std::uint32_t entries; ///< its entries in the column
    };
    /// Column c's DPUs are shares_[colStart_[c], colStart_[c + 1]).
    std::vector<std::uint32_t> colStart_;
    std::vector<ColumnShare> shares_;
    /// Distinct (colBase, cols) of the blocks, and per block its own.
    std::vector<std::pair<NodeId, NodeId>> colRanges_;
    std::vector<std::uint32_t> rangeOf_;
    /// Distinct idle profiles, and per block the index of its own
    /// (both empty when the system simulates every DPU).
    std::vector<upmem::DpuProfile> idleProfiles_;
    std::vector<std::uint32_t> idleOf_;
};

/**
 * Row-major SpMSpV over COO or CSR blocks with row-wise partitioning.
 *
 * Both variants must consider the *entire* adjacency matrix and match
 * each element's column against the compressed input vector (paper
 * section 4.1), which is why they underperform the CSC family:
 *  - COO: tasklets split nonzeros evenly; every nonzero performs a
 *    binary search over the compressed x;
 *  - CSR: tasklets split rows (nnz-balanced); every nonempty row runs
 *    a two-pointer merge against the full compressed x, rescanning it
 *    per row -- the behaviour the paper measures as 2.8x-25x slower.
 */
template <Semiring S, bool UseCsr>
class RowMajorSpmspv : public PimMxvKernel<S>
{
  public:
    using Value = typename S::Value;
    /// Compressed (index, value) bytes of one x/y entry.
    static constexpr Bytes kVecPair = detail::vecPairBytes<Value>;
    /// Padded stride of one value in the MRAM accumulator image.
    static constexpr std::uint64_t kAccStride =
        detail::valueStride<Value>;
    /// Scalar lanes one value carries (ops charged per lane).
    static constexpr std::uint32_t kLanes = semiringLanes<S>();
    /// WRAM words loaded to bring one value into registers.
    static constexpr std::uint32_t kValueWords =
        detail::valueWords<Value>;

    /** Build the row-partitioned device image. */
    RowMajorSpmspv(const upmem::UpmemSystem &sys,
                   const sparse::CooMatrix<float> &a, unsigned dpus)
        : sys_(sys), dpus_(dpus), n_(a.numRows())
    {
        ALPHA_ASSERT(a.numRows() == a.numCols(),
                     "adjacency matrix must be square");
        telemetry::HostPhaseTimer host_timer(
            telemetry::HostPhase::PartitionBuild);
        blocks_ = buildRowBlocks(a, makeRowPartition(a, dpus_),
                                 BlockOrder::RowMajor);
    }

    MxvResult<Value>
    run(const sparse::SparseVector<Value> &x) const override
    {
        ALPHA_ASSERT(x.dim() == n_, "input vector dimension mismatch");

        // Row-wise partitioning broadcasts the whole compressed x.
        const Bytes x_bytes =
            static_cast<Bytes>(x.nnz()) * kVecPair;
        const Seconds load = sys_.transfer().broadcast(x_bytes, dpus_);

        // Dense image of x for O(1) functional lookups.
        const std::vector<Value> x_dense = x.toDense(S::zero());
        return launchMxv<S>(
            sys_, this->name(), blocks_, n_, load,
            [&](unsigned dpu, std::vector<upmem::TaskletTrace> &tr,
                DpuSlot<Value> &out) {
                runOneDpu(dpu, x, x_dense, tr, out);
            },
            // Row-wise partitions produce disjoint output slices.
            [](Bytes, std::uint64_t) { return Seconds{0.0}; });
    }

    const char *name() const override { return UseCsr ? "CSR" : "COO"; }

    KernelKind kind() const override { return KernelKind::SpMSpV; }

    NodeId numRows() const override { return n_; }

    Bytes
    matrixBytes() const override
    {
        Bytes total = 0;
        for (const auto &b : blocks_)
            total += b.mramBytes();
        return total;
    }

  private:
    void
    runOneDpu(unsigned dpu, const sparse::SparseVector<Value> &x,
              const std::vector<Value> &x_dense,
              std::vector<upmem::TaskletTrace> &traces,
              DpuSlot<Value> &dpu_out) const
    {
        const DeviceBlock &block = blocks_[dpu];
        const auto &cfg = sys_.config().dpu;
        const unsigned tasklets = cfg.tasklets;

        const Bytes x_bytes =
            static_cast<Bytes>(x.nnz()) * kVecPair;
        const bool x_cached =
            x_bytes <= detail::wramInputBudget(cfg);

        // Cooperative preload of the compressed x into WRAM when it
        // fits; otherwise lookups go to MRAM.
        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            if (x_cached) {
                ctx.streamFromMram(x_bytes / tasklets + 1);
                ctx.barrier(detail::kernelBarrier);
            }
        }

        if (UseCsr) {
            runCsrTasklets(block, x, x_dense, traces, dpu_out, x_cached);
        } else {
            runCooTasklets(block, x_dense, traces, dpu_out, x_cached,
                           detail::searchDepth(x.nnz()));
        }

        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            ctx.barrier(detail::kernelBarrier);
        }

        // Compact the (disjoint) output slice and write it back;
        // touched rows are tracked at update time, so the epilogue
        // is proportional to the output nnz.
        const std::uint64_t out_nnz = dpu_out.outputs.size();
        const auto out_split = detail::evenSplit(out_nnz, tasklets);
        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            const auto share = static_cast<std::uint32_t>(
                out_split[t + 1] - out_split[t]);
            ctx.loadWram(share);
            ctx.op(upmem::OpClass::Compare, share * kLanes);
            ctx.control(share / 4 + 1);
            ctx.streamToMram(static_cast<Bytes>(share) * kVecPair);
        }
        dpu_out.retrieveBytes = static_cast<Bytes>(out_nnz) * kVecPair;
    }

    /** COO flavour: nonzero-balanced tasklet split, per-entry binary
     * search of the compressed x. */
    void
    runCooTasklets(const DeviceBlock &block,
                   const std::vector<Value> &x_dense,
                   std::vector<upmem::TaskletTrace> &traces,
                   DpuSlot<Value> &dpu_out, bool x_cached,
                   unsigned probes) const
    {
        const auto &cfg = sys_.config().dpu;
        const unsigned tasklets = cfg.tasklets;
        const auto split = detail::evenSplit(block.nnz(), tasklets);

        // Entries are sorted by (row, col) and the tasklets take
        // consecutive ranges, so a row's sum is complete once the
        // next row starts.
        NodeId acc_row = invalidNode;
        Value acc = S::zero();
        const auto closeRow = [&] {
            if (acc_row != invalidNode && !S::isZero(acc))
                dpu_out.outputs.emplace_back(block.rowBase + acc_row,
                                             acc);
        };

        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            const std::size_t first = split[t];
            const std::size_t last = split[t + 1];
            if (first == last)
                continue;

            // Stream the COO slice (12 bytes per entry).
            ctx.streamFromMram((last - first) * 12);

            NodeId current_row = invalidNode;
            for (std::size_t e = first; e < last; ++e) {
                const NodeId row = block.rowIdx[e];
                const NodeId col = block.colIdx[e];
                ctx.loadWram(2);
                // Binary search of col in the compressed x.
                if (x_cached) {
                    ctx.loadWram(probes);
                    ctx.op(upmem::OpClass::Compare, probes);
                    ctx.control(probes);
                } else {
                    for (unsigned p = 0; p < probes; ++p)
                        ctx.randomMramRead(8);
                    ctx.op(upmem::OpClass::Compare, probes);
                    ctx.control(probes);
                }
                const Value xv = x_dense[col];
                if (!S::isZero(xv)) {
                    if (row != acc_row) {
                        closeRow();
                        acc_row = row;
                        acc = S::zero();
                    }
                    acc = S::add(
                        acc, S::mul(S::fromMatrix(block.values[e]), xv));
                    dpu_out.semiringOps += 2;
                    ctx.op(S::mulOp(), kLanes);
                    ctx.op(S::addOp(), kLanes);
                }
                if (row != current_row) {
                    // Row transition: flush the register accumulator.
                    ctx.storeWram(1);
                    ctx.control(1);
                    current_row = row;
                }
            }
            // Boundary rows shared with the neighbouring tasklets
            // are merged into their shared WRAM slots under the
            // *row's* mutex, so both neighbours of a straddled row
            // serialize on the same lock.
            const auto mergeBoundary = [&](NodeId row) {
                const std::uint32_t m = row % detail::outputMutexes;
                const std::uint32_t slot =
                    detail::wramOutputBase +
                    m * static_cast<std::uint32_t>(kAccStride);
                ctx.mutexLock(m);
                ctx.loadWramAt(slot, sizeof(Value));
                ctx.op(S::addOp(), kLanes);
                ctx.storeWramAt(slot, sizeof(Value));
                ctx.mutexUnlock(m);
            };
            const NodeId first_row = block.rowIdx[first];
            const NodeId last_row = block.rowIdx[last - 1];
            mergeBoundary(first_row);
            if (last_row != first_row)
                mergeBoundary(last_row);
        }
        closeRow();
    }

    /** CSR flavour: row-balanced tasklet split; each nonempty row
     * two-pointer merges against the full compressed x. */
    void
    runCsrTasklets(const DeviceBlock &block,
                   const sparse::SparseVector<Value> &x,
                   const std::vector<Value> &x_dense,
                   std::vector<upmem::TaskletTrace> &traces,
                   DpuSlot<Value> &dpu_out, bool x_cached) const
    {
        const auto &cfg = sys_.config().dpu;
        const unsigned tasklets = cfg.tasklets;

        // Row ranges per entry (block is RowMajor-sorted): row r's
        // entries are [row_start[r], row_start[r+1]).
        std::vector<std::size_t> row_start(block.rows + 1, 0);
        for (std::size_t e = 0; e < block.nnz(); ++e)
            ++row_start[block.rowIdx[e] + 1];
        for (NodeId r = 0; r < block.rows; ++r)
            row_start[r + 1] += row_start[r];

        // Balance rows by nonzero count.
        std::vector<EdgeId> weights(block.rows);
        for (NodeId r = 0; r < block.rows; ++r)
            weights[r] = row_start[r + 1] - row_start[r];
        const Partition1d rows = balancedPartition(
            weights, tasklets);

        const auto x_nnz = static_cast<std::uint32_t>(x.nnz());
        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            for (NodeId r = rows.begin(t); r < rows.end(t); ++r) {
                const std::size_t first = row_start[r];
                const std::size_t last = row_start[r + 1];
                ctx.control(2); // rowPtr bookkeeping
                if (first == last)
                    continue;
                ctx.streamFromMram((last - first) *
                                   detail::pairBytes);

                // Two-pointer merge: the row is consumed once; the
                // compressed x is rescanned from the start (the
                // paper's CSR inefficiency).
                const auto steps = static_cast<std::uint32_t>(
                    (last - first) + x_nnz);
                if (x_cached) {
                    ctx.loadWram(steps);
                } else {
                    ctx.streamFromMram(static_cast<Bytes>(x_nnz) *
                                       kVecPair);
                    ctx.loadWram(last - first);
                }
                ctx.op(upmem::OpClass::Compare, steps);
                ctx.control(steps);

                Value acc = S::zero();
                for (std::size_t e = first; e < last; ++e) {
                    const Value xv = x_dense[block.colIdx[e]];
                    if (!S::isZero(xv)) {
                        acc = S::add(
                            acc, S::mul(
                                     S::fromMatrix(block.values[e]),
                                     xv));
                        dpu_out.semiringOps += 2;
                        ctx.op(S::mulOp(), kLanes);
                        ctx.op(S::addOp(), kLanes);
                    }
                }
                if (!S::isZero(acc))
                    dpu_out.outputs.emplace_back(block.rowBase + r, acc);
                ctx.storeWram(1);
            }
        }
    }

    const upmem::UpmemSystem &sys_;
    unsigned dpus_;
    NodeId n_;
    std::vector<DeviceBlock> blocks_;
};

/** COO row-wise SpMSpV (paper's "COO" variant). */
template <Semiring S>
using CooSpmspv = RowMajorSpmspv<S, false>;

/** CSR row-wise SpMSpV (excluded from the paper's Figure 5 for being
 * 2.8x-25x slower; reproduced by bench/fig05). */
template <Semiring S>
using CsrSpmspv = RowMajorSpmspv<S, true>;

} // namespace alphapim::core

#endif // ALPHA_PIM_CORE_SPMSPV_HH
