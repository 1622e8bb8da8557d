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
#include <memory>
#include <mutex>

#include "common/logging.hh"
#include "core/device_block.hh"
#include "core/kernel_base.hh"
#include "core/partition.hh"
#include "telemetry/host_prof.hh"
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
    }

    MxvResult<Value>
    run(const sparse::SparseVector<Value> &x) const override
    {
        ALPHA_ASSERT(x.dim() == n_, "input vector dimension mismatch");
        MxvResult<Value> result;
        result.y.assign(n_, S::zero());

        // -------- Load phase: distribute the compressed x --------
        const Bytes x_bytes =
            static_cast<Bytes>(x.nnz()) * kVecPair;
        std::vector<std::pair<std::size_t, std::size_t>> x_slices(
            blocks_.size());
        std::vector<Bytes> load_bytes(blocks_.size(), 0);
        for (std::size_t d = 0; d < blocks_.size(); ++d) {
            const DeviceBlock &b = blocks_[d];
            const auto lo = std::lower_bound(x.indices().begin(),
                                             x.indices().end(),
                                             b.colBase) -
                            x.indices().begin();
            const auto hi = std::lower_bound(x.indices().begin(),
                                             x.indices().end(),
                                             b.colBase + b.cols) -
                            x.indices().begin();
            x_slices[d] = {static_cast<std::size_t>(lo),
                           static_cast<std::size_t>(hi)};
            load_bytes[d] =
                static_cast<Bytes>(hi - lo) * kVecPair;
        }
        if (mode_ == CscMode::RowWise) {
            result.times.load =
                sys_.transfer().broadcast(x_bytes, dpus_);
        } else {
            result.times.load = sys_.transfer().scatterGather(
                load_bytes, upmem::TransferDirection::HostToDpu);
        }

        // -------- Kernel phase --------
        std::vector<Bytes> retrieve_bytes(blocks_.size(), 0);
        std::uint64_t merge_ops = 0;
        std::uint64_t semiring_ops = 0;
        std::mutex merge_mutex;

        const auto profile = sys_.launchKernel(
            static_cast<unsigned>(blocks_.size()),
            [&](unsigned dpu, std::vector<upmem::TaskletTrace> &tr) {
                runOneDpu(dpu, x, x_slices[dpu], tr, result,
                          retrieve_bytes, merge_ops, semiring_ops,
                          merge_mutex);
            },
            {this->name(), [this] { return partitionShares(blocks_); }});
        result.profile = profile;
        result.times.kernel = sys_.kernelSeconds(profile);
        result.semiringOps = semiring_ops;

        // -------- Retrieve phase --------
        result.times.retrieve = sys_.transfer().scatterGather(
            retrieve_bytes, upmem::TransferDirection::DpuToHost);

        // -------- Merge phase --------
        if (mode_ != CscMode::RowWise) {
            Bytes merge_bytes = static_cast<Bytes>(n_) * sizeof(Value);
            for (Bytes b : retrieve_bytes)
                merge_bytes += b;
            result.times.merge =
                sys_.host().mergeTime(merge_bytes, merge_ops);
        }

        for (const Value &v : result.y) {
            if (!S::isZero(v))
                ++result.outputNnz;
        }
        return result;
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

  private:
    /**
     * Emulate one DPU: split the update stream over tasklets, record
     * traces, accumulate the partial output, and fold it into the
     * shared result under the merge mutex.
     */
    void
    runOneDpu(unsigned dpu, const sparse::SparseVector<Value> &x,
              std::pair<std::size_t, std::size_t> slice,
              std::vector<upmem::TaskletTrace> &traces,
              MxvResult<Value> &result,
              std::vector<Bytes> &retrieve_bytes,
              std::uint64_t &merge_ops, std::uint64_t &semiring_ops,
              std::mutex &merge_mutex) const
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

        std::vector<Value> partial(block.rows, S::zero());
        const bool wram_out =
            static_cast<Bytes>(block.rows) * sizeof(Value) <=
            detail::wramOutputBudget(cfg);
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

        std::uint64_t local_ops = 0;
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
                    partial[row] = S::add(partial[row], contrib);
                    local_ops += 2;

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

        // Compaction + write-back after the barrier. The WRAM-
        // accumulating kernel keeps a touched-row list at update
        // time, so compaction is proportional to the output nnz;
        // the MRAM-accumulating kernel (CSC-C on large matrices)
        // must stream and scan the whole dense partial.
        std::uint64_t out_nnz = 0;
        for (const Value &v : partial) {
            if (!S::isZero(v))
                ++out_nnz;
        }
        const Bytes out_bytes =
            static_cast<Bytes>(out_nnz) * kVecPair;
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

        // Fold the partial into the shared output.
        {
            telemetry::HostPhaseTimer host_timer(
                telemetry::HostPhase::HostMerge);
            std::lock_guard<std::mutex> lock(merge_mutex);
            for (NodeId r = 0; r < block.rows; ++r) {
                if (!S::isZero(partial[r])) {
                    result.y[block.rowBase + r] = S::add(
                        result.y[block.rowBase + r], partial[r]);
                }
            }
            retrieve_bytes[dpu] = out_bytes;
            if (mode_ != CscMode::RowWise)
                merge_ops += out_nnz;
            semiring_ops += local_ops;
        }
    }

    const upmem::UpmemSystem &sys_;
    unsigned dpus_;
    CscMode mode_;
    NodeId n_;
    Grid2d grid_;
    std::vector<DeviceBlock> blocks_;
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
        MxvResult<Value> result;
        result.y.assign(n_, S::zero());

        // Row-wise partitioning broadcasts the whole compressed x.
        const Bytes x_bytes =
            static_cast<Bytes>(x.nnz()) * kVecPair;
        result.times.load = sys_.transfer().broadcast(x_bytes, dpus_);

        // Dense image of x for O(1) functional lookups.
        std::vector<Value> x_dense = x.toDense(S::zero());

        std::vector<Bytes> retrieve_bytes(blocks_.size(), 0);
        std::uint64_t semiring_ops = 0;
        std::mutex merge_mutex;

        const auto profile = sys_.launchKernel(
            static_cast<unsigned>(blocks_.size()),
            [&](unsigned dpu, std::vector<upmem::TaskletTrace> &tr) {
                runOneDpu(dpu, x, x_dense, tr, result, retrieve_bytes,
                          semiring_ops, merge_mutex);
            },
            {this->name(), [this] { return partitionShares(blocks_); }});
        result.profile = profile;
        result.times.kernel = sys_.kernelSeconds(profile);
        result.semiringOps = semiring_ops;

        result.times.retrieve = sys_.transfer().scatterGather(
            retrieve_bytes, upmem::TransferDirection::DpuToHost);
        // Row-wise partitions produce disjoint output slices: no merge.

        for (const Value &v : result.y) {
            if (!S::isZero(v))
                ++result.outputNnz;
        }
        return result;
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
              MxvResult<Value> &result,
              std::vector<Bytes> &retrieve_bytes,
              std::uint64_t &semiring_ops,
              std::mutex &merge_mutex) const
    {
        const DeviceBlock &block = blocks_[dpu];
        const auto &cfg = sys_.config().dpu;
        const unsigned tasklets = cfg.tasklets;

        const Bytes x_bytes =
            static_cast<Bytes>(x.nnz()) * kVecPair;
        const bool x_cached =
            x_bytes <= detail::wramInputBudget(cfg);
        const unsigned probes = detail::searchDepth(x.nnz());

        std::vector<Value> partial(block.rows, S::zero());
        std::uint64_t local_ops = 0;

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
            runCsrTasklets(block, x, x_dense, traces, partial,
                           local_ops, x_cached, probes);
        } else {
            runCooTasklets(block, x, x_dense, traces, partial,
                           local_ops, x_cached, probes);
        }

        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            ctx.barrier(detail::kernelBarrier);
        }

        // Compact the (disjoint) output slice and write it back;
        // touched rows are tracked at update time, so the epilogue
        // is proportional to the output nnz.
        std::uint64_t out_nnz = 0;
        for (const Value &v : partial) {
            if (!S::isZero(v))
                ++out_nnz;
        }
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

        {
            telemetry::HostPhaseTimer host_timer(
                telemetry::HostPhase::HostMerge);
            std::lock_guard<std::mutex> lock(merge_mutex);
            for (NodeId r = 0; r < block.rows; ++r) {
                if (!S::isZero(partial[r]))
                    result.y[block.rowBase + r] = partial[r];
            }
            retrieve_bytes[dpu] =
                static_cast<Bytes>(out_nnz) * kVecPair;
            semiring_ops += local_ops;
        }
    }

    /** COO flavour: nonzero-balanced tasklet split, per-entry binary
     * search of the compressed x. */
    void
    runCooTasklets(const DeviceBlock &block,
                   const sparse::SparseVector<Value> &x,
                   const std::vector<Value> &x_dense,
                   std::vector<upmem::TaskletTrace> &traces,
                   std::vector<Value> &partial,
                   std::uint64_t &local_ops, bool x_cached,
                   unsigned probes) const
    {
        const auto &cfg = sys_.config().dpu;
        const unsigned tasklets = cfg.tasklets;
        const auto split = detail::evenSplit(block.nnz(), tasklets);

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
                    partial[row] = S::add(
                        partial[row],
                        S::mul(S::fromMatrix(block.values[e]), xv));
                    local_ops += 2;
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
        (void)x;
    }

    /** CSR flavour: row-balanced tasklet split; each nonempty row
     * two-pointer merges against the full compressed x. */
    void
    runCsrTasklets(const DeviceBlock &block,
                   const sparse::SparseVector<Value> &x,
                   const std::vector<Value> &x_dense,
                   std::vector<upmem::TaskletTrace> &traces,
                   std::vector<Value> &partial,
                   std::uint64_t &local_ops, bool x_cached,
                   unsigned probes) const
    {
        (void)probes;
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
                        local_ops += 2;
                        ctx.op(S::mulOp(), kLanes);
                        ctx.op(S::addOp(), kLanes);
                    }
                }
                partial[r] = S::add(partial[r], acc);
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
