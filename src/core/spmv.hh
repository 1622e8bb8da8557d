/**
 * @file
 * SpMV kernel implementations after SparseP's best performers
 * (paper section 3):
 *  - COO.nnz: 1D row partitioning with equal-nnz slices and a dense
 *    input vector broadcast to every DPU;
 *  - DCOO: 2D grid of equal-nnz COO tiles with dense input-vector
 *    segments per grid column.
 *
 * Both process every stored nonzero regardless of input sparsity;
 * input-vector accesses are input-driven (column indices), which is
 * the irregular pattern behind SpMV's memory stalls in Figure 9.
 */

#ifndef ALPHA_PIM_CORE_SPMV_HH
#define ALPHA_PIM_CORE_SPMV_HH

#include <algorithm>
#include <mutex>

#include "common/logging.hh"
#include "core/device_block.hh"
#include "core/kernel_base.hh"
#include "core/partition.hh"
#include "telemetry/host_prof.hh"
#include "upmem/tasklet_ctx.hh"

namespace alphapim::core
{

/** Partitioning mode of the SpMV kernels. */
enum class SpmvMode
{
    Coo1d,  ///< COO.nnz: equal-nnz row slices, broadcast dense x
    Dcoo2d, ///< DCOO: 2D tiles, dense x segments per grid column
};

/**
 * Dense-input SpMV over COO blocks.
 */
template <Semiring S>
class SpmvKernel : public PimMxvKernel<S>
{
  public:
    using Value = typename S::Value;
    /// Padded stride of one value in the MRAM dense-x image.
    static constexpr std::uint64_t kXStride =
        detail::valueStride<Value>;
    /// Padded stride of one value in the WRAM merge slots.
    static constexpr std::uint64_t kAccStride =
        detail::valueStride<Value>;
    /// Scalar lanes one value carries (ops charged per lane).
    static constexpr std::uint32_t kLanes = semiringLanes<S>();
    /// WRAM words loaded to bring one value into registers.
    static constexpr std::uint32_t kValueWords =
        detail::valueWords<Value>;

    /** Build the partitioned device image. */
    SpmvKernel(const upmem::UpmemSystem &sys,
               const sparse::CooMatrix<float> &a, unsigned dpus,
               SpmvMode mode)
        : sys_(sys), dpus_(dpus), mode_(mode), n_(a.numRows())
    {
        ALPHA_ASSERT(a.numRows() == a.numCols(),
                     "adjacency matrix must be square");
        telemetry::HostPhaseTimer host_timer(
            telemetry::HostPhase::PartitionBuild);
        if (mode_ == SpmvMode::Coo1d) {
            blocks_ = buildNnzSlices(a, dpus_);
        } else {
            grid_ = makeGrid2d(a, dpus_);
            blocks_ = buildGridBlocks(a, grid_, BlockOrder::RowMajor);
        }
    }

    MxvResult<Value>
    run(const sparse::SparseVector<Value> &x) const override
    {
        ALPHA_ASSERT(x.dim() == n_, "input vector dimension mismatch");
        MxvResult<Value> result;
        result.y.assign(n_, S::zero());

        // -------- Load phase: dense input vector --------
        const Bytes dense_bytes =
            static_cast<Bytes>(n_) * sizeof(Value);
        if (mode_ == SpmvMode::Coo1d) {
            result.times.load =
                sys_.transfer().broadcast(dense_bytes, dpus_);
        } else {
            std::vector<Bytes> seg(blocks_.size());
            for (std::size_t d = 0; d < blocks_.size(); ++d) {
                seg[d] = static_cast<Bytes>(blocks_[d].cols) *
                         sizeof(Value);
            }
            result.times.load = sys_.transfer().scatterGather(
                seg, upmem::TransferDirection::HostToDpu);
        }

        std::vector<Value> x_dense = x.toDense(S::zero());

        // -------- Kernel phase --------
        std::vector<Bytes> retrieve_bytes(blocks_.size(), 0);
        std::uint64_t merge_ops = 0;
        std::uint64_t semiring_ops = 0;
        std::mutex merge_mutex;

        const auto profile = sys_.launchKernel(
            static_cast<unsigned>(blocks_.size()),
            [&](unsigned dpu, std::vector<upmem::TaskletTrace> &tr) {
                runOneDpu(dpu, x_dense, tr, result, retrieve_bytes,
                          merge_ops, semiring_ops, merge_mutex);
            },
            {this->name(), [this] { return partitionShares(blocks_); }});
        result.profile = profile;
        result.times.kernel = sys_.kernelSeconds(profile);
        result.semiringOps = semiring_ops;

        // -------- Retrieve phase: dense output slices --------
        result.times.retrieve = sys_.transfer().scatterGather(
            retrieve_bytes, upmem::TransferDirection::DpuToHost);

        // -------- Merge phase --------
        Bytes merge_bytes = 0;
        if (mode_ == SpmvMode::Coo1d) {
            // Only slice-boundary rows need combining.
            merge_bytes = static_cast<Bytes>(dpus_) * 16;
        } else {
            merge_bytes = static_cast<Bytes>(n_) * sizeof(Value);
            for (Bytes b : retrieve_bytes)
                merge_bytes += b;
        }
        result.times.merge =
            sys_.host().mergeTime(merge_bytes, merge_ops);

        for (const Value &v : result.y) {
            if (!S::isZero(v))
                ++result.outputNnz;
        }
        return result;
    }

    const char *
    name() const override
    {
        return mode_ == SpmvMode::Coo1d ? "SpMV-COO.nnz(1D)"
                                        : "SpMV-DCOO(2D)";
    }

    KernelKind kind() const override { return KernelKind::SpMV; }

    NodeId numRows() const override { return n_; }

    Bytes
    matrixBytes() const override
    {
        Bytes total = 0;
        for (const auto &b : blocks_)
            total += b.mramBytes();
        return total;
    }

    /** Grid shape (valid in Dcoo2d mode). */
    const Grid2d &grid() const { return grid_; }

  private:
    void
    runOneDpu(unsigned dpu, const std::vector<Value> &x_dense,
              std::vector<upmem::TaskletTrace> &traces,
              MxvResult<Value> &result,
              std::vector<Bytes> &retrieve_bytes,
              std::uint64_t &merge_ops, std::uint64_t &semiring_ops,
              std::mutex &merge_mutex) const
    {
        const DeviceBlock &block = blocks_[dpu];
        const auto &cfg = sys_.config().dpu;
        const unsigned tasklets = cfg.tasklets;
        const bool mram_addressed =
            detail::mramRegionFits(n_ * (kXStride / 8));

        // The dense segment is cached in WRAM when it fits (the
        // kernel-side advantage of 2D tiling); COO.nnz keeps the full
        // vector in MRAM and pays a small DMA per access.
        const Bytes seg_bytes =
            static_cast<Bytes>(block.cols) * sizeof(Value);
        const bool x_cached =
            seg_bytes <= detail::wramInputBudget(cfg);

        std::vector<Value> partial(block.rows, S::zero());
        std::uint64_t local_ops = 0;

        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            if (x_cached) {
                const Bytes share = seg_bytes / tasklets + 1;
                ctx.streamFromMram(
                    share, (detail::mramInputBase + t * share) & ~7ull);
                ctx.barrier(detail::kernelBarrier);
            }
        }

        const auto split = detail::evenSplit(block.nnz(), tasklets);
        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            const std::size_t first = split[t];
            const std::size_t last = split[t + 1];
            if (first == last)
                continue;

            const auto mat = detail::alignedSlice(
                detail::mramMatrixBase, first, last, 12);
            ctx.streamFromMram((last - first) * 12, mat.addr);

            NodeId current_row = invalidNode;
            for (std::size_t e = first; e < last; ++e) {
                const NodeId row = block.rowIdx[e];
                const NodeId col = block.colIdx[e];
                ctx.loadWram(2);
                if (x_cached) {
                    ctx.loadWram(kValueWords);
                } else {
                    // Input-driven access into the stride-padded
                    // dense-x image.
                    ctx.randomMramRead(
                        kXStride,
                        mram_addressed
                            ? detail::mramInputBase +
                                  static_cast<std::uint64_t>(
                                      block.colBase + col) *
                                      kXStride
                            : upmem::traceNoAddr);
                }
                const Value xv = x_dense[block.colBase + col];
                partial[row] = S::add(
                    partial[row],
                    S::mul(S::fromMatrix(block.values[e]), xv));
                local_ops += 2;
                ctx.op(S::mulOp(), kLanes);
                ctx.op(S::addOp(), kLanes);
                ctx.control(1);
                if (row != current_row) {
                    ctx.storeWram(1);
                    current_row = row;
                }
            }
            // Slice-boundary rows are shared with the neighbouring
            // tasklets; each is merged into its shared WRAM slot
            // under the *row's* mutex, so both neighbours of a
            // straddled row serialize on the same lock.
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

        // Dense write-back of the output slice: disjoint, 8-byte-
        // aligned row ranges per tasklet.
        const auto rows_split =
            detail::evenSplit(block.rows, tasklets);
        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            ctx.barrier(detail::kernelBarrier);
            const auto out = detail::alignedSlice(
                detail::mramOutputBase, rows_split[t],
                rows_split[t + 1], sizeof(Value));
            if (out.bytes > 0)
                ctx.streamToMram(out.bytes, out.addr);
        }

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
            retrieve_bytes[dpu] =
                static_cast<Bytes>(block.rows) * sizeof(Value);
            if (mode_ == SpmvMode::Dcoo2d)
                merge_ops += block.rows;
            else
                merge_ops += 2;
            semiring_ops += local_ops;
        }
    }

    const upmem::UpmemSystem &sys_;
    unsigned dpus_;
    SpmvMode mode_;
    NodeId n_;
    Grid2d grid_;
    std::vector<DeviceBlock> blocks_;
};

/**
 * Row-granular 1D SpMV variants from the SparseP design space:
 * COO.row and CSR.row. Rows are distributed in equal-width ranges
 * (not nnz-balanced), so skewed graphs overload the hub DPUs -- the
 * imbalance that makes SparseP prefer COO.nnz. CSR streams 8 bytes
 * per nonzero plus the row-pointer array; COO streams 12 bytes per
 * nonzero with no row pointers.
 */
template <Semiring S, bool UseCsr>
class SpmvRow1d : public PimMxvKernel<S>
{
  public:
    using Value = typename S::Value;
    /// Padded stride of one value in the MRAM dense-x image.
    static constexpr std::uint64_t kXStride =
        detail::valueStride<Value>;
    /// Scalar lanes one value carries (ops charged per lane).
    static constexpr std::uint32_t kLanes = semiringLanes<S>();

    /** Build the row-uniform partitioned device image. */
    SpmvRow1d(const upmem::UpmemSystem &sys,
              const sparse::CooMatrix<float> &a, unsigned dpus)
        : sys_(sys), dpus_(dpus), n_(a.numRows())
    {
        ALPHA_ASSERT(a.numRows() == a.numCols(),
                     "adjacency matrix must be square");
        telemetry::HostPhaseTimer host_timer(
            telemetry::HostPhase::PartitionBuild);
        blocks_ = buildRowBlocks(a, uniformPartition(n_, dpus_),
                                 BlockOrder::RowMajor);
    }

    MxvResult<Value>
    run(const sparse::SparseVector<Value> &x) const override
    {
        ALPHA_ASSERT(x.dim() == n_, "input vector dimension mismatch");
        MxvResult<Value> result;
        result.y.assign(n_, S::zero());

        const Bytes dense_bytes =
            static_cast<Bytes>(n_) * sizeof(Value);
        result.times.load =
            sys_.transfer().broadcast(dense_bytes, dpus_);

        std::vector<Value> x_dense = x.toDense(S::zero());
        std::vector<Bytes> retrieve_bytes(blocks_.size(), 0);
        std::uint64_t semiring_ops = 0;
        std::mutex merge_mutex;

        const auto profile = sys_.launchKernel(
            static_cast<unsigned>(blocks_.size()),
            [&](unsigned dpu, std::vector<upmem::TaskletTrace> &tr) {
                runOneDpu(dpu, x_dense, tr, result, retrieve_bytes,
                          semiring_ops, merge_mutex);
            },
            {this->name(), [this] { return partitionShares(blocks_); }});
        result.profile = profile;
        result.times.kernel = sys_.kernelSeconds(profile);
        result.semiringOps = semiring_ops;

        result.times.retrieve = sys_.transfer().scatterGather(
            retrieve_bytes, upmem::TransferDirection::DpuToHost);
        // Disjoint row slices: no merging beyond the gather.
        result.times.merge = sys_.host().mergeTime(16 * dpus_, 0);

        for (const Value &v : result.y) {
            if (!S::isZero(v))
                ++result.outputNnz;
        }
        return result;
    }

    const char *
    name() const override
    {
        return UseCsr ? "SpMV-CSR.row(1D)" : "SpMV-COO.row(1D)";
    }

    KernelKind kind() const override { return KernelKind::SpMV; }

    NodeId numRows() const override { return n_; }

    Bytes
    matrixBytes() const override
    {
        Bytes total = 0;
        for (const auto &b : blocks_) {
            total += b.mramBytes();
            if (UseCsr) // row-pointer array
                total += static_cast<Bytes>(b.rows + 1) *
                         sizeof(EdgeId);
        }
        return total;
    }

  private:
    void
    runOneDpu(unsigned dpu, const std::vector<Value> &x_dense,
              std::vector<upmem::TaskletTrace> &traces,
              MxvResult<Value> &result,
              std::vector<Bytes> &retrieve_bytes,
              std::uint64_t &semiring_ops,
              std::mutex &merge_mutex) const
    {
        const DeviceBlock &block = blocks_[dpu];
        const auto &cfg = sys_.config().dpu;
        const unsigned tasklets = cfg.tasklets;

        std::vector<Value> partial(block.rows, S::zero());
        std::uint64_t local_ops = 0;

        // Row ranges per entry (block is RowMajor-sorted).
        std::vector<std::size_t> row_start(block.rows + 1, 0);
        for (std::size_t e = 0; e < block.nnz(); ++e)
            ++row_start[block.rowIdx[e] + 1];
        for (NodeId r = 0; r < block.rows; ++r)
            row_start[r + 1] += row_start[r];

        // Row-granular tasklet split: equal row counts (SparseP's
        // .row balancing), regardless of nnz.
        const bool mram_addressed =
            detail::mramRegionFits(n_ * (kXStride / 8));
        const auto rows_split =
            detail::evenSplit(block.rows, tasklets);
        for (unsigned t = 0; t < tasklets; ++t) {
            upmem::TaskletCtx ctx(cfg, traces[t]);
            const auto row_lo = static_cast<NodeId>(rows_split[t]);
            const auto row_hi =
                static_cast<NodeId>(rows_split[t + 1]);
            if (row_lo == row_hi)
                continue;
            if (UseCsr) {
                // Stream this range's row pointers once.
                const auto ptrs = detail::alignedSlice(
                    detail::mramMatrixBase, row_lo, row_hi + 1,
                    sizeof(EdgeId));
                ctx.streamFromMram(
                    static_cast<Bytes>(row_hi - row_lo + 1) *
                        sizeof(EdgeId),
                    ptrs.addr);
            }
            for (NodeId r = row_lo; r < row_hi; ++r) {
                const std::size_t first = row_start[r];
                const std::size_t last = row_start[r + 1];
                ctx.control(UseCsr ? 1 : 2);
                if (first == last)
                    continue;
                const unsigned entry_bytes =
                    UseCsr ? detail::pairBytes : 12;
                const auto mat = detail::alignedSlice(
                    detail::mramMatrixBase, first, last, entry_bytes);
                ctx.streamFromMram((last - first) * entry_bytes,
                                   mat.addr);
                Value acc = S::zero();
                for (std::size_t e = first; e < last; ++e) {
                    const NodeId col = block.colIdx[e];
                    ctx.loadWram(UseCsr ? 2 : 3);
                    // Dense x in MRAM (stride-padded image).
                    ctx.randomMramRead(
                        kXStride,
                        mram_addressed
                            ? detail::mramInputBase +
                                  static_cast<std::uint64_t>(col) *
                                      kXStride
                            : upmem::traceNoAddr);
                    acc = S::add(
                        acc, S::mul(S::fromMatrix(block.values[e]),
                                    x_dense[col]));
                    local_ops += 2;
                    ctx.op(S::mulOp(), kLanes);
                    ctx.op(S::addOp(), kLanes);
                    ctx.control(1);
                }
                partial[r] = acc;
                ctx.storeWram(1);
            }
            ctx.barrier(detail::kernelBarrier);
            // Disjoint, 8-byte-aligned write-back of the row range.
            const auto out = detail::alignedSlice(
                detail::mramOutputBase, row_lo, row_hi,
                sizeof(Value));
            if (out.bytes > 0)
                ctx.streamToMram(out.bytes, out.addr);
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
                static_cast<Bytes>(block.rows) * sizeof(Value);
            semiring_ops += local_ops;
        }
    }

    const upmem::UpmemSystem &sys_;
    unsigned dpus_;
    NodeId n_;
    std::vector<DeviceBlock> blocks_;
};

/** SparseP COO.row: row-granular 1D COO SpMV. */
template <Semiring S>
using SpmvCooRow1d = SpmvRow1d<S, false>;

/** SparseP CSR.row: row-granular 1D CSR SpMV. */
template <Semiring S>
using SpmvCsrRow1d = SpmvRow1d<S, true>;

/** SparseP COO.nnz, the best 1D SpMV. */
template <Semiring S>
class SpmvCoo1d : public SpmvKernel<S>
{
  public:
    /** @copydoc SpmvKernel::SpmvKernel */
    SpmvCoo1d(const upmem::UpmemSystem &sys,
              const sparse::CooMatrix<float> &a, unsigned dpus)
        : SpmvKernel<S>(sys, a, dpus, SpmvMode::Coo1d)
    {
    }
};

/** SparseP DCOO, the best 2D SpMV (ALPHA-PIM's dense-side kernel). */
template <Semiring S>
class SpmvDcoo2d : public SpmvKernel<S>
{
  public:
    /** @copydoc SpmvKernel::SpmvKernel */
    SpmvDcoo2d(const upmem::UpmemSystem &sys,
               const sparse::CooMatrix<float> &a, unsigned dpus)
        : SpmvKernel<S>(sys, a, dpus, SpmvMode::Dcoo2d)
    {
    }
};

} // namespace alphapim::core

#endif // ALPHA_PIM_CORE_SPMV_HH
