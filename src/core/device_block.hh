/**
 * @file
 * Per-DPU matrix blocks. A DeviceBlock is the host-side image of the
 * matrix partition resident in one DPU's MRAM: rebased local indices,
 * sorted in the kernel's preferred major order. CSC-style kernels
 * locate a column's run with binary search, mirroring the colPtr
 * lookup the device kernel performs in MRAM. The builders sort no
 * block: they bin the matrix's entries, walked once in the blocks'
 * order by CooMatrix::forEachInOrder, into arrays sized exactly by a
 * counting pass.
 */

#ifndef ALPHA_PIM_CORE_DEVICE_BLOCK_HH
#define ALPHA_PIM_CORE_DEVICE_BLOCK_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/partition.hh"
#include "sparse/coo.hh"

namespace alphapim::core
{

/** Entry ordering inside a block: RowMajor for the COO / CSR kernels,
 * ColMajor for the CSC kernels. */
using BlockOrder = sparse::EntryOrder;

/** One DPU's share of the adjacency matrix. */
struct DeviceBlock
{
    NodeId rowBase = 0; ///< global row of local row 0
    NodeId colBase = 0; ///< global column of local column 0
    NodeId rows = 0;    ///< local row extent
    NodeId cols = 0;    ///< local column extent
    BlockOrder order = BlockOrder::RowMajor;

    std::vector<NodeId> rowIdx; ///< local row indices
    std::vector<NodeId> colIdx; ///< local column indices
    std::vector<float> values;  ///< entry values

    /** Stored nonzeros. */
    std::size_t nnz() const { return values.size(); }

    /**
     * Entry range [first, last) of local column `c`.
     * Requires ColMajor order.
     */
    std::pair<std::size_t, std::size_t> colRange(NodeId c) const;

    /**
     * Modeled MRAM footprint of this block: index/value arrays plus,
     * for ColMajor blocks, the colPtr array the device kernel keeps.
     */
    Bytes mramBytes() const;
};

/**
 * Bin a COO matrix into row-wise blocks (one per partition range),
 * each spanning all columns, in the given order. The COO may hold its
 * entries in any order, as may those of the builders below.
 */
std::vector<DeviceBlock> buildRowBlocks(const sparse::CooMatrix<float> &coo,
                                        const Partition1d &rows,
                                        BlockOrder order);

/**
 * Bin a COO matrix into column-wise blocks (one per partition range),
 * each spanning all rows, in ColMajor order.
 */
std::vector<DeviceBlock> buildColBlocks(const sparse::CooMatrix<float> &coo,
                                        const Partition1d &cols);

/**
 * Bin a COO matrix into a 2D grid of tiles (row-major tile id), in
 * the given order.
 */
std::vector<DeviceBlock> buildGridBlocks(
    const sparse::CooMatrix<float> &coo, const Grid2d &grid,
    BlockOrder order);

/**
 * Split a COO matrix, taken in row-major order, into `parts` equal-nnz
 * slices (SparseP's COO.nnz scheme): slice boundaries may fall inside
 * a row.
 */
std::vector<DeviceBlock> buildNnzSlices(const sparse::CooMatrix<float> &coo,
                                        unsigned parts);

} // namespace alphapim::core

#endif // ALPHA_PIM_CORE_DEVICE_BLOCK_HH
