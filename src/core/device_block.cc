#include "device_block.hh"

#include <algorithm>

#include "common/logging.hh"

namespace alphapim::core
{

namespace
{

/** The range of every index of `part`'s extent: rangeOf() as a table. */
std::vector<unsigned>
rangeTable(const Partition1d &part, NodeId extent)
{
    ALPHA_ASSERT(part.begin(0) == 0 && part.end(part.parts() - 1) == extent,
                 "partition does not cover the matrix");
    std::vector<unsigned> table(extent);
    for (unsigned p = 0; p < part.parts(); ++p) {
        std::fill(table.begin() + part.begin(p), table.begin() + part.end(p),
                  p);
    }
    return table;
}

} // namespace

std::pair<std::size_t, std::size_t>
DeviceBlock::colRange(NodeId c) const
{
    ALPHA_ASSERT(order == BlockOrder::ColMajor,
                 "colRange requires a column-major block");
    const auto first = std::lower_bound(colIdx.begin(), colIdx.end(), c);
    const auto last = std::upper_bound(first, colIdx.end(), c);
    return {static_cast<std::size_t>(first - colIdx.begin()),
            static_cast<std::size_t>(last - colIdx.begin())};
}

Bytes
DeviceBlock::mramBytes() const
{
    Bytes bytes = static_cast<Bytes>(nnz()) *
                  (2 * sizeof(NodeId) + sizeof(float));
    if (order == BlockOrder::ColMajor) {
        // Device keeps a colPtr array for O(1) column location.
        bytes += static_cast<Bytes>(cols + 1) * sizeof(EdgeId);
    }
    return bytes;
}

std::vector<DeviceBlock>
buildRowBlocks(const sparse::CooMatrix<float> &coo,
               const Partition1d &rows, BlockOrder order)
{
    // A grid of one tile column.
    return buildGridBlocks(
        coo, {rows.parts(), 1, rows, uniformPartition(coo.numCols(), 1)},
        order);
}

std::vector<DeviceBlock>
buildColBlocks(const sparse::CooMatrix<float> &coo,
               const Partition1d &cols)
{
    // A grid of one tile row.
    return buildGridBlocks(
        coo, {1, cols.parts(), uniformPartition(coo.numRows(), 1), cols},
        BlockOrder::ColMajor);
}

std::vector<DeviceBlock>
buildGridBlocks(const sparse::CooMatrix<float> &coo, const Grid2d &grid,
                BlockOrder order)
{
    std::vector<DeviceBlock> blocks(grid.gridRows * grid.gridCols);
    for (unsigned r = 0; r < grid.gridRows; ++r) {
        for (unsigned c = 0; c < grid.gridCols; ++c) {
            DeviceBlock &b = blocks[grid.tileId(r, c)];
            b.rowBase = grid.rows.begin(r);
            b.colBase = grid.cols.begin(c);
            b.rows = grid.rows.end(r) - grid.rows.begin(r);
            b.cols = grid.cols.end(c) - grid.cols.begin(c);
            b.order = order;
        }
    }
    const std::vector<unsigned> tile_row =
        rangeTable(grid.rows, coo.numRows());
    const std::vector<unsigned> tile_col =
        rangeTable(grid.cols, coo.numCols());
    const auto tile = [&](std::size_t k) {
        return grid.tileId(tile_row[coo.rowAt(k)], tile_col[coo.colAt(k)]);
    };
    // A counting pass sizes each block's arrays exactly; one walk over
    // the entries in `order` then appends them, which leaves every
    // block in `order`.
    std::vector<std::size_t> sizes(blocks.size(), 0);
    for (std::size_t k = 0; k < coo.nnz(); ++k)
        ++sizes[tile(k)];
    for (std::size_t t = 0; t < blocks.size(); ++t) {
        blocks[t].rowIdx.reserve(sizes[t]);
        blocks[t].colIdx.reserve(sizes[t]);
        blocks[t].values.reserve(sizes[t]);
    }
    coo.forEachInOrder(order, [&](std::size_t k) {
        DeviceBlock &b = blocks[tile(k)];
        b.rowIdx.push_back(coo.rowAt(k) - b.rowBase);
        b.colIdx.push_back(coo.colAt(k) - b.colBase);
        b.values.push_back(coo.valueAt(k));
    });
    return blocks;
}

std::vector<DeviceBlock>
buildNnzSlices(const sparse::CooMatrix<float> &coo, unsigned parts)
{
    ALPHA_ASSERT(parts > 0, "nnz slicing needs at least one part");
    // Slice p holds the entries at row-major positions [first(p),
    // first(p + 1)); a slice with none keeps rowBase = rows = 0.
    const std::size_t nnz = coo.nnz();
    const auto first = [&](unsigned p) { return nnz * p / parts; };
    std::vector<DeviceBlock> blocks(parts);
    for (unsigned p = 0; p < parts; ++p) {
        DeviceBlock &b = blocks[p];
        const std::size_t size = first(p + 1) - first(p);
        b.cols = coo.numCols();
        b.rowIdx.reserve(size);
        b.colIdx.reserve(size);
        b.values.reserve(size);
    }
    std::size_t pos = 0;
    unsigned p = 0;
    coo.forEachInOrder(BlockOrder::RowMajor, [&](std::size_t k) {
        while (pos == first(p + 1))
            ++p;
        DeviceBlock &b = blocks[p];
        const NodeId r = coo.rowAt(k);
        if (b.rowIdx.empty())
            b.rowBase = r;
        b.rows = r - b.rowBase + 1;
        b.rowIdx.push_back(r - b.rowBase);
        b.colIdx.push_back(coo.colAt(k));
        b.values.push_back(coo.valueAt(k));
        ++pos;
    });
    return blocks;
}

} // namespace alphapim::core
