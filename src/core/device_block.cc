#include "device_block.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace alphapim::core
{

namespace
{

/** Sort a block's parallel arrays by the requested major order. */
void
sortBlock(DeviceBlock &block)
{
    std::vector<std::size_t> order(block.nnz());
    std::iota(order.begin(), order.end(), 0);
    if (block.order == BlockOrder::RowMajor) {
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (block.rowIdx[a] != block.rowIdx[b])
                          return block.rowIdx[a] < block.rowIdx[b];
                      return block.colIdx[a] < block.colIdx[b];
                  });
    } else {
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (block.colIdx[a] != block.colIdx[b])
                          return block.colIdx[a] < block.colIdx[b];
                      return block.rowIdx[a] < block.rowIdx[b];
                  });
    }
    std::vector<NodeId> r(block.nnz()), c(block.nnz());
    std::vector<float> v(block.nnz());
    for (std::size_t i = 0; i < order.size(); ++i) {
        r[i] = block.rowIdx[order[i]];
        c[i] = block.colIdx[order[i]];
        v[i] = block.values[order[i]];
    }
    block.rowIdx = std::move(r);
    block.colIdx = std::move(c);
    block.values = std::move(v);
}

/** Sort every block in parallel on the host. */
void
sortBlocks(std::vector<DeviceBlock> &blocks, WorkerPool &workers)
{
    workers.run(blocks.size(),
                [&](std::size_t i) { sortBlock(blocks[i]); });
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
               const Partition1d &rows, BlockOrder order,
               WorkerPool &workers)
{
    const unsigned parts = rows.parts();
    std::vector<DeviceBlock> blocks(parts);
    for (unsigned p = 0; p < parts; ++p) {
        blocks[p].rowBase = rows.begin(p);
        blocks[p].colBase = 0;
        blocks[p].rows = rows.end(p) - rows.begin(p);
        blocks[p].cols = coo.numCols();
        blocks[p].order = order;
    }
    for (std::size_t k = 0; k < coo.nnz(); ++k) {
        const unsigned p = rows.rangeOf(coo.rowAt(k));
        DeviceBlock &b = blocks[p];
        b.rowIdx.push_back(coo.rowAt(k) - b.rowBase);
        b.colIdx.push_back(coo.colAt(k));
        b.values.push_back(coo.valueAt(k));
    }
    sortBlocks(blocks, workers);
    return blocks;
}

std::vector<DeviceBlock>
buildColBlocks(const sparse::CooMatrix<float> &coo,
               const Partition1d &cols, WorkerPool &workers)
{
    const unsigned parts = cols.parts();
    std::vector<DeviceBlock> blocks(parts);
    for (unsigned p = 0; p < parts; ++p) {
        blocks[p].rowBase = 0;
        blocks[p].colBase = cols.begin(p);
        blocks[p].rows = coo.numRows();
        blocks[p].cols = cols.end(p) - cols.begin(p);
        blocks[p].order = BlockOrder::ColMajor;
    }
    for (std::size_t k = 0; k < coo.nnz(); ++k) {
        const unsigned p = cols.rangeOf(coo.colAt(k));
        DeviceBlock &b = blocks[p];
        b.rowIdx.push_back(coo.rowAt(k));
        b.colIdx.push_back(coo.colAt(k) - b.colBase);
        b.values.push_back(coo.valueAt(k));
    }
    sortBlocks(blocks, workers);
    return blocks;
}

std::vector<DeviceBlock>
buildGridBlocks(const sparse::CooMatrix<float> &coo, const Grid2d &grid,
                BlockOrder order, WorkerPool &workers)
{
    const unsigned parts = grid.gridRows * grid.gridCols;
    std::vector<DeviceBlock> blocks(parts);
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
    for (std::size_t k = 0; k < coo.nnz(); ++k) {
        const unsigned r = grid.rows.rangeOf(coo.rowAt(k));
        const unsigned c = grid.cols.rangeOf(coo.colAt(k));
        DeviceBlock &b = blocks[grid.tileId(r, c)];
        b.rowIdx.push_back(coo.rowAt(k) - b.rowBase);
        b.colIdx.push_back(coo.colAt(k) - b.colBase);
        b.values.push_back(coo.valueAt(k));
    }
    sortBlocks(blocks, workers);
    return blocks;
}

std::vector<DeviceBlock>
buildNnzSlices(const sparse::CooMatrix<float> &coo, unsigned parts)
{
    ALPHA_ASSERT(parts > 0, "nnz slicing needs at least one part");
    sparse::CooMatrix<float> sorted = coo;
    sorted.sortRowMajor();

    std::vector<DeviceBlock> blocks(parts);
    const std::size_t nnz = sorted.nnz();
    for (unsigned p = 0; p < parts; ++p) {
        const std::size_t first = nnz * p / parts;
        const std::size_t last = nnz * (p + 1) / parts;
        DeviceBlock &b = blocks[p];
        b.order = BlockOrder::RowMajor;
        b.colBase = 0;
        b.cols = sorted.numCols();
        if (first == last) {
            b.rowBase = 0;
            b.rows = 0;
            continue;
        }
        b.rowBase = sorted.rowAt(first);
        b.rows = sorted.rowAt(last - 1) - b.rowBase + 1;
        b.rowIdx.reserve(last - first);
        b.colIdx.reserve(last - first);
        b.values.reserve(last - first);
        for (std::size_t k = first; k < last; ++k) {
            b.rowIdx.push_back(sorted.rowAt(k) - b.rowBase);
            b.colIdx.push_back(sorted.colAt(k));
            b.values.push_back(sorted.valueAt(k));
        }
    }
    return blocks;
}

} // namespace alphapim::core
