/** @file Device block builders: coverage, rebasing, ordering, and
 * equality with the blocks a comparison sort builds. */

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/device_block.hh"
#include "sparse/generators.hh"

using namespace alphapim;
using namespace alphapim::core;

namespace
{

sparse::CooMatrix<float>
testMatrix(std::uint64_t seed = 2)
{
    Rng rng(seed);
    const auto list = sparse::generateErdosRenyi(200, 900, rng);
    const auto pattern = sparse::edgeListToSymmetricCoo(list);
    return sparse::assignSymmetricWeights(pattern, 1, 9, rng);
}

/** Sum of block nnz must equal the matrix nnz (no loss, no dup). */
std::size_t
totalNnz(const std::vector<DeviceBlock> &blocks)
{
    std::size_t total = 0;
    for (const auto &b : blocks)
        total += b.nnz();
    return total;
}

/** Rebuild global (row, col, val) triples from blocks and compare. */
std::multiset<std::tuple<NodeId, NodeId, float>>
globalEntries(const std::vector<DeviceBlock> &blocks)
{
    std::multiset<std::tuple<NodeId, NodeId, float>> entries;
    for (const auto &b : blocks) {
        for (std::size_t k = 0; k < b.nnz(); ++k) {
            entries.insert({b.rowBase + b.rowIdx[k],
                            b.colBase + b.colIdx[k], b.values[k]});
        }
    }
    return entries;
}

std::multiset<std::tuple<NodeId, NodeId, float>>
matrixEntries(const sparse::CooMatrix<float> &m)
{
    std::multiset<std::tuple<NodeId, NodeId, float>> entries;
    for (std::size_t k = 0; k < m.nnz(); ++k)
        entries.insert({m.rowAt(k), m.colAt(k), m.valueAt(k)});
    return entries;
}

/** `m`'s entries in a seeded random order. */
sparse::CooMatrix<float>
shuffled(const sparse::CooMatrix<float> &m, std::uint64_t seed)
{
    std::vector<std::size_t> order(m.nnz());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    sparse::CooMatrix<float> out(m.numRows(), m.numCols());
    for (const std::size_t k : order)
        out.addEntry(m.rowAt(k), m.colAt(k), m.valueAt(k));
    return out;
}

/** The reference order: a comparison sort through an index
 * permutation by (row, col), or by (col, row) for ColMajor. */
std::vector<std::size_t>
comparisonOrder(const std::vector<NodeId> &rows,
                const std::vector<NodeId> &cols, BlockOrder order)
{
    const auto &major = order == BlockOrder::RowMajor ? rows : cols;
    const auto &minor = order == BlockOrder::RowMajor ? cols : rows;
    std::vector<std::size_t> perm(rows.size());
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
        return std::tie(major[a], minor[a]) < std::tie(major[b], minor[b]);
    });
    return perm;
}

/**
 * The reference builder for row, column and grid blocks: bin every
 * entry, in input order, into the tile whose row range and column
 * range hold it, then sort each block by comparison.
 */
std::vector<DeviceBlock>
comparisonSortBlocks(const sparse::CooMatrix<float> &m,
                     const Partition1d &rows, const Partition1d &cols,
                     BlockOrder order)
{
    std::vector<DeviceBlock> blocks(rows.parts() * cols.parts());
    for (unsigned r = 0; r < rows.parts(); ++r) {
        for (unsigned c = 0; c < cols.parts(); ++c) {
            DeviceBlock &b = blocks[r * cols.parts() + c];
            b.rowBase = rows.begin(r);
            b.colBase = cols.begin(c);
            b.rows = rows.end(r) - rows.begin(r);
            b.cols = cols.end(c) - cols.begin(c);
            b.order = order;
        }
    }
    for (std::size_t k = 0; k < m.nnz(); ++k) {
        DeviceBlock &b = blocks[rows.rangeOf(m.rowAt(k)) * cols.parts() +
                                cols.rangeOf(m.colAt(k))];
        b.rowIdx.push_back(m.rowAt(k) - b.rowBase);
        b.colIdx.push_back(m.colAt(k) - b.colBase);
        b.values.push_back(m.valueAt(k));
    }
    for (DeviceBlock &b : blocks) {
        const DeviceBlock unsorted = b;
        const auto perm =
            comparisonOrder(unsorted.rowIdx, unsorted.colIdx, order);
        for (std::size_t i = 0; i < perm.size(); ++i) {
            b.rowIdx[i] = unsorted.rowIdx[perm[i]];
            b.colIdx[i] = unsorted.colIdx[perm[i]];
            b.values[i] = unsorted.values[perm[i]];
        }
    }
    return blocks;
}

/** The reference COO.nnz slicing: a comparison-sorted copy of the
 * matrix cut into `parts` runs of equal length. */
std::vector<DeviceBlock>
comparisonSortSlices(const sparse::CooMatrix<float> &m, unsigned parts)
{
    const auto perm =
        comparisonOrder(m.rowIndices(), m.colIndices(), BlockOrder::RowMajor);
    std::vector<DeviceBlock> blocks(parts);
    const std::size_t nnz = m.nnz();
    for (unsigned p = 0; p < parts; ++p) {
        const std::size_t first = nnz * p / parts;
        const std::size_t last = nnz * (p + 1) / parts;
        DeviceBlock &b = blocks[p];
        b.cols = m.numCols();
        if (first == last)
            continue;
        b.rowBase = m.rowAt(perm[first]);
        b.rows = m.rowAt(perm[last - 1]) - b.rowBase + 1;
        for (std::size_t i = first; i < last; ++i) {
            b.rowIdx.push_back(m.rowAt(perm[i]) - b.rowBase);
            b.colIdx.push_back(m.colAt(perm[i]));
            b.values.push_back(m.valueAt(perm[i]));
        }
    }
    return blocks;
}

/** Field-by-field equality, and no spare capacity in any array. */
void
expectSameBlocks(const std::vector<DeviceBlock> &actual,
                 const std::vector<DeviceBlock> &expected)
{
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t p = 0; p < actual.size(); ++p) {
        SCOPED_TRACE("block " + std::to_string(p));
        const DeviceBlock &a = actual[p];
        const DeviceBlock &e = expected[p];
        EXPECT_EQ(a.rowBase, e.rowBase);
        EXPECT_EQ(a.colBase, e.colBase);
        EXPECT_EQ(a.rows, e.rows);
        EXPECT_EQ(a.cols, e.cols);
        EXPECT_EQ(a.order, e.order);
        EXPECT_EQ(a.rowIdx, e.rowIdx);
        EXPECT_EQ(a.colIdx, e.colIdx);
        EXPECT_EQ(a.values, e.values);
        EXPECT_EQ(a.rowIdx.capacity(), a.rowIdx.size());
        EXPECT_EQ(a.colIdx.capacity(), a.colIdx.size());
        EXPECT_EQ(a.values.capacity(), a.values.size());
    }
}

} // namespace

TEST(DeviceBlocks, BuildersMatchComparisonSortFromAnyOrder)
{
    const auto coalesced = testMatrix();
    const std::pair<const char *, sparse::CooMatrix<float>> inputs[] = {
        {"coalesced", coalesced},
        {"shuffled", shuffled(coalesced, 5)},
    };
    for (const auto &[name, m] : inputs) {
        SCOPED_TRACE(name);
        const Partition1d all_rows = uniformPartition(m.numRows(), 1);
        const Partition1d all_cols = uniformPartition(m.numCols(), 1);
        const Partition1d rows = makeRowPartition(m, 9);
        const Partition1d cols = makeColPartition(m, 6);
        const Grid2d grid = makeGrid2d(m, 12);
        for (const BlockOrder order :
             {BlockOrder::RowMajor, BlockOrder::ColMajor}) {
            SCOPED_TRACE(order == BlockOrder::RowMajor ? "row-major"
                                                       : "column-major");
            expectSameBlocks(buildRowBlocks(m, rows, order),
                             comparisonSortBlocks(m, rows, all_cols, order));
            expectSameBlocks(
                buildGridBlocks(m, grid, order),
                comparisonSortBlocks(m, grid.rows, grid.cols, order));
        }
        expectSameBlocks(buildColBlocks(m, cols),
                         comparisonSortBlocks(m, all_rows, cols,
                                              BlockOrder::ColMajor));
        // More slices than entries leaves some empty.
        for (const unsigned parts :
             {10u, static_cast<unsigned>(m.nnz()) + 3}) {
            expectSameBlocks(buildNnzSlices(m, parts),
                             comparisonSortSlices(m, parts));
        }
    }
}

TEST(DeviceBlocks, RowBlocksPreserveEveryEntry)
{
    const auto m = testMatrix();
    const auto blocks = buildRowBlocks(m, makeRowPartition(m, 9),
                                       BlockOrder::RowMajor);
    EXPECT_EQ(totalNnz(blocks), m.nnz());
    EXPECT_EQ(globalEntries(blocks), matrixEntries(m));
}

TEST(DeviceBlocks, ColBlocksPreserveEveryEntry)
{
    const auto m = testMatrix();
    const auto blocks = buildColBlocks(m, makeColPartition(m, 6));
    EXPECT_EQ(totalNnz(blocks), m.nnz());
    EXPECT_EQ(globalEntries(blocks), matrixEntries(m));
}

TEST(DeviceBlocks, GridBlocksPreserveEveryEntry)
{
    const auto m = testMatrix();
    const auto grid = makeGrid2d(m, 12);
    const auto blocks = buildGridBlocks(m, grid, BlockOrder::ColMajor);
    EXPECT_EQ(blocks.size(), 12u);
    EXPECT_EQ(totalNnz(blocks), m.nnz());
    EXPECT_EQ(globalEntries(blocks), matrixEntries(m));
}

TEST(DeviceBlocks, NnzSlicesAreBalanced)
{
    const auto m = testMatrix();
    const auto blocks = buildNnzSlices(m, 10);
    EXPECT_EQ(totalNnz(blocks), m.nnz());
    EXPECT_EQ(globalEntries(blocks), matrixEntries(m));
    for (const auto &b : blocks) {
        EXPECT_LE(b.nnz(), m.nnz() / 10 + 1);
        EXPECT_GE(b.nnz(), m.nnz() / 10);
    }
}

TEST(DeviceBlocks, ColMajorOrderingHolds)
{
    const auto m = testMatrix();
    const auto blocks = buildColBlocks(m, makeColPartition(m, 4));
    for (const auto &b : blocks) {
        for (std::size_t k = 0; k + 1 < b.nnz(); ++k) {
            const bool ordered =
                b.colIdx[k] < b.colIdx[k + 1] ||
                (b.colIdx[k] == b.colIdx[k + 1] &&
                 b.rowIdx[k] <= b.rowIdx[k + 1]);
            EXPECT_TRUE(ordered);
        }
    }
}

TEST(DeviceBlocks, ColRangeFindsColumns)
{
    const auto m = testMatrix();
    const auto blocks = buildColBlocks(m, makeColPartition(m, 4));
    for (const auto &b : blocks) {
        for (NodeId c = 0; c < b.cols; ++c) {
            const auto [first, last] = b.colRange(c);
            for (std::size_t k = first; k < last; ++k)
                EXPECT_EQ(b.colIdx[k], c);
            if (first > 0) {
                EXPECT_LT(b.colIdx[first - 1], c);
            }
            if (last < b.nnz()) {
                EXPECT_GT(b.colIdx[last], c);
            }
        }
    }
}

TEST(DeviceBlocks, MramBytesAccountsColPtr)
{
    DeviceBlock row_block;
    row_block.order = BlockOrder::RowMajor;
    row_block.cols = 100;
    DeviceBlock col_block;
    col_block.order = BlockOrder::ColMajor;
    col_block.cols = 100;
    EXPECT_GT(col_block.mramBytes(), row_block.mramBytes());
}
