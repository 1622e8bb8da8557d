/** @file Device block builders: coverage, rebasing, ordering. */

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

} // namespace

TEST(DeviceBlocks, RowBlocksPreserveEveryEntry)
{
    const auto m = testMatrix();
    WorkerPool workers;
    const auto blocks = buildRowBlocks(m, makeRowPartition(m, 9),
                                       BlockOrder::RowMajor, workers);
    EXPECT_EQ(totalNnz(blocks), m.nnz());
    EXPECT_EQ(globalEntries(blocks), matrixEntries(m));
}

TEST(DeviceBlocks, ColBlocksPreserveEveryEntry)
{
    const auto m = testMatrix();
    WorkerPool workers;
    const auto blocks = buildColBlocks(m, makeColPartition(m, 6), workers);
    EXPECT_EQ(totalNnz(blocks), m.nnz());
    EXPECT_EQ(globalEntries(blocks), matrixEntries(m));
}

TEST(DeviceBlocks, GridBlocksPreserveEveryEntry)
{
    const auto m = testMatrix();
    const auto grid = makeGrid2d(m, 12);
    WorkerPool workers;
    const auto blocks =
        buildGridBlocks(m, grid, BlockOrder::ColMajor, workers);
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
    WorkerPool workers;
    const auto blocks = buildColBlocks(m, makeColPartition(m, 4), workers);
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
    WorkerPool workers;
    const auto blocks = buildColBlocks(m, makeColPartition(m, 4), workers);
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
