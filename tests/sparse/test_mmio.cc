/** @file Matrix Market reader/writer. */

#include <sstream>

#include <gtest/gtest.h>

#include "sparse/mmio.hh"

using namespace alphapim;
using namespace alphapim::sparse;

TEST(Mmio, ReadsGeneralReal)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "3 3 2\n"
        "1 2 5.5\n"
        "3 1 -2\n");
    const auto m = readMatrixMarket(in);
    EXPECT_EQ(m.numRows(), 3u);
    ASSERT_EQ(m.nnz(), 2u);
    EXPECT_EQ(m.rowAt(0), 0u);
    EXPECT_EQ(m.colAt(0), 1u);
    EXPECT_FLOAT_EQ(m.valueAt(0), 5.5f);
}

TEST(Mmio, ReadsSymmetricPattern)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "4 4 2\n"
        "2 1\n"
        "4 3\n");
    const auto m = readMatrixMarket(in);
    EXPECT_EQ(m.nnz(), 4u); // mirrored
}

TEST(Mmio, SymmetricDiagonalNotDuplicated)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 2 1.0\n"
        "3 1 2.0\n");
    const auto m = readMatrixMarket(in);
    EXPECT_EQ(m.nnz(), 3u);
}

TEST(Mmio, DuplicateEntryKeepsFirstValue)
{
    // (1, 1) is listed first with value 1 and last with value 2, among
    // enough entries that an unstable sort would reorder the two.
    std::ostringstream text;
    text << "%%MatrixMarket matrix coordinate real general\n"
         << "16 1 17\n"
         << "1 1 1\n";
    for (int r = 16; r >= 1; --r)
        text << r << " 1 " << (r == 1 ? 2 : 9) << "\n";
    std::istringstream in(text.str());
    const auto m = readMatrixMarket(in);
    ASSERT_EQ(m.nnz(), 16u);
    EXPECT_EQ(m.rowAt(0), 0u);
    EXPECT_FLOAT_EQ(m.valueAt(0), 1.0f);
}

TEST(Mmio, WriteReadRoundTrip)
{
    CooMatrix<float> m(5, 4);
    m.addEntry(0, 3, 1.5f);
    m.addEntry(4, 0, 2.5f);
    m.addEntry(2, 2, -3.0f);
    std::ostringstream out;
    writeMatrixMarket(m, out);
    std::istringstream in(out.str());
    const auto back = readMatrixMarket(in);
    ASSERT_EQ(back.nnz(), m.nnz());
    EXPECT_EQ(back.numRows(), 5u);
    EXPECT_EQ(back.numCols(), 4u);
}

TEST(MmioDeath, RejectsMissingBanner)
{
    std::istringstream in("not a matrix market file\n1 1 0\n");
    EXPECT_EXIT(readMatrixMarket(in), testing::ExitedWithCode(1),
                "banner");
}

TEST(MmioDeath, RejectsUnsupportedFormat)
{
    std::istringstream in(
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
    EXPECT_EXIT(readMatrixMarket(in), testing::ExitedWithCode(1),
                "coordinate");
}

TEST(MmioDeath, RejectsOutOfRangeEntry)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "3 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(in), testing::ExitedWithCode(1),
                "out of range");
}

TEST(MmioDeath, RejectsSizeBeyondNodeIdRange)
{
    // 2^32 + 5 rows would wrap to 5 if narrowed to NodeId unchecked,
    // and the entry at row 2^32 + 4 would land on row 3.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "4294967301 4294967301 3\n"
        "4294967300 1 1.0\n"
        "1 2 1.0\n"
        "2 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(in), testing::ExitedWithCode(1),
                "exceeds");
}

TEST(MmioDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(readMatrixMarketFile("/nonexistent/foo.mtx"),
                testing::ExitedWithCode(1), "cannot open");
}
