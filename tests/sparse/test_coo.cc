/** @file COO matrix construction, sorting, coalescing. */

#include <gtest/gtest.h>

#include "sparse/coo.hh"

using namespace alphapim;
using namespace alphapim::sparse;

TEST(Coo, EmptyMatrix)
{
    CooMatrix<float> m(5, 7);
    EXPECT_EQ(m.numRows(), 5u);
    EXPECT_EQ(m.numCols(), 7u);
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_EQ(m.storageBytes(), 0u);
}

TEST(Coo, AddAndAccess)
{
    CooMatrix<float> m(3, 3);
    m.addEntry(0, 1, 2.0f);
    m.addEntry(2, 0, 3.0f);
    ASSERT_EQ(m.nnz(), 2u);
    EXPECT_EQ(m.rowAt(0), 0u);
    EXPECT_EQ(m.colAt(0), 1u);
    EXPECT_FLOAT_EQ(m.valueAt(1), 3.0f);
}

TEST(CooDeath, OutOfRangeEntryPanics)
{
    CooMatrix<float> m(2, 2);
    EXPECT_DEATH(m.addEntry(2, 0, 1.0f), "out of range");
}

TEST(Coo, SortRowMajor)
{
    CooMatrix<float> m(3, 3);
    m.addEntry(2, 1, 1.0f);
    m.addEntry(0, 2, 2.0f);
    m.addEntry(0, 0, 3.0f);
    m.sortRowMajor();
    EXPECT_EQ(m.rowAt(0), 0u);
    EXPECT_EQ(m.colAt(0), 0u);
    EXPECT_EQ(m.rowAt(1), 0u);
    EXPECT_EQ(m.colAt(1), 2u);
    EXPECT_EQ(m.rowAt(2), 2u);
}

TEST(Coo, SortColMajor)
{
    CooMatrix<float> m(3, 3);
    m.addEntry(1, 2, 1.0f);
    m.addEntry(2, 0, 2.0f);
    m.addEntry(0, 2, 3.0f);
    m.sortColMajor();
    EXPECT_EQ(m.colAt(0), 0u);
    EXPECT_EQ(m.colAt(1), 2u);
    EXPECT_EQ(m.rowAt(1), 0u);
    EXPECT_EQ(m.colAt(2), 2u);
    EXPECT_EQ(m.rowAt(2), 1u);
}

TEST(Coo, CoalesceKeepsFirst)
{
    CooMatrix<float> m(2, 2);
    m.addEntry(1, 1, 5.0f);
    m.addEntry(0, 0, 1.0f);
    m.addEntry(1, 1, 9.0f);
    m.coalesce();
    ASSERT_EQ(m.nnz(), 2u);
    EXPECT_FLOAT_EQ(m.valueAt(1), 5.0f);

    // Enough duplicates that an unstable sort reorders them: entry k is
    // (7k mod 4, 0) with value k, so row r first appears at k = 0, 3,
    // 2, 1 for r = 0, 1, 2, 3.
    CooMatrix<float> many(4, 1);
    for (unsigned k = 0; k < 200; ++k)
        many.addEntry(7 * k % 4, 0, static_cast<float>(k));
    many.coalesce();
    ASSERT_EQ(many.nnz(), 4u);
    const float first[] = {0.0f, 3.0f, 2.0f, 1.0f};
    for (NodeId r = 0; r < 4; ++r) {
        EXPECT_EQ(many.rowAt(r), r);
        EXPECT_FLOAT_EQ(many.valueAt(r), first[r]) << "row " << r;
    }
}
