/** @file CSR conversion: structure invariants and equivalence with a
 * reference built by sorting, from entries in any order. */

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "sparse/csr.hh"

using namespace alphapim;
using namespace alphapim::sparse;

namespace
{

CooMatrix<float>
randomCoo(NodeId rows, NodeId cols, std::size_t entries,
          std::uint64_t seed)
{
    Rng rng(seed);
    CooMatrix<float> m(rows, cols);
    for (std::size_t k = 0; k < entries; ++k) {
        m.addEntry(static_cast<NodeId>(rng.nextBounded(rows)),
                   static_cast<NodeId>(rng.nextBounded(cols)),
                   rng.nextFloat() + 0.1f);
    }
    m.coalesce();
    return m;
}

/** `m`'s entries in a seeded random order. */
CooMatrix<float>
shuffled(const CooMatrix<float> &m, std::uint64_t seed)
{
    std::vector<std::size_t> order(m.nnz());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    CooMatrix<float> out(m.numRows(), m.numCols());
    for (const std::size_t k : order)
        out.addEntry(m.rowAt(k), m.colAt(k), m.valueAt(k));
    return out;
}

/** Compare `csr`, element by element, with the CSR of `coo` that
 * sorting its (row, col, value) triples gives. */
void
expectMatchesSortedReference(const CooMatrix<float> &coo,
                             const CsrMatrix<float> &csr)
{
    std::vector<std::tuple<NodeId, NodeId, float>> entries;
    for (std::size_t k = 0; k < coo.nnz(); ++k)
        entries.emplace_back(coo.rowAt(k), coo.colAt(k), coo.valueAt(k));
    std::sort(entries.begin(), entries.end());
    std::vector<EdgeId> row_ptr(coo.numRows() + 1, 0);
    for (const auto &entry : entries)
        ++row_ptr[std::get<0>(entry) + 1];
    std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());

    EXPECT_EQ(csr.numRows(), coo.numRows());
    EXPECT_EQ(csr.numCols(), coo.numCols());
    EXPECT_EQ(csr.rowPtr(), row_ptr);
    ASSERT_EQ(csr.nnz(), entries.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
        EXPECT_EQ(csr.colIndices()[e], std::get<1>(entries[e])) << e;
        EXPECT_EQ(csr.values()[e], std::get<2>(entries[e])) << e;
    }
}

} // namespace

TEST(Csr, StructureInvariants)
{
    const auto coo = randomCoo(50, 40, 300, 1);
    const auto csr = CsrMatrix<float>::fromCoo(coo);
    EXPECT_EQ(csr.nnz(), coo.nnz());
    EXPECT_EQ(csr.rowPtr().front(), 0u);
    EXPECT_EQ(csr.rowPtr().back(), coo.nnz());
    for (NodeId r = 0; r < csr.numRows(); ++r) {
        EXPECT_LE(csr.rowBegin(r), csr.rowEnd(r));
        for (EdgeId e = csr.rowBegin(r); e + 1 < csr.rowEnd(r); ++e)
            EXPECT_LT(csr.colIndices()[e], csr.colIndices()[e + 1]);
    }
}

TEST(Csr, RoundTripPreservesEntries)
{
    const auto coo = randomCoo(30, 30, 150, 2);
    const auto csr = CsrMatrix<float>::fromCoo(coo);
    // Rebuild a dense image from both and compare.
    std::vector<float> dense_coo(30 * 30, 0.0f);
    for (std::size_t k = 0; k < coo.nnz(); ++k)
        dense_coo[coo.rowAt(k) * 30 + coo.colAt(k)] = coo.valueAt(k);
    std::vector<float> dense_csr(30 * 30, 0.0f);
    for (NodeId r = 0; r < 30; ++r) {
        for (EdgeId e = csr.rowBegin(r); e < csr.rowEnd(r); ++e)
            dense_csr[r * 30 + csr.colIndices()[e]] = csr.values()[e];
    }
    EXPECT_EQ(dense_coo, dense_csr);
}

TEST(Csr, MatchesSortedReferenceFromAnyOrder)
{
    const auto sorted = randomCoo(60, 45, 400, 6);
    CooMatrix<float> by_col = sorted;
    by_col.sortColMajor();
    // Rows in order, but each row's columns descending.
    std::vector<std::size_t> order(sorted.nnz());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return std::make_pair(sorted.rowAt(a), sorted.colAt(b)) <
               std::make_pair(sorted.rowAt(b), sorted.colAt(a));
    });
    CooMatrix<float> cols_down(60, 45);
    for (const std::size_t k : order)
        cols_down.addEntry(sorted.rowAt(k), sorted.colAt(k),
                           sorted.valueAt(k));
    // Rows 10 to 29 left empty.
    CooMatrix<float> gaps(60, 45);
    for (std::size_t k = 0; k < sorted.nnz(); ++k) {
        if (sorted.rowAt(k) < 10 || sorted.rowAt(k) >= 30)
            gaps.addEntry(sorted.rowAt(k), sorted.colAt(k),
                          sorted.valueAt(k));
    }
    const std::pair<const char *, CooMatrix<float>> cases[] = {
        {"sorted", sorted},
        {"column-major", by_col},
        {"columns descending", cols_down},
        {"shuffled", shuffled(sorted, 7)},
        {"empty rows", gaps},
        {"empty rows, shuffled", shuffled(gaps, 8)},
        {"empty matrix", CooMatrix<float>(10, 10)},
    };
    for (const auto &[name, coo] : cases) {
        SCOPED_TRACE(name);
        expectMatchesSortedReference(coo, CsrMatrix<float>::fromCoo(coo));
    }
}

TEST(CsrCsc, RowColumnLengthsAgree)
{
    // The CSR's row and column lengths agree with the COO's counts.
    const auto coo = randomCoo(20, 20, 100, 5);
    const auto csr = CsrMatrix<float>::fromCoo(coo);
    std::vector<EdgeId> coo_rows(20, 0), coo_cols(20, 0), csr_cols(20, 0);
    for (std::size_t k = 0; k < coo.nnz(); ++k) {
        ++coo_rows[coo.rowAt(k)];
        ++coo_cols[coo.colAt(k)];
    }
    for (NodeId r = 0; r < 20; ++r)
        EXPECT_EQ(csr.rowLength(r), coo_rows[r]);
    for (const NodeId c : csr.colIndices())
        ++csr_cols[c];
    EXPECT_EQ(csr_cols, coo_cols);
}

TEST(CsrCsc, EmptyMatrixConverts)
{
    CooMatrix<float> empty(10, 10);
    const auto csr = CsrMatrix<float>::fromCoo(empty);
    EXPECT_EQ(csr.nnz(), 0u);
    EXPECT_EQ(csr.rowPtr().size(), 11u);
}
