/**
 * @file
 * Compressed Sparse Row (CSR) matrix: row_ptr / col_indices / values.
 * The natural format for row-wise SpMV and for the (deliberately
 * inefficient, per the paper) CSR SpMSpV variant.
 */

#ifndef ALPHA_PIM_SPARSE_CSR_HH
#define ALPHA_PIM_SPARSE_CSR_HH

#include <cstddef>
#include <numeric>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sparse/coo.hh"

namespace alphapim::sparse
{

/**
 * CSR matrix. Rows are contiguous runs in colIdx/values delimited by
 * rowPtr; columns within a row are sorted ascending.
 *
 * @tparam T value type
 */
template <typename T>
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /** Convert from COO, in any entry order, in O(nnz + rows + cols). */
    static CsrMatrix
    fromCoo(const CooMatrix<T> &coo)
    {
        CsrMatrix m;
        m.rows_ = coo.numRows();
        m.cols_ = coo.numCols();
        m.rowPtr_.assign(static_cast<std::size_t>(m.rows_) + 1, 0);
        for (const NodeId r : coo.rowIndices())
            ++m.rowPtr_[r + 1];
        std::partial_sum(m.rowPtr_.begin(), m.rowPtr_.end(),
                         m.rowPtr_.begin());
        m.colIdx_.resize(coo.nnz());
        m.values_.resize(coo.nnz());
        std::size_t pos = 0;
        coo.forEachInOrder(EntryOrder::RowMajor, [&](std::size_t k) {
            m.colIdx_[pos] = coo.colAt(k);
            m.values_[pos] = coo.valueAt(k);
            ++pos;
        });
        return m;
    }

    /** Number of rows. */
    NodeId numRows() const { return rows_; }

    /** Number of columns. */
    NodeId numCols() const { return cols_; }

    /** Number of stored entries. */
    std::size_t nnz() const { return colIdx_.size(); }

    /** Start offset of row r in colIndices()/values(). */
    EdgeId rowBegin(NodeId r) const { return rowPtr_[r]; }

    /** One-past-the-end offset of row r. */
    EdgeId rowEnd(NodeId r) const { return rowPtr_[r + 1]; }

    /** Number of entries in row r. */
    EdgeId rowLength(NodeId r) const { return rowEnd(r) - rowBegin(r); }

    /** Row-pointer array of length numRows()+1. */
    const std::vector<EdgeId> &rowPtr() const { return rowPtr_; }

    /** Column indices, grouped by row. */
    const std::vector<NodeId> &colIndices() const { return colIdx_; }

    /** Values parallel to colIndices(). */
    const std::vector<T> &values() const { return values_; }

    /** Bytes of the CSR arrays. */
    Bytes
    storageBytes() const
    {
        return static_cast<Bytes>(rowPtr_.size()) * sizeof(EdgeId) +
               static_cast<Bytes>(nnz()) * (sizeof(NodeId) + sizeof(T));
    }

  private:
    NodeId rows_ = 0;
    NodeId cols_ = 0;
    std::vector<EdgeId> rowPtr_;
    std::vector<NodeId> colIdx_;
    std::vector<T> values_;
};

} // namespace alphapim::sparse

#endif // ALPHA_PIM_SPARSE_CSR_HH
