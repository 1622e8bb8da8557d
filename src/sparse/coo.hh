/**
 * @file
 * Coordinate-list (COO) sparse matrix: the construction and interchange
 * format. Graph generators and Matrix Market input emit COO; CsrMatrix
 * and the partition builders (core/device_block.hh) read it in row- or
 * column-major order through forEachInOrder(), a stable counting sort.
 */

#ifndef ALPHA_PIM_SPARSE_COO_HH
#define ALPHA_PIM_SPARSE_COO_HH

#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace alphapim::sparse
{

/** Order of a matrix's entries. */
enum class EntryOrder
{
    RowMajor, ///< by (row, col)
    ColMajor, ///< by (col, row)
};

/**
 * COO matrix with parallel (row, col, value) arrays.
 *
 * @tparam T value type
 */
template <typename T>
class CooMatrix
{
  public:
    CooMatrix() = default;

    /** Empty matrix of the given shape. */
    CooMatrix(NodeId rows, NodeId cols) : rows_(rows), cols_(cols) {}

    /** Number of rows. */
    NodeId numRows() const { return rows_; }

    /** Number of columns. */
    NodeId numCols() const { return cols_; }

    /** Number of stored entries. */
    std::size_t nnz() const { return rowIdx_.size(); }

    /** Row index of entry k. */
    NodeId rowAt(std::size_t k) const { return rowIdx_[k]; }

    /** Column index of entry k. */
    NodeId colAt(std::size_t k) const { return colIdx_[k]; }

    /** Value of entry k. */
    T valueAt(std::size_t k) const { return values_[k]; }

    /** Raw row-index array. */
    const std::vector<NodeId> &rowIndices() const { return rowIdx_; }

    /** Raw column-index array. */
    const std::vector<NodeId> &colIndices() const { return colIdx_; }

    /** Raw value array. */
    const std::vector<T> &values() const { return values_; }

    /** Append one entry (no dedup; see coalesce()). */
    void
    addEntry(NodeId r, NodeId c, T v)
    {
        ALPHA_ASSERT(r < rows_ && c < cols_, "COO entry out of range");
        rowIdx_.push_back(r);
        colIdx_.push_back(c);
        values_.push_back(v);
    }

    /** Reserve storage for n entries. */
    void
    reserve(std::size_t n)
    {
        rowIdx_.reserve(n);
        colIdx_.reserve(n);
        values_.reserve(n);
    }

    /**
     * Call visit(k) for every entry index k, in `order`; entries with
     * equal keys keep their input order. A counting sort, O(nnz + rows
     * + cols), whose two passes go by the minor index, then by the
     * major one. One scan first checks the input: entries already in
     * `order` are visited in place, and entries already sorted by the
     * minor index skip the first pass.
     */
    template <typename Visit>
    void
    forEachInOrder(EntryOrder order, Visit &&visit) const
    {
        const bool col_major = order == EntryOrder::ColMajor;
        const std::vector<NodeId> &major = col_major ? colIdx_ : rowIdx_;
        const std::vector<NodeId> &minor = col_major ? rowIdx_ : colIdx_;
        std::size_t out_of_order = 0;
        std::size_t minor_descents = 0;
        for (std::size_t k = 1; k < nnz(); ++k) {
            const bool minor_down = minor[k - 1] > minor[k];
            minor_descents += minor_down;
            out_of_order += (major[k - 1] > major[k]) |
                            ((major[k - 1] == major[k]) & minor_down);
        }
        if (out_of_order == 0) {
            for (std::size_t k = 0; k < nnz(); ++k)
                visit(k);
            return;
        }
        std::vector<std::size_t> ids; // empty: input order
        if (minor_descents > 0)
            ids = countingSort(minor, col_major ? rows_ : cols_, ids);
        for (const std::size_t k :
             countingSort(major, col_major ? cols_ : rows_, ids))
            visit(k);
    }

    /** Sort entries by (row, col), stably. */
    void sortRowMajor() { sortBy(EntryOrder::RowMajor); }

    /** Sort entries by (col, row), stably. */
    void sortColMajor() { sortBy(EntryOrder::ColMajor); }

    /**
     * Merge duplicate (row, col) entries, keeping the first value.
     * Graph adjacency matrices treat parallel edges as one edge, so
     * keep-first matches the generators' intent. Sorts row-major.
     */
    void
    coalesce()
    {
        sortRowMajor();
        std::size_t out = 0;
        for (std::size_t k = 0; k < nnz(); ++k) {
            if (out > 0 && rowIdx_[k] == rowIdx_[out - 1] &&
                colIdx_[k] == colIdx_[out - 1]) {
                continue;
            }
            rowIdx_[out] = rowIdx_[k];
            colIdx_[out] = colIdx_[k];
            values_[out] = values_[k];
            ++out;
        }
        rowIdx_.resize(out);
        colIdx_.resize(out);
        values_.resize(out);
    }

    /** Bytes of the COO arrays (two index arrays + values). */
    Bytes
    storageBytes() const
    {
        return static_cast<Bytes>(nnz()) * (2 * sizeof(NodeId) + sizeof(T));
    }

  private:
    /**
     * Stable counting sort of the entry ids `ids` (empty: 0, 1, ...,
     * nnz - 1) by key[id], each key below `extent`.
     */
    static std::vector<std::size_t>
    countingSort(const std::vector<NodeId> &key, NodeId extent,
                 const std::vector<std::size_t> &ids)
    {
        std::vector<std::size_t> next(static_cast<std::size_t>(extent) + 1,
                                      0);
        for (const NodeId v : key)
            ++next[v + 1];
        std::partial_sum(next.begin(), next.end(), next.begin());
        std::vector<std::size_t> sorted(key.size());
        for (std::size_t i = 0; i < key.size(); ++i) {
            const std::size_t k = ids.empty() ? i : ids[i];
            sorted[next[key[k]]++] = k;
        }
        return sorted;
    }

    /** Rearrange the entries into `order`. */
    void
    sortBy(EntryOrder order)
    {
        CooMatrix sorted(rows_, cols_);
        sorted.reserve(nnz());
        forEachInOrder(order, [&](std::size_t k) {
            sorted.rowIdx_.push_back(rowIdx_[k]);
            sorted.colIdx_.push_back(colIdx_[k]);
            sorted.values_.push_back(values_[k]);
        });
        *this = std::move(sorted);
    }

    NodeId rows_ = 0;
    NodeId cols_ = 0;
    std::vector<NodeId> rowIdx_;
    std::vector<NodeId> colIdx_;
    std::vector<T> values_;
};

} // namespace alphapim::sparse

#endif // ALPHA_PIM_SPARSE_COO_HH
