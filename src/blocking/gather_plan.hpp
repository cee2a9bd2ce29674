// Symbolic extraction analysis: cached CSR -> diagonal-block gather plans.
//
// extract_diagonal_blocks re-discovers on every setup which stored
// entries of each row fall inside the diagonal block -- a per-entry
// column scan that depends only on the sparsity pattern, not on the
// values. Following the symbolic/numeric split of sparse direct solvers
// (Bollhoefer et al., PAPERS.md), the gather plan runs that scan once
// per pattern and records, for every block, the flat CSR value index of
// each in-block entry together with its destination slot in the packed
// block storage. The repeatable numeric phase is then a branch-free
// indexed copy, and re-preconditioning a matrix whose pattern is
// unchanged (time stepping, Newton) skips all structural work.
//
// The plan also carries a fingerprint of the analyzed structure so
// BlockJacobi::refresh can reject a matrix with a different pattern.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/macros.hpp"
#include "base/span2d.hpp"
#include "core/batch_layout.hpp"
#include "core/vectorized.hpp"
#include "sparse/csr.hpp"

namespace vbatch::blocking {

/// The pattern fingerprint lives in the sparse layer (Csr memoizes it);
/// re-exported here for the plan's existing callers.
using sparse::csr_pattern_hash;

class GatherPlan {
public:
    GatherPlan() = default;

    /// Analyze the pattern (row_ptrs, col_idxs) against the block
    /// partition `layout`. O(nnz-scan) once; every numeric gather after
    /// that is a flat indexed copy.
    GatherPlan(std::span<const size_type> row_ptrs,
               std::span<const index_type> col_idxs,
               core::BatchLayoutPtr layout);

    /// Same, with the pattern fingerprint already in hand (saves the
    /// O(nnz) rehash when the matrix memoized it). A non-empty `rows`
    /// (a permutation of [0, n)) makes block b own the rows
    /// rows[row_offset(b) .. row_offset(b) + size(b)) instead of the
    /// contiguous range; block-local index i is then the i-th of them,
    /// for rows and columns alike.
    GatherPlan(std::span<const size_type> row_ptrs,
               std::span<const index_type> col_idxs,
               core::BatchLayoutPtr layout, std::uint64_t pattern_hash,
               std::span<const index_type> rows = {});

    template <typename T>
    GatherPlan(const sparse::Csr<T>& a, core::BatchLayoutPtr layout,
               std::span<const index_type> rows = {})
        : GatherPlan(a.row_ptrs(), a.col_idxs(), std::move(layout),
                     a.pattern_hash(), rows) {}

    bool empty() const noexcept { return layout_ == nullptr; }
    const core::BatchLayout& layout() const noexcept { return *layout_; }
    /// Shared handle to the analyzed block partition; lets plan consumers
    /// (preconditioners, the service-layer plan cache) alias one layout
    /// instead of re-deriving it per tenant.
    const core::BatchLayoutPtr& layout_ptr() const noexcept {
        return layout_;
    }

    /// Heap footprint of the plan's index arrays; the service-layer cache
    /// charges entries against its byte budget with this.
    std::size_t byte_size() const noexcept {
        return entry_ptrs_.capacity() * sizeof(size_type) +
               src_.capacity() * sizeof(size_type) +
               dst_.capacity() * sizeof(index_type);
    }

    /// Number of stored entries that land inside block b.
    size_type block_entries(size_type b) const noexcept {
        return entry_ptrs_[static_cast<std::size_t>(b) + 1] -
               entry_ptrs_[static_cast<std::size_t>(b)];
    }

    /// Block b's slice of src()/dst().
    size_type entry_begin(size_type b) const noexcept {
        return entry_ptrs_[static_cast<std::size_t>(b)];
    }

    /// Flat CSR value index of each gathered entry, grouped by block.
    std::span<const size_type> src() const noexcept { return src_; }
    /// Block-local column-major offset (c*m + r) of each gathered entry;
    /// index_type is enough because blocks are at most max_block_size.
    std::span<const index_type> dst() const noexcept { return dst_; }

    index_type num_rows() const noexcept { return num_rows_; }
    size_type nnz() const noexcept { return nnz_; }
    std::uint64_t pattern_hash() const noexcept { return pattern_hash_; }

    /// True when `a`'s sparsity structure is the analyzed pattern (row
    /// count, nnz and structure fingerprint all agree).
    template <typename T>
    bool matches(const sparse::Csr<T>& a) const {
        return num_rows_ == a.num_rows() && nnz_ == a.nnz() &&
               pattern_hash_ == a.pattern_hash();
    }

    /// Numeric gather of one block: zero `out` and scatter the stored
    /// entries of `values`. Produces exactly the block
    /// extract_diagonal_blocks builds (entries outside the pattern stay
    /// zero). `out` must be a contiguous view of order layout().size(b).
    template <typename T>
    void gather_block(std::span<const T> values, size_type b,
                      MatrixView<T> out) const {
        const index_type m = layout_->size(b);
        VBATCH_ASSERT(out.rows() == m && out.cols() == m && out.ld() == m);
        T* data = out.data();
        const auto mm = static_cast<size_type>(m) * m;
        for (size_type q = 0; q < mm; ++q) {
            data[q] = T{};
        }
        const auto beg = entry_begin(b);
        const auto end = entry_begin(b + 1);
        for (size_type e = beg; e < end; ++e) {
            data[dst_[static_cast<std::size_t>(e)]] =
                values[static_cast<std::size_t>(
                    src_[static_cast<std::size_t>(e)])];
        }
    }

    /// Lane-slot gather map for one interleaved size-class group: lane l
    /// holds block indices[l], destinations are offsets into the group's
    /// values() array (value_index(r, c, l) with m = group size and the
    /// given vector width).
    core::InterleavedGatherMap interleaved_map(
        std::span<const size_type> indices, index_type lanes) const;

private:
    /// The count and fill passes over a row list (`rows` non-empty).
    void build_through_rows(std::span<const size_type> row_ptrs,
                            std::span<const index_type> col_idxs,
                            std::span<const index_type> rows);

    core::BatchLayoutPtr layout_;
    /// Block b's entries occupy [entry_ptrs_[b], entry_ptrs_[b+1]).
    std::vector<size_type> entry_ptrs_;
    std::vector<size_type> src_;
    std::vector<index_type> dst_;
    index_type num_rows_ = 0;
    size_type nnz_ = 0;
    std::uint64_t pattern_hash_ = 0;
};

}  // namespace vbatch::blocking
