// Interleaved (structure-of-arrays) storage for same-size batch groups.
//
// The packed BatchedMatrices layout stores each matrix contiguously; a
// SIMD lane that owns one matrix would have to stride across the batch on
// every access. The interleaved layout transposes this *within chunks of
// one vector width*: the group is split into chunks of `lanes` matrices,
// each chunk stored contiguously with element (r, c) of its lanes
// adjacent, so lane l of a vector load/store naturally touches matrix l
// -- the CPU counterpart of the coalesced one-row-per-lane register
// layout of the paper's GPU kernels (and of the interleaved batch solvers
// of Gloster et al., PAPERS.md). Interleaving chunk-locally (rather than
// across the whole group) keeps a chunk's working set at m*m*lanes
// elements -- L1-resident for every m <= 32 -- where group-wide
// interleaving would spread consecutive rows of one matrix pages apart.
//
// With chunk = l / lanes and lane = l % lanes:
//   values[(chunk*m*m + c*m + r) * lanes + lane] = element (r, c) of
//                                                  matrix l
//   pivots[(chunk*m + k) * lanes + lane]         = perm[k] of matrix l
//   info[l]                                      = 0 or 1-based
//                                                  breakdown step
//
// lane_stride is the group count rounded up to the SIMD width of the ISA
// the group was built for; padding lanes hold identity matrices so the
// kernels can run full-width without masking the tail chunk.
#pragma once

#include <span>
#include <vector>

#include "base/memory.hpp"
#include "core/batch_storage.hpp"
#include "core/simd_dispatch.hpp"

namespace vbatch::core {

template <typename T>
class InterleavedGroup {
public:
    InterleavedGroup() = default;

    /// Group of `count` matrices of order m, laid out for `isa`.
    InterleavedGroup(index_type m, size_type count, SimdIsa isa);

    index_type size() const noexcept { return m_; }
    size_type count() const noexcept { return count_; }
    SimdIsa isa() const noexcept { return isa_; }
    index_type lanes() const noexcept { return lanes_; }
    /// Padded lane count (multiple of lanes()).
    size_type lane_stride() const noexcept { return stride_; }
    size_type chunks() const noexcept { return stride_ / lanes_; }

    T* values() noexcept { return values_.data(); }
    const T* values() const noexcept { return values_.data(); }
    index_type* pivots() noexcept { return pivots_.data(); }
    const index_type* pivots() const noexcept { return pivots_.data(); }
    index_type* info() noexcept { return info_.data(); }
    const index_type* info() const noexcept { return info_.data(); }

    /// Element (r, c) of lane l (bounds unchecked; for tests/pack code).
    size_type value_index(index_type r, index_type c,
                          size_type l) const noexcept {
        return ((l / lanes_) * m_ * m_ + static_cast<size_type>(c) * m_ +
                r) * lanes_ + l % lanes_;
    }

    /// Pivot entry k of lane l.
    size_type pivot_index(index_type k, size_type l) const noexcept {
        return ((l / lanes_) * m_ + k) * lanes_ + l % lanes_;
    }

    /// Gather blocks src[idx[l]] into lanes l = 0..idx.size()-1. The group
    /// count must equal idx.size(); every block must have order size().
    void pack_matrices(const BatchedMatrices<T>& src,
                       std::span<const size_type> idx);
    void pack_pivots(const BatchedPivots& src,
                     std::span<const size_type> idx);

    /// Scatter lanes back into dst[idx[l]] (padding lanes are dropped).
    void unpack_matrices(BatchedMatrices<T>& dst,
                         std::span<const size_type> idx) const;
    void unpack_pivots(BatchedPivots& dst,
                       std::span<const size_type> idx) const;

    /// Chunk-local unpack: scatter only the lanes of `chunk` (the fused
    /// setup pass writes factors back while the chunk is cache-hot). idx
    /// spans the whole group, exactly as in unpack_matrices.
    void unpack_matrices_chunk(BatchedMatrices<T>& dst,
                               std::span<const size_type> idx,
                               size_type chunk) const;
    void unpack_pivots_chunk(BatchedPivots& dst,
                             std::span<const size_type> idx,
                             size_type chunk) const;

private:
    index_type m_ = 0;
    size_type count_ = 0;
    SimdIsa isa_ = SimdIsa::scalar;
    index_type lanes_ = 1;
    size_type stride_ = 0;
    AlignedBuffer<T> values_;
    AlignedBuffer<index_type> pivots_;
    AlignedBuffer<index_type> info_;
};

/// Interleaved right-hand-side / solution vectors matching an
/// InterleavedGroup: values[(chunk*m + i) * lanes + lane] = element i of
/// lane l (chunk-local, like the matrix storage).
template <typename T>
class InterleavedVectors {
public:
    InterleavedVectors() = default;
    InterleavedVectors(index_type m, size_type count, SimdIsa isa);

    index_type size() const noexcept { return m_; }
    size_type count() const noexcept { return count_; }
    index_type lanes() const noexcept { return lanes_; }
    size_type lane_stride() const noexcept { return stride_; }

    /// Element i of lane l (bounds unchecked; for tests/pack code).
    size_type value_index(index_type i, size_type l) const noexcept {
        return ((l / lanes_) * m_ + i) * lanes_ + l % lanes_;
    }

    T* values() noexcept { return values_.data(); }
    const T* values() const noexcept { return values_.data(); }

    void pack(const BatchedVectors<T>& src, std::span<const size_type> idx);
    void unpack(BatchedVectors<T>& dst,
                std::span<const size_type> idx) const;

private:
    index_type m_ = 0;
    size_type count_ = 0;
    index_type lanes_ = 1;
    size_type stride_ = 0;
    AlignedBuffer<T> values_;
};

}  // namespace vbatch::core
