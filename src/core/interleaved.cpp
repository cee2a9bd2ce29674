#include "core/interleaved.hpp"

#include <algorithm>

#include "base/macros.hpp"

namespace vbatch::core {

namespace {

size_type padded_stride(size_type count, index_type lanes) {
    const size_type l = lanes;
    return (count + l - 1) / l * l;
}

}  // namespace

template <typename T>
InterleavedGroup<T>::InterleavedGroup(index_type m, size_type count,
                                      SimdIsa isa)
    : m_(m),
      count_(count),
      isa_(isa),
      lanes_(simd_lanes<T>(isa)),
      stride_(padded_stride(count, lanes_)),
      values_(AlignedBuffer<T>::zeros(static_cast<size_type>(m) * m *
                                      stride_)),
      pivots_(AlignedBuffer<index_type>::zeros(static_cast<size_type>(m) *
                                               stride_)),
      info_(AlignedBuffer<index_type>::zeros(stride_)) {
    VBATCH_ENSURE(m >= 0 && m <= max_block_size,
                  "block size out of range for interleaved group");
    VBATCH_ENSURE(count >= 1, "interleaved group must not be empty");
    // Guard against a width the kernels cannot actually run at: the chunk
    // kernels for an unavailable ISA fall back to 1-lane code, which would
    // silently skip all but the first lane of every chunk.
    VBATCH_ENSURE(simd_isa_available(isa),
                  "requested SIMD ISA is not available in this build");
    // Padding lanes: identity matrices with identity pivots, so full-width
    // kernels never divide by zero or report phantom breakdowns there.
    for (size_type l = count_; l < stride_; ++l) {
        for (index_type d = 0; d < m_; ++d) {
            values_[value_index(d, d, l)] = T{1};
            pivots_[pivot_index(d, l)] = d;
        }
    }
}

template <typename T>
void InterleavedGroup<T>::pack_matrices(const BatchedMatrices<T>& src,
                                        std::span<const size_type> idx) {
    VBATCH_ENSURE(static_cast<size_type>(idx.size()) == count_,
                  "index list does not match group count");
    for (size_type l = 0; l < count_; ++l) {
        const auto v = src.view(idx[static_cast<std::size_t>(l)]);
        VBATCH_ENSURE_DIMS(v.rows() == m_);
        for (index_type c = 0; c < m_; ++c) {
            const T* col = v.col(c);
            T* dst = values_.data() + value_index(0, c, l);
            for (index_type r = 0; r < m_; ++r) {
                dst[static_cast<size_type>(r) * lanes_] = col[r];
            }
        }
    }
}

template <typename T>
void InterleavedGroup<T>::pack_pivots(const BatchedPivots& src,
                                      std::span<const size_type> idx) {
    VBATCH_ENSURE(static_cast<size_type>(idx.size()) == count_,
                  "index list does not match group count");
    for (size_type l = 0; l < count_; ++l) {
        const auto p = src.span(idx[static_cast<std::size_t>(l)]);
        VBATCH_ENSURE_DIMS(static_cast<index_type>(p.size()) == m_);
        for (index_type k = 0; k < m_; ++k) {
            pivots_[pivot_index(k, l)] = p[static_cast<std::size_t>(k)];
        }
    }
}

template <typename T>
void InterleavedGroup<T>::unpack_matrices(
    BatchedMatrices<T>& dst, std::span<const size_type> idx) const {
    VBATCH_ENSURE(static_cast<size_type>(idx.size()) == count_,
                  "index list does not match group count");
    for (size_type l = 0; l < count_; ++l) {
        auto v = dst.view(idx[static_cast<std::size_t>(l)]);
        VBATCH_ENSURE_DIMS(v.rows() == m_);
        for (index_type c = 0; c < m_; ++c) {
            T* col = v.col(c);
            const T* src = values_.data() + value_index(0, c, l);
            for (index_type r = 0; r < m_; ++r) {
                col[r] = src[static_cast<size_type>(r) * lanes_];
            }
        }
    }
}

template <typename T>
void InterleavedGroup<T>::unpack_pivots(
    BatchedPivots& dst, std::span<const size_type> idx) const {
    VBATCH_ENSURE(static_cast<size_type>(idx.size()) == count_,
                  "index list does not match group count");
    for (size_type l = 0; l < count_; ++l) {
        auto p = dst.span(idx[static_cast<std::size_t>(l)]);
        VBATCH_ENSURE_DIMS(static_cast<index_type>(p.size()) == m_);
        for (index_type k = 0; k < m_; ++k) {
            p[static_cast<std::size_t>(k)] = pivots_[pivot_index(k, l)];
        }
    }
}

template <typename T>
void InterleavedGroup<T>::unpack_matrices_chunk(
    BatchedMatrices<T>& dst, std::span<const size_type> idx,
    size_type chunk) const {
    VBATCH_ENSURE(static_cast<size_type>(idx.size()) == count_,
                  "index list does not match group count");
    const size_type lane_lo = chunk * lanes_;
    const size_type lane_hi = std::min(lane_lo + lanes_, count_);
    for (size_type l = lane_lo; l < lane_hi; ++l) {
        auto v = dst.view(idx[static_cast<std::size_t>(l)]);
        VBATCH_ENSURE_DIMS(v.rows() == m_);
        for (index_type c = 0; c < m_; ++c) {
            T* col = v.col(c);
            const T* src = values_.data() + value_index(0, c, l);
            for (index_type r = 0; r < m_; ++r) {
                col[r] = src[static_cast<size_type>(r) * lanes_];
            }
        }
    }
}

template <typename T>
void InterleavedGroup<T>::unpack_pivots_chunk(BatchedPivots& dst,
                                              std::span<const size_type> idx,
                                              size_type chunk) const {
    VBATCH_ENSURE(static_cast<size_type>(idx.size()) == count_,
                  "index list does not match group count");
    const size_type lane_lo = chunk * lanes_;
    const size_type lane_hi = std::min(lane_lo + lanes_, count_);
    for (size_type l = lane_lo; l < lane_hi; ++l) {
        auto p = dst.span(idx[static_cast<std::size_t>(l)]);
        VBATCH_ENSURE_DIMS(static_cast<index_type>(p.size()) == m_);
        for (index_type k = 0; k < m_; ++k) {
            p[static_cast<std::size_t>(k)] = pivots_[pivot_index(k, l)];
        }
    }
}

template <typename T>
InterleavedVectors<T>::InterleavedVectors(index_type m, size_type count,
                                          SimdIsa isa)
    : m_(m),
      count_(count),
      lanes_(simd_lanes<T>(isa)),
      stride_(padded_stride(count, lanes_)),
      values_(AlignedBuffer<T>::zeros(static_cast<size_type>(m) * stride_)) {
    VBATCH_ENSURE(m >= 0 && m <= max_block_size,
                  "vector size out of range for interleaved group");
    VBATCH_ENSURE(count >= 1, "interleaved group must not be empty");
    VBATCH_ENSURE(simd_isa_available(isa),
                  "requested SIMD ISA is not available in this build");
}

template <typename T>
void InterleavedVectors<T>::pack(const BatchedVectors<T>& src,
                                 std::span<const size_type> idx) {
    VBATCH_ENSURE(static_cast<size_type>(idx.size()) == count_,
                  "index list does not match group count");
    for (size_type l = 0; l < count_; ++l) {
        const auto s = src.span(idx[static_cast<std::size_t>(l)]);
        VBATCH_ENSURE_DIMS(static_cast<index_type>(s.size()) == m_);
        for (index_type i = 0; i < m_; ++i) {
            values_[value_index(i, l)] = s[static_cast<std::size_t>(i)];
        }
    }
}

template <typename T>
void InterleavedVectors<T>::unpack(BatchedVectors<T>& dst,
                                   std::span<const size_type> idx) const {
    VBATCH_ENSURE(static_cast<size_type>(idx.size()) == count_,
                  "index list does not match group count");
    for (size_type l = 0; l < count_; ++l) {
        auto s = dst.span(idx[static_cast<std::size_t>(l)]);
        VBATCH_ENSURE_DIMS(static_cast<index_type>(s.size()) == m_);
        for (index_type i = 0; i < m_; ++i) {
            s[static_cast<std::size_t>(i)] = values_[value_index(i, l)];
        }
    }
}

template class InterleavedGroup<float>;
template class InterleavedGroup<double>;
template class InterleavedVectors<float>;
template class InterleavedVectors<double>;

}  // namespace vbatch::core
