// AVX2 (256-bit: 4 doubles / 8 floats per chunk) build of the interleaved
// chunk kernels. This TU is compiled with -mavx2 when the compiler
// supports it (CMake defines VBATCH_HAVE_AVX2 for the dispatcher in that
// case); otherwise it degrades to the scalar algorithm, which the runtime
// dispatcher then never selects.
#include "core/chunk_kernels.hpp"
#include "core/vectorized_kernels.hpp"
#include "simd/op_sweep_impl.hpp"

namespace vbatch::core {

namespace {
#if defined(__AVX2__)
using ChunkBackend = simd::Avx2Backend;
#else
using ChunkBackend = simd::ScalarBackend;
#endif
}  // namespace

template <typename T>
void getrf_chunk_avx2(T* a, index_type* perm, index_type* info,
                      index_type m, size_type lane_stride) {
    getrf_chunk<T, ChunkBackend>(a, perm, info, m, lane_stride);
}

template <typename T>
void getrs_chunk_avx2(const T* lu, const index_type* perm, T* b,
                      index_type m, size_type lane_stride) {
    getrs_chunk<T, ChunkBackend>(lu, perm, b, m, lane_stride);
}

template <typename T>
void pack_zero_chunk_avx2(T* vals, size_type n) {
    pack_zero_chunk<T, ChunkBackend>(vals, n);
}

template <typename T>
void pack_entry_stats_chunk_avx2(const T* vals, size_type n, T* max_entry,
                                 unsigned* nonfinite_bits) {
    pack_entry_stats_chunk<T, ChunkBackend>(vals, n, max_entry,
                                            nonfinite_bits);
}

template <typename T>
void diag_scan_chunk_avx2(const T* lu, index_type m, size_type lane_stride,
                          T* min_piv, T* max_piv, unsigned* nonfinite_bits) {
    diag_scan_chunk<T, ChunkBackend>(lu, m, lane_stride, min_piv, max_piv,
                                     nonfinite_bits);
}

template <typename T>
void simd_op_sweep_avx2(const simd::OpSweepInput<T>& in,
                        simd::OpSweepResult<T>& out) {
    simd::op_sweep_run<T, ChunkBackend>(in, out);
}

#define VBATCH_INSTANTIATE_AVX2_CHUNK(T)                                     \
    template void getrf_chunk_avx2<T>(T*, index_type*, index_type*,          \
                                      index_type, size_type);                \
    template void getrs_chunk_avx2<T>(const T*, const index_type*, T*,       \
                                      index_type, size_type);                \
    template void pack_zero_chunk_avx2<T>(T*, size_type);                    \
    template void pack_entry_stats_chunk_avx2<T>(const T*, size_type, T*,    \
                                                 unsigned*);                 \
    template void diag_scan_chunk_avx2<T>(const T*, index_type, size_type,   \
                                          T*, T*, unsigned*);                \
    template void simd_op_sweep_avx2<T>(const simd::OpSweepInput<T>&,        \
                                        simd::OpSweepResult<T>&)

VBATCH_INSTANTIATE_AVX2_CHUNK(float);
VBATCH_INSTANTIATE_AVX2_CHUNK(double);

#undef VBATCH_INSTANTIATE_AVX2_CHUNK

}  // namespace vbatch::core
