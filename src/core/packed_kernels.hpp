// Sub-warp packed kernels: two problems of size m <= 16 per warp.
//
// Section IV.B of the paper notes "we do not tune for specific sizes by
// handling multiple problems per warp" -- this module implements exactly
// that tuning as an extension. Lanes 0..15 carry problem A (one row per
// lane), lanes 16..31 problem B; every warp instruction serves both
// halves, the trailing updates pad only to 16 instead of 32, and the
// pivot reduction is a 4-step half-warp xor shuffle. The per-problem issue
// count roughly halves, which is what recovers the small-size performance
// the padded full-warp kernels give away (bench_ablation_packing).
//
// The arithmetic per problem is identical to the full-warp kernels, so
// results are bit-identical to getrf_warp / getrs_warp (tested).
#pragma once

#include "core/simt_kernels.hpp"

namespace vbatch::core {

/// Factorize problems a0 and a1 (equal sizes, m <= 16) in one warp.
/// Returns 0 or (1-based step) * sign encoding: >0 means a0 broke down at
/// that step, <0 means a1 did (if both, a0 is reported).
template <typename T>
index_type getrf_warp_packed2(simt::Warp& warp, MatrixView<T> a0,
                              MatrixView<T> a1, std::span<index_type> perm0,
                              std::span<index_type> perm1);

/// Solve both problems' right-hand sides in one warp.
template <typename T>
void getrs_warp_packed2(simt::Warp& warp, ConstMatrixView<T> lu0,
                        ConstMatrixView<T> lu1,
                        std::span<const index_type> perm0,
                        std::span<const index_type> perm1, std::span<T> b0,
                        std::span<T> b1);

/// Batch drivers: pack consecutive pairs (odd tail runs unpacked).
/// Requires a uniform layout with block size <= 16.
template <typename T>
SimtBatchResult getrf_batch_simt_packed(BatchedMatrices<T>& a,
                                        BatchedPivots& perm,
                                        const SimtBatchOptions& opts = {});

template <typename T>
SimtBatchResult getrs_batch_simt_packed(const BatchedMatrices<T>& lu,
                                        const BatchedPivots& perm,
                                        BatchedVectors<T>& b,
                                        const SimtBatchOptions& opts = {});

}  // namespace vbatch::core
