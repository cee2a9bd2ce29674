// Canonical (nominal) flop counts used for GFLOPS reporting.
//
// Like the paper (Section II.B) we charge every factorization kernel the
// textbook LU cost of 2/3 m^3 flops and every solve (permute + lower +
// upper triangular solve) 2 m^2 flops, regardless of how many operations a
// particular algorithm actually executes. This makes the GFLOPS of LU,
// Gauss-Huard and the vendor kernels directly comparable -- a kernel that
// wastes work on padded zeros reports lower GFLOPS, which is exactly the
// effect Fig. 4/5 of the paper shows.
#pragma once

#include "base/types.hpp"

namespace vbatch::core {

/// Nominal flops of one m x m LU factorization.
inline double getrf_flops(index_type m) {
    const double d = m;
    return 2.0 / 3.0 * d * d * d;
}

/// Nominal flops of one permute + unit-lower + upper solve.
inline double getrs_flops(index_type m) {
    const double d = m;
    return 2.0 * d * d;
}

/// Nominal flops of one explicit m x m inversion (Gauss-Jordan).
inline double invert_flops(index_type m) {
    const double d = m;
    return 2.0 * d * d * d;
}

/// Nominal flops of one m x m matrix-vector product.
inline double gemv_flops(index_type m) {
    const double d = m;
    return 2.0 * d * d;
}

}  // namespace vbatch::core
