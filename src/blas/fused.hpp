// Fused BLAS-1 kernels for the Krylov solver hot path.
//
// Each per-iteration vector update in IDR(s) used to be a chain of
// separate axpy/dot/nrm2 sweeps; on long vectors every sweep is a full
// trip through memory, so the iteration cost was dominated by redundant
// passes (the bandwidth argument of Anzt et al., ICPP 2017).
// The kernels here fuse the chains into single sweeps -- each element is
// loaded once, updated, and folded into whatever reductions ride along.
// IDR(s)'s own multi-column sweeps are written against
// blas::sweep_chunks in solvers/idr.cpp.
//
// Numerical contract: every kernel performs, per element, *exactly* the
// operations of the unfused call sequence in the same order, and every
// reduction uses the fixed-chunk deterministic scheme of blas1.hpp.
// Consequently a fused kernel is bitwise identical to its unfused
// composition (asserted by tests/test_hotpath.cpp) and bitwise stable
// across thread counts.
#pragma once

#include <array>
#include <cmath>
#include <span>
#include <utility>

#include "base/macros.hpp"
#include "blas/blas1.hpp"

namespace vbatch::blas {

/// y += alpha * x; returns ||y||_2.
template <typename T>
T fused_axpy_norm2(T alpha, std::span<const T> x, std::span<T> y) {
    VBATCH_ENSURE_DIMS(x.size() == y.size());
    const T sq = detail::reduce_chunks<T>(
        y.size(), [&](std::size_t lo, std::size_t hi) {
            T acc{};
            for (std::size_t i = lo; i < hi; ++i) {
                y[i] += alpha * x[i];
                acc += y[i] * y[i];
            }
            return acc;
        });
    return std::sqrt(sq);
}

/// One sweep over x producing (dot(x, y), dot(x, z)).
template <typename T>
std::pair<T, T> fused_dot2(std::span<const T> x, std::span<const T> y,
                           std::span<const T> z) {
    VBATCH_ENSURE_DIMS(x.size() == y.size() && x.size() == z.size());
    std::array<T, 2> out;
    sweep_chunks(x.size(), 2, out.data(),
                 [&](std::size_t lo, std::size_t hi, T* part) {
                     T a{};
                     T b{};
                     for (std::size_t i = lo; i < hi; ++i) {
                         a += x[i] * y[i];
                         b += x[i] * z[i];
                     }
                     part[0] = a;
                     part[1] = b;
                 });
    return {out[0], out[1]};
}

/// With d := rs - r (not materialized), returns (dot(d, d), dot(rs, d)).
/// (IDR minimal-residual smoothing step.)
template <typename T>
std::pair<T, T> fused_smoothing_dots(std::span<const T> rs,
                                     std::span<const T> r) {
    VBATCH_ENSURE_DIMS(rs.size() == r.size());
    std::array<T, 2> out;
    sweep_chunks(r.size(), 2, out.data(),
                 [&](std::size_t lo, std::size_t hi, T* part) {
                     T a{};
                     T b{};
                     for (std::size_t i = lo; i < hi; ++i) {
                         const T d = rs[i] - r[i];
                         a += d * d;
                         b += rs[i] * d;
                     }
                     part[0] = a;
                     part[1] = b;
                 });
    return {out[0], out[1]};
}

/// rs -= gamma * (rs - r); xs -= gamma * (xs - x); returns ||rs||_2.
template <typename T>
T fused_smooth_update(T gamma, std::span<const T> r, std::span<const T> x,
                      std::span<T> rs, std::span<T> xs) {
    VBATCH_ENSURE_DIMS(r.size() == rs.size() && x.size() == xs.size() &&
                       rs.size() == xs.size());
    const T sq = detail::reduce_chunks<T>(
        rs.size(), [&](std::size_t lo, std::size_t hi) {
            T acc{};
            for (std::size_t i = lo; i < hi; ++i) {
                rs[i] -= gamma * (rs[i] - r[i]);
                xs[i] -= gamma * (xs[i] - x[i]);
                acc += rs[i] * rs[i];
            }
            return acc;
        });
    return std::sqrt(sq);
}

}  // namespace vbatch::blas
