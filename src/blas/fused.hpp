// Fused BLAS-1 kernels for the Krylov solver hot path.
//
// Each per-iteration vector update in IDR(s) used to be a chain of
// separate axpy/dot/nrm2 sweeps; on long vectors every sweep is a full
// trip through memory, so the iteration cost was dominated by redundant
// passes (the bandwidth argument of Anzt et al., ICPP 2017).
// The kernels here fuse the chains into single sweeps -- each element is
// loaded once, updated, and folded into whatever reductions ride along.
//
// Numerical contract: every kernel performs, per element, *exactly* the
// operations of the unfused call sequence in the same order, and every
// reduction uses the fixed-chunk deterministic scheme of blas1.hpp.
// Consequently a fused kernel is bitwise identical to its unfused
// composition (asserted by tests/test_hotpath.cpp) and bitwise stable
// across thread counts.
//
// multi_dot / multi_axpy batch the shadow-space products of IDR: k dot
// products against one vector in a single sweep instead of k, with
// per-column results bitwise equal to k separate blas::dot calls.
#pragma once

#include <array>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "base/macros.hpp"
#include "blas/blas1.hpp"
#include "obs/metrics.hpp"

namespace vbatch::blas {

namespace detail {

/// One registry update per kernel launch (never per element): the
/// hot-path benches derive effective bandwidth from these two counters.
inline void record_fused(std::size_t bytes) {
    auto& registry = obs::Registry::global();
    registry.add("blas1.fused.launches", 1.0);
    registry.add("blas1.fused.bytes_moved", static_cast<double>(bytes));
}

}  // namespace detail

/// r := b - r; returns ||r||_2. (Initial-residual pattern.)
template <typename T>
T fused_residual_norm2(std::span<const T> b, std::span<T> r) {
    VBATCH_ENSURE_DIMS(b.size() == r.size());
    detail::record_fused(3 * sizeof(T) * r.size());
    const T sq = detail::reduce_chunks<T>(
        r.size(), [&](std::size_t lo, std::size_t hi) {
            T acc{};
            for (std::size_t i = lo; i < hi; ++i) {
                r[i] = b[i] - r[i];
                acc += r[i] * r[i];
            }
            return acc;
        });
    return std::sqrt(sq);
}

/// y += alpha * x; returns ||y||_2.
template <typename T>
T fused_axpy_norm2(T alpha, std::span<const T> x, std::span<T> y) {
    VBATCH_ENSURE_DIMS(x.size() == y.size());
    detail::record_fused(3 * sizeof(T) * y.size());
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
    detail::record_fused(3 * sizeof(T) * x.size());
    const auto acc = detail::reduce_chunks<detail::Partial2<T>>(
        x.size(), [&](std::size_t lo, std::size_t hi) {
            detail::Partial2<T> p;
            for (std::size_t i = lo; i < hi; ++i) {
                p.a += x[i] * y[i];
                p.b += x[i] * z[i];
            }
            return p;
        });
    return {acc.a, acc.b};
}

/// With d := rs - r (not materialized), returns (dot(d, d), dot(rs, d)).
/// (IDR minimal-residual smoothing step.)
template <typename T>
std::pair<T, T> fused_smoothing_dots(std::span<const T> rs,
                                     std::span<const T> r) {
    VBATCH_ENSURE_DIMS(rs.size() == r.size());
    detail::record_fused(2 * sizeof(T) * r.size());
    const auto acc = detail::reduce_chunks<detail::Partial2<T>>(
        r.size(), [&](std::size_t lo, std::size_t hi) {
            detail::Partial2<T> p;
            for (std::size_t i = lo; i < hi; ++i) {
                const T d = rs[i] - r[i];
                p.a += d * d;
                p.b += rs[i] * d;
            }
            return p;
        });
    return {acc.a, acc.b};
}

/// rs -= gamma * (rs - r); xs -= gamma * (xs - x); returns ||rs||_2.
template <typename T>
T fused_smooth_update(T gamma, std::span<const T> r, std::span<const T> x,
                      std::span<T> rs, std::span<T> xs) {
    VBATCH_ENSURE_DIMS(r.size() == rs.size() && x.size() == xs.size() &&
                       rs.size() == xs.size());
    detail::record_fused(6 * sizeof(T) * rs.size());
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

/// y := alpha * x + beta * y in one sweep (the IDR direction update).
template <typename T>
void fused_axpby(T alpha, std::span<const T> x, T beta, std::span<T> y) {
    VBATCH_ENSURE_DIMS(x.size() == y.size());
    detail::record_fused(3 * sizeof(T) * y.size());
    detail::for_chunks(y.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            y[i] = alpha * x[i] + beta * y[i];
        }
    });
}

/// out[k] := dot(basis column k, x) for k in [0, cols). `basis` is
/// column-major with leading dimension n (the Krylov/shadow basis
/// layout). One sweep over memory instead of `cols`; each out[k] is
/// bitwise equal to blas::dot on that column.
template <typename T>
void multi_dot(const T* basis, size_type n, index_type cols, const T* x,
               T* out) {
    if (cols <= 0) {
        return;
    }
    const auto nu = static_cast<std::size_t>(n);
    const auto k = static_cast<std::size_t>(cols);
    detail::record_fused((k + 1) * sizeof(T) * nu);
    const std::size_t nc = detail::num_chunks(nu);
    if (nc <= 1) {
        for (std::size_t col = 0; col < k; ++col) {
            const T* v = basis + col * nu;
            T acc{};
            for (std::size_t i = 0; i < nu; ++i) {
                acc += v[i] * x[i];
            }
            out[col] = acc;
        }
        return;
    }
    // parts[c * k + col]: chunk c's partial of column col. Combined per
    // column in ascending chunk order -- the canonical dot order. Solver
    // sizes fit the stack buffer, so a Krylov iteration never allocates.
    constexpr std::size_t stack_parts = 256;
    std::array<T, stack_parts> stack{};
    std::vector<T> heap;
    T* parts = stack.data();
    if (nc * k > stack_parts) {
        heap.resize(nc * k);
        parts = heap.data();
    }
    ThreadPool::global().parallel_for(
        0, static_cast<size_type>(nc),
        [&](size_type c) {
            const std::size_t lo = static_cast<std::size_t>(c) *
                                   blas1_chunk;
            const std::size_t hi = std::min(lo + blas1_chunk, nu);
            for (std::size_t col = 0; col < k; ++col) {
                const T* v = basis + col * nu;
                T acc{};
                for (std::size_t i = lo; i < hi; ++i) {
                    acc += v[i] * x[i];
                }
                parts[static_cast<std::size_t>(c) * k + col] = acc;
            }
        },
        1);
    for (std::size_t col = 0; col < k; ++col) {
        T acc = parts[col];
        for (std::size_t c = 1; c < nc; ++c) {
            acc += parts[c * k + col];
        }
        out[col] = acc;
    }
}

/// z += sum_k coeff[k] * basis column k, applied per element in ascending
/// column order -- bitwise equal to `cols` sequential blas::axpy calls,
/// in one sweep over z.
template <typename T>
void multi_axpy(const T* basis, size_type n, index_type cols,
                const T* coeff, T* z) {
    if (cols <= 0) {
        return;
    }
    const auto nu = static_cast<std::size_t>(n);
    const auto k = static_cast<std::size_t>(cols);
    detail::record_fused((k + 2) * sizeof(T) * nu);
    detail::for_chunks(nu, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            T acc = z[i];
            for (std::size_t col = 0; col < k; ++col) {
                acc += coeff[col] * basis[col * nu + i];
            }
            z[i] = acc;
        }
    });
}

}  // namespace vbatch::blas
