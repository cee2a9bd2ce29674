// Level-1 BLAS over contiguous vectors (std::span-style raw ranges).
//
// These back the Krylov solvers and the reference factorizations; the
// batched kernels have their own fused register-level implementations.
//
// Every operation is parallelized over *fixed-size chunks* of
// blas1_chunk elements, and every reduction keeps one partial per chunk
// which is combined serially in chunk order. Chunk boundaries depend only
// on the vector length -- never on the thread count -- so results are
// bitwise identical whether a loop runs inline, on 2 threads or on 64
// (the determinism contract VBATCH_THREADS relies on). Vectors that fit
// in a single chunk reduce in plain left-to-right order, i.e. exactly the
// textbook serial loop (see blas1_ref.hpp, which keeps those loops as the
// comparison oracle).
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "base/macros.hpp"
#include "base/thread_pool.hpp"
#include "base/types.hpp"

namespace vbatch::blas {

/// Fixed chunk length (elements) of every BLAS-1 sweep and reduction.
/// Large enough that per-chunk bookkeeping vanishes, small enough to
/// load-balance; 8192 doubles = 64 KiB, a comfortable L1/L2 tile.
inline constexpr std::size_t blas1_chunk = 8192;

namespace detail {

inline std::size_t num_chunks(std::size_t n) noexcept {
    return n == 0 ? 0 : (n - 1) / blas1_chunk + 1;
}

/// Run f(lo, hi) over the fixed chunk decomposition of [0, n), in
/// parallel when there is more than one chunk. f must only write state
/// owned by its chunk.
template <typename F>
void for_chunks(std::size_t n, F&& f) {
    const std::size_t nc = num_chunks(n);
    if (nc <= 1) {
        if (n != 0) {
            f(std::size_t{0}, n);
        }
        return;
    }
    ThreadPool::global().parallel_for(
        0, static_cast<size_type>(nc),
        [&](size_type c) {
            const std::size_t lo = static_cast<std::size_t>(c) *
                                   blas1_chunk;
            f(lo, std::min(lo + blas1_chunk, n));
        },
        1);
}

/// Deterministic chunked reduction: f(lo, hi) returns the partial of one
/// chunk; partials are combined with += in ascending chunk order. The
/// combination order is part of the numerical contract -- do not
/// "optimize" it into a tree.
template <typename Partial, typename F>
Partial reduce_chunks(std::size_t n, F&& f) {
    const std::size_t nc = num_chunks(n);
    if (nc == 0) {
        return Partial{};
    }
    if (nc == 1) {
        return f(std::size_t{0}, n);
    }
    constexpr std::size_t stack_chunks = 64;
    std::array<Partial, stack_chunks> stack{};
    std::vector<Partial> heap;
    Partial* parts = stack.data();
    if (nc > stack_chunks) {
        heap.resize(nc);
        parts = heap.data();
    }
    ThreadPool::global().parallel_for(
        0, static_cast<size_type>(nc),
        [&](size_type c) {
            const std::size_t lo = static_cast<std::size_t>(c) *
                                   blas1_chunk;
            parts[c] = f(lo, std::min(lo + blas1_chunk, n));
        },
        1);
    Partial acc = parts[0];
    for (std::size_t c = 1; c < nc; ++c) {
        acc += parts[c];
    }
    return acc;
}

/// Two independent accumulators reduced in one sweep (fused dot pairs).
template <typename T>
struct Partial2 {
    T a{};
    T b{};
    Partial2& operator+=(const Partial2& o) noexcept {
        a += o.a;
        b += o.b;
        return *this;
    }
};

}  // namespace detail

/// y := alpha * x + y
template <typename T>
void axpy(T alpha, std::span<const T> x, std::span<T> y) {
    VBATCH_ENSURE_DIMS(x.size() == y.size());
    detail::for_chunks(x.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            y[i] += alpha * x[i];
        }
    });
}

/// x := alpha * x
template <typename T>
void scal(T alpha, std::span<T> x) {
    detail::for_chunks(x.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            x[i] *= alpha;
        }
    });
}

template <typename T>
void copy(std::span<const T> x, std::span<T> y) {
    VBATCH_ENSURE_DIMS(x.size() == y.size());
    detail::for_chunks(x.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            y[i] = x[i];
        }
    });
}

template <typename T>
T dot(std::span<const T> x, std::span<const T> y) {
    VBATCH_ENSURE_DIMS(x.size() == y.size());
    return detail::reduce_chunks<T>(
        x.size(), [&](std::size_t lo, std::size_t hi) {
            T acc{};
            for (std::size_t i = lo; i < hi; ++i) {
                acc += x[i] * y[i];
            }
            return acc;
        });
}

template <typename T>
T nrm2(std::span<const T> x) {
    // Two-pass scaled norm would be overkill for the well-scaled residual
    // vectors here; plain sum of squares with sqrt is what MAGMA-sparse
    // uses as well.
    return std::sqrt(dot(x, x));
}

}  // namespace vbatch::blas
