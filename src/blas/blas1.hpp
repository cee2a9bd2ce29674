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

#include <algorithm>
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

}  // namespace detail

/// Deterministic chunked sweep with `count` reductions riding along:
/// f(lo, hi, part) processes the chunk [lo, hi) and writes its `count`
/// partials to part[0, count); out[j] is the sum of slot j's partials,
/// combined with += in ascending chunk order. A vector of one chunk
/// writes straight into out, i.e. the plain serial loop. The combination
/// order is part of the numerical contract -- do not "optimize" it into
/// a tree. count = 0 is a plain parallel sweep. Up to 512 partials
/// (chunks x count) live on the stack, so a solver sweep over fewer than
/// about 100 chunks never allocates.
template <typename T, typename F>
void sweep_chunks(std::size_t n, std::size_t count, T* out, F&& f) {
    const std::size_t nc = detail::num_chunks(n);
    if (nc <= 1) {
        if (nc == 1) {
            f(std::size_t{0}, n, out);
        } else {
            std::fill(out, out + count, T{});
        }
        return;
    }
    constexpr std::size_t stack_parts = 512;
    std::array<T, stack_parts> stack;
    std::vector<T> heap;
    T* parts = stack.data();
    if (nc * count > stack_parts) {
        heap.resize(nc * count);
        parts = heap.data();
    }
    ThreadPool::global().parallel_for(
        0, static_cast<size_type>(nc),
        [&](size_type c) {
            const std::size_t lo = static_cast<std::size_t>(c) *
                                   blas1_chunk;
            f(lo, std::min(lo + blas1_chunk, n),
              parts + static_cast<std::size_t>(c) * count);
        },
        1);
    for (std::size_t j = 0; j < count; ++j) {
        T acc = parts[j];
        for (std::size_t c = 1; c < nc; ++c) {
            acc += parts[c * count + j];
        }
        out[j] = acc;
    }
}

namespace detail {

/// Run f(lo, hi) over the fixed chunk decomposition of [0, n), in
/// parallel when there is more than one chunk. f must only write state
/// owned by its chunk.
template <typename F>
void for_chunks(std::size_t n, F&& f) {
    sweep_chunks<char>(n, 0, nullptr,
                       [&](std::size_t lo, std::size_t hi, char*) {
                           f(lo, hi);
                       });
}

/// One reduction: f(lo, hi) returns the partial of one chunk.
template <typename T, typename F>
T reduce_chunks(std::size_t n, F&& f) {
    T out{};
    sweep_chunks(n, 1, &out,
                 [&](std::size_t lo, std::size_t hi, T* part) {
                     *part = f(lo, hi);
                 });
    return out;
}

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
