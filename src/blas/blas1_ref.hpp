// Textbook serial BLAS-1 loops: the pre-optimization reference.
//
// blas1.hpp runs every operation over fixed chunks (parallel, with a
// deterministic partial-combination order). These plain left-to-right
// loops are kept as the oracle the chunked implementations are tested
// against (bitwise for any n <= blas1_chunk, where one chunk *is* the
// serial loop) and as the honest "pre-PR path" baseline the hot-path
// benchmark compares throughput to. They are not called from library
// code.
#pragma once

#include <cmath>
#include <span>

#include "base/macros.hpp"
#include "base/types.hpp"

namespace vbatch::blas::ref {

/// y := alpha * x + y
template <typename T>
void axpy(T alpha, std::span<const T> x, std::span<T> y) {
    VBATCH_ENSURE_DIMS(x.size() == y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        y[i] += alpha * x[i];
    }
}

/// x := alpha * x
template <typename T>
void scal(T alpha, std::span<T> x) {
    for (auto& v : x) {
        v *= alpha;
    }
}

template <typename T>
void copy(std::span<const T> x, std::span<T> y) {
    VBATCH_ENSURE_DIMS(x.size() == y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        y[i] = x[i];
    }
}

template <typename T>
T dot(std::span<const T> x, std::span<const T> y) {
    VBATCH_ENSURE_DIMS(x.size() == y.size());
    T acc{};
    for (std::size_t i = 0; i < x.size(); ++i) {
        acc += x[i] * y[i];
    }
    return acc;
}

template <typename T>
T nrm2(std::span<const T> x) {
    return std::sqrt(dot(x, x));
}

}  // namespace vbatch::blas::ref
