// Level-3 BLAS (small sizes; reference products for the factorization
// tests, never on the critical batched path).
#pragma once

#include <type_traits>

#include "base/macros.hpp"
#include "base/span2d.hpp"
#include "base/types.hpp"

namespace vbatch::blas {

/// C := alpha * A * B + beta * C
template <typename T>
void gemm(T alpha, std::type_identity_t<ConstMatrixView<T>> a, std::type_identity_t<ConstMatrixView<T>> b, T beta,
          MatrixView<T> c) {
    VBATCH_ENSURE_DIMS(a.cols() == b.rows());
    VBATCH_ENSURE_DIMS(c.rows() == a.rows() && c.cols() == b.cols());
    for (index_type j = 0; j < c.cols(); ++j) {
        T* cj = c.col(j);
        for (index_type i = 0; i < c.rows(); ++i) {
            cj[i] *= beta;
        }
        for (index_type k = 0; k < a.cols(); ++k) {
            const T bkj = alpha * b(k, j);
            const T* ak = a.col(k);
            for (index_type i = 0; i < c.rows(); ++i) {
                cj[i] += ak[i] * bkj;
            }
        }
    }
}

/// C := alpha * A^T * B + beta * C
template <typename T>
void gemm_tn(T alpha, std::type_identity_t<ConstMatrixView<T>> a, std::type_identity_t<ConstMatrixView<T>> b, T beta,
             MatrixView<T> c) {
    VBATCH_ENSURE_DIMS(a.rows() == b.rows());
    VBATCH_ENSURE_DIMS(c.rows() == a.cols() && c.cols() == b.cols());
    for (index_type j = 0; j < c.cols(); ++j) {
        for (index_type i = 0; i < c.rows(); ++i) {
            T acc{};
            const T* ai = a.col(i);
            const T* bj = b.col(j);
            for (index_type k = 0; k < a.rows(); ++k) {
                acc += ai[k] * bj[k];
            }
            c(i, j) = alpha * acc + beta * c(i, j);
        }
    }
}

}  // namespace vbatch::blas
