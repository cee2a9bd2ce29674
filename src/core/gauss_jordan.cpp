#include "core/gauss_jordan.hpp"

#include <array>
#include <cmath>

#include "base/macros.hpp"
#include "core/batch_driver.hpp"

namespace vbatch::core {

namespace {

/// Kernel body shared by the plain and monitored entry points (the
/// monitor hooks compile away for NullPivotMonitor).
template <typename T, typename Monitor>
index_type gauss_jordan_invert_impl(MatrixView<T> a, Monitor& mon) {
    VBATCH_ENSURE_DIMS(a.rows() == a.cols());
    const index_type m = a.rows();
    if constexpr (Monitor::enabled) {
        for (index_type j = 0; j < m; ++j) {
            for (index_type i = 0; i < m; ++i) {
                mon.entry(static_cast<double>(std::abs(a(i, j))));
            }
        }
    }
    std::array<index_type, max_block_size> pstate;
    std::array<index_type, max_block_size> perm;
    pstate.fill(-1);

    for (index_type k = 0; k < m; ++k) {
        // Implicit pivot: largest |a(i, k)| among rows not yet used.
        index_type piv = -1;
        T best{};
        for (index_type i = 0; i < m; ++i) {
            if (pstate[i] >= 0) {
                continue;
            }
            const T v = std::abs(a(i, k));
            if (piv < 0 || v > best) {
                best = v;
                piv = i;
            }
        }
        if (best == T{}) {
            return k + 1;
        }
        if constexpr (Monitor::enabled) {
            mon.pivot(static_cast<double>(best));
        }
        perm[k] = piv;
        pstate[piv] = k;

        // In-place Jordan transformation with the pivot row in place:
        //   pivot row    : row /= d, diagonal slot becomes 1/d
        //   other rows   : row -= e * pivot_row, column-k slot -e/d
        const T d = a(piv, k);
        const T dinv = T{1} / d;
        for (index_type j = 0; j < m; ++j) {
            if (j != k) {
                a(piv, j) *= dinv;
            }
        }
        a(piv, k) = dinv;
        for (index_type i = 0; i < m; ++i) {
            if (i == piv) {
                continue;
            }
            const T e = a(i, k);
            for (index_type j = 0; j < m; ++j) {
                if (j != k) {
                    a(i, j) -= e * a(piv, j);
                }
            }
            a(i, k) = -e * dinv;
        }
    }

    // Fused permutation writeback. With explicit pivoting the result of the
    // loop is (PA)^{-1} = A^{-1} P^T; undoing both the implicit row gather
    // and the trailing column permutation in one pass:
    //   out(r, perm[c]) = work(perm[r], c).
    std::array<T, static_cast<std::size_t>(max_block_size) * max_block_size>
        tmp;
    for (index_type j = 0; j < m; ++j) {
        for (index_type i = 0; i < m; ++i) {
            tmp[static_cast<std::size_t>(j) * m + i] = a(i, j);
        }
    }
    for (index_type c = 0; c < m; ++c) {
        for (index_type r = 0; r < m; ++r) {
            a(r, perm[c]) = tmp[static_cast<std::size_t>(c) * m + perm[r]];
        }
    }
    return 0;
}

}  // namespace

template <typename T>
index_type gauss_jordan_invert(MatrixView<T> a) {
    detail::NullPivotMonitor mon;
    return gauss_jordan_invert_impl(a, mon);
}

template <typename T>
index_type gauss_jordan_invert(MatrixView<T> a, FactorInfo& info) {
    detail::PivotMonitor mon;
    const index_type step = gauss_jordan_invert_impl(a, mon);
    info = mon.finish(step);
    return step;
}

template <typename T>
FactorizeStatus gauss_jordan_batch(BatchedMatrices<T>& a,
                                   const GetrfOptions& opts) {
    return detail::run_factorize_batch(
        a.count(), opts, "batched Gauss-Jordan breakdown",
        [&](size_type i, FactorInfo* info) {
            return info != nullptr ? gauss_jordan_invert(a.view(i), *info)
                                   : gauss_jordan_invert(a.view(i));
        });
}

template <typename T>
void apply_inverse_batch(const BatchedMatrices<T>& inv, BatchedVectors<T>& x,
                         bool parallel) {
    VBATCH_ENSURE(inv.layout() == x.layout(), "batch layouts differ");
    const auto body = [&](size_type b) {
        const auto a = inv.view(b);
        auto xi = x.span(b);
        const index_type m = a.rows();
        std::array<T, max_block_size> y{};
        for (index_type j = 0; j < m; ++j) {
            const T xj = xi[static_cast<std::size_t>(j)];
            const T* col = a.col(j);
            for (index_type i = 0; i < m; ++i) {
                y[static_cast<std::size_t>(i)] += col[i] * xj;
            }
        }
        for (index_type i = 0; i < m; ++i) {
            xi[static_cast<std::size_t>(i)] = y[static_cast<std::size_t>(i)];
        }
    };
    if (parallel) {
        ThreadPool::global().parallel_for(0, inv.count(), body,
                                          batch_entry_grain);
    } else {
        for (size_type i = 0; i < inv.count(); ++i) {
            body(i);
        }
    }
}

#define VBATCH_INSTANTIATE_GJE(T)                                           \
    template index_type gauss_jordan_invert<T>(MatrixView<T>);              \
    template index_type gauss_jordan_invert<T>(MatrixView<T>, FactorInfo&); \
    template FactorizeStatus gauss_jordan_batch<T>(BatchedMatrices<T>&,     \
                                                   const GetrfOptions&);    \
    template void apply_inverse_batch<T>(const BatchedMatrices<T>&,         \
                                         BatchedVectors<T>&, bool)

VBATCH_INSTANTIATE_GJE(float);
VBATCH_INSTANTIATE_GJE(double);

#undef VBATCH_INSTANTIATE_GJE

}  // namespace vbatch::core
