#include "core/getrf.hpp"

#include <array>
#include <cmath>

#include "base/macros.hpp"
#include "core/batch_driver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vbatch::core {

namespace {

/// Shared writeback: gather rows so that row k of the output holds the
/// factor row of pivot k (the "combined row swap" the paper fuses into
/// the off-load of L and U).
template <typename T>
void apply_row_gather(MatrixView<T> a, std::span<const index_type> perm) {
    const index_type m = a.rows();
    std::array<T, static_cast<std::size_t>(max_block_size) * max_block_size>
        tmp;
    for (index_type j = 0; j < m; ++j) {
        for (index_type i = 0; i < m; ++i) {
            tmp[static_cast<std::size_t>(j) * m + i] = a(i, j);
        }
    }
    for (index_type j = 0; j < m; ++j) {
        for (index_type k = 0; k < m; ++k) {
            a(k, j) = tmp[static_cast<std::size_t>(j) * m + perm[k]];
        }
    }
}

/// Fill the tail of a permutation after breakdown so it remains a valid
/// gather (unpivoted rows in original order).
void complete_permutation(std::span<index_type> perm,
                          std::span<const index_type> pstate,
                          index_type from_step) {
    index_type next = from_step;
    for (index_type i = 0; i < static_cast<index_type>(pstate.size()); ++i) {
        if (pstate[i] < 0) {
            perm[next++] = i;
        }
    }
}

/// Kernel body shared by the plain and monitored entry points. The
/// monitor hooks vanish for NullPivotMonitor, so the default
/// instantiation compiles to exactly the pre-monitor kernel.
template <typename T, typename Monitor>
index_type getrf_implicit_impl(MatrixView<T> a, std::span<index_type> perm,
                               Monitor& mon) {
    VBATCH_ENSURE_DIMS(a.rows() == a.cols());
    VBATCH_ENSURE_DIMS(static_cast<index_type>(perm.size()) >= a.rows());
    const index_type m = a.rows();
    if constexpr (Monitor::enabled) {
        for (index_type j = 0; j < m; ++j) {
            for (index_type i = 0; i < m; ++i) {
                mon.entry(static_cast<double>(std::abs(a(i, j))));
            }
        }
    }
    // pstate[i] = step at which row i was chosen as pivot, or -1.
    std::array<index_type, max_block_size> pstate;
    pstate.fill(-1);

    for (index_type k = 0; k < m; ++k) {
        // Implicit pivot selection: max |a(i, k)| over not-yet-pivoted rows.
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
            complete_permutation(perm, {pstate.data(),
                                        static_cast<std::size_t>(m)}, k);
            return k + 1;
        }
        if constexpr (Monitor::enabled) {
            mon.pivot(static_cast<double>(best));
        }
        perm[k] = piv;
        pstate[piv] = k;

        // Gauss transformation on the rows that are still unpivoted. Each
        // row only needs its own elements and the pivot row -- the key
        // observation that makes implicit pivoting free of communication.
        const T d = a(piv, k);
        T* colk = a.col(k);
        for (index_type i = 0; i < m; ++i) {
            if (pstate[i] < 0) {
                colk[i] /= d;  // SCAL
            }
        }
        for (index_type j = k + 1; j < m; ++j) {
            const T akj = a(piv, j);
            T* colj = a.col(j);
            for (index_type i = 0; i < m; ++i) {
                if (pstate[i] < 0) {
                    colj[i] -= colk[i] * akj;  // GER
                }
            }
        }
    }
    // Combined row swap, fused with the writeback on the GPU.
    apply_row_gather(a, perm.subspan(0, static_cast<std::size_t>(m)));
    return 0;
}

}  // namespace

template <typename T>
index_type getrf_implicit(MatrixView<T> a, std::span<index_type> perm) {
    detail::NullPivotMonitor mon;
    return getrf_implicit_impl(a, perm, mon);
}

template <typename T>
index_type getrf_implicit(MatrixView<T> a, std::span<index_type> perm,
                          FactorInfo& info) {
    detail::PivotMonitor mon;
    const index_type step = getrf_implicit_impl(a, perm, mon);
    info = mon.finish(step);
    return step;
}

template <typename T>
index_type getrf_explicit(MatrixView<T> a, std::span<index_type> perm) {
    VBATCH_ENSURE_DIMS(a.rows() == a.cols());
    VBATCH_ENSURE_DIMS(static_cast<index_type>(perm.size()) >= a.rows());
    const index_type m = a.rows();
    // pos[k] = original index of the row currently stored at position k.
    std::array<index_type, max_block_size> pos;
    for (index_type i = 0; i < m; ++i) {
        pos[i] = i;
    }
    for (index_type k = 0; k < m; ++k) {
        index_type piv = k;
        T best = std::abs(a(k, k));
        for (index_type i = k + 1; i < m; ++i) {
            const T v = std::abs(a(i, k));
            if (v > best) {
                best = v;
                piv = i;
            }
        }
        if (best == T{}) {
            for (index_type r = k; r < m; ++r) {
                perm[r] = pos[r];
            }
            return k + 1;
        }
        if (piv != k) {
            for (index_type j = 0; j < m; ++j) {
                std::swap(a(k, j), a(piv, j));
            }
            std::swap(pos[k], pos[piv]);
        }
        perm[k] = pos[k];
        const T d = a(k, k);
        T* colk = a.col(k);
        for (index_type i = k + 1; i < m; ++i) {
            colk[i] /= d;
        }
        for (index_type j = k + 1; j < m; ++j) {
            const T akj = a(k, j);
            T* colj = a.col(j);
            for (index_type i = k + 1; i < m; ++i) {
                colj[i] -= colk[i] * akj;
            }
        }
    }
    return 0;
}

template <typename T>
FactorizeStatus getrf_batch(BatchedMatrices<T>& a, BatchedPivots& perm,
                            const GetrfOptions& opts) {
    VBATCH_ENSURE(a.layout() == perm.layout(),
                  "matrix and pivot batch layouts differ");
    obs::TraceRegion trace("getrf_batch");
    obs::count("getrf.launches");
    obs::count("getrf.problems", static_cast<double>(a.count()));
    return detail::run_factorize_batch(
        a.count(), opts, "batched LU breakdown: exact zero pivot",
        [&](size_type i, FactorInfo* info) {
            return info != nullptr
                       ? getrf_implicit(a.view(i), perm.span(i), *info)
                       : getrf_implicit(a.view(i), perm.span(i));
        });
}

template <typename T>
FactorizeStatus getrf_batch_explicit(BatchedMatrices<T>& a,
                                     BatchedPivots& perm,
                                     const GetrfOptions& opts) {
    VBATCH_ENSURE(a.layout() == perm.layout(),
                  "matrix and pivot batch layouts differ");
    obs::TraceRegion trace("getrf_batch_explicit");
    return detail::run_factorize_batch(
        a.count(), opts, "batched LU breakdown: exact zero pivot",
        [&](size_type i, FactorInfo* info) {
            // The explicit-pivot ablation kernel reports breakdown only;
            // monitoring is the implicit kernel's feature.
            (void)info;
            return getrf_explicit(a.view(i), perm.span(i));
        });
}

#define VBATCH_INSTANTIATE_GETRF(T)                                          \
    template index_type getrf_implicit<T>(MatrixView<T>,                     \
                                          std::span<index_type>);            \
    template index_type getrf_implicit<T>(MatrixView<T>,                     \
                                          std::span<index_type>,             \
                                          FactorInfo&);                      \
    template index_type getrf_explicit<T>(MatrixView<T>,                     \
                                          std::span<index_type>);            \
    template FactorizeStatus getrf_batch<T>(BatchedMatrices<T>&,             \
                                            BatchedPivots&,                  \
                                            const GetrfOptions&);            \
    template FactorizeStatus getrf_batch_explicit<T>(BatchedMatrices<T>&,    \
                                                     BatchedPivots&,         \
                                                     const GetrfOptions&)

VBATCH_INSTANTIATE_GETRF(float);
VBATCH_INSTANTIATE_GETRF(double);

#undef VBATCH_INSTANTIATE_GETRF

}  // namespace vbatch::core
