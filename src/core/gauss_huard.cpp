#include "core/gauss_huard.hpp"

#include <array>
#include <cmath>

#include "base/macros.hpp"
#include "core/batch_driver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vbatch::core {

namespace {

/// Gather columns into pivot order (and optionally transpose) -- the
/// "combined column swap" fused into the factor writeback.
template <typename T>
void apply_column_gather(MatrixView<T> a, std::span<const index_type> cperm,
                         GhStorage storage) {
    const index_type m = a.rows();
    std::array<T, static_cast<std::size_t>(max_block_size) * max_block_size>
        tmp;
    for (index_type j = 0; j < m; ++j) {
        for (index_type i = 0; i < m; ++i) {
            tmp[static_cast<std::size_t>(j) * m + i] = a(i, j);
        }
    }
    for (index_type k = 0; k < m; ++k) {
        const auto src = static_cast<std::size_t>(cperm[k]) * m;
        for (index_type i = 0; i < m; ++i) {
            if (storage == GhStorage::standard) {
                // Row-major layout: factor element (i, k) lands at view
                // position (k, i). On the GPU this is the coalesced write
                // path out of the lane-per-column register layout.
                a(k, i) = tmp[src + i];
            } else {
                // GH-T: column-major ("transpose access-friendly") layout,
                // paid for with non-coalesced writes.
                a(i, k) = tmp[src + i];
            }
        }
    }
}

void complete_column_permutation(std::span<index_type> cperm,
                                 std::span<const index_type> cstate,
                                 index_type from_step) {
    index_type next = from_step;
    for (index_type j = 0; j < static_cast<index_type>(cstate.size()); ++j) {
        if (cstate[j] < 0) {
            cperm[next++] = j;
        }
    }
}

/// Kernel body shared by the plain and monitored entry points (the
/// monitor hooks compile away for NullPivotMonitor).
template <typename T, typename Monitor>
index_type gauss_huard_factorize_impl(MatrixView<T> a,
                                      std::span<index_type> cperm,
                                      GhStorage storage, Monitor& mon) {
    VBATCH_ENSURE_DIMS(a.rows() == a.cols());
    VBATCH_ENSURE_DIMS(static_cast<index_type>(cperm.size()) >= a.rows());
    const index_type m = a.rows();
    if constexpr (Monitor::enabled) {
        for (index_type j = 0; j < m; ++j) {
            for (index_type i = 0; i < m; ++i) {
                mon.entry(static_cast<double>(std::abs(a(i, j))));
            }
        }
    }
    std::array<index_type, max_block_size> cstate;
    cstate.fill(-1);

    for (index_type k = 0; k < m; ++k) {
        // Lazy update of row k on the not-yet-pivoted columns, using the
        // previously computed factor rows: a(k,j) -= sum_i a(k,p_i)*a(i,j).
        // Applied as one AXPY per previous pivot (the order the warp kernel
        // executes, so both backends round identically). The multiplier
        // a(k, p_i) sits in an already-pivoted column and is never touched
        // by these updates.
        for (index_type i = 0; i < k; ++i) {
            const T mult = a(k, cperm[i]);
            for (index_type j = 0; j < m; ++j) {
                if (cstate[j] < 0) {
                    a(k, j) -= mult * a(i, j);
                }
            }
        }
        // Implicit column pivot: max |a(k, j)| over unpivoted columns.
        index_type piv = -1;
        T best{};
        for (index_type j = 0; j < m; ++j) {
            if (cstate[j] >= 0) {
                continue;
            }
            const T v = std::abs(a(k, j));
            if (piv < 0 || v > best) {
                best = v;
                piv = j;
            }
        }
        if (best == T{}) {
            complete_column_permutation(
                cperm, {cstate.data(), static_cast<std::size_t>(m)}, k);
            return k + 1;
        }
        if constexpr (Monitor::enabled) {
            mon.pivot(static_cast<double>(best));
        }
        cperm[k] = piv;
        cstate[piv] = k;

        // Scale the remainder of row k by the pivot.
        const T d = a(k, piv);
        for (index_type j = 0; j < m; ++j) {
            if (cstate[j] < 0) {
                a(k, j) /= d;
            }
        }
        // Eliminate the pivot column above the diagonal.
        for (index_type i = 0; i < k; ++i) {
            const T mult = a(i, piv);
            for (index_type j = 0; j < m; ++j) {
                if (cstate[j] < 0) {
                    a(i, j) -= mult * a(k, j);
                }
            }
        }
    }
    apply_column_gather(a, cperm.subspan(0, static_cast<std::size_t>(m)),
                        storage);
    return 0;
}

}  // namespace

template <typename T>
index_type gauss_huard_factorize(MatrixView<T> a,
                                 std::span<index_type> cperm,
                                 GhStorage storage) {
    detail::NullPivotMonitor mon;
    return gauss_huard_factorize_impl(a, cperm, storage, mon);
}

template <typename T>
index_type gauss_huard_factorize(MatrixView<T> a,
                                 std::span<index_type> cperm,
                                 GhStorage storage, FactorInfo& info) {
    detail::PivotMonitor mon;
    const index_type step = gauss_huard_factorize_impl(a, cperm, storage,
                                                       mon);
    info = mon.finish(step);
    return step;
}

template <typename T>
void gauss_huard_solve(ConstMatrixView<T> f,
                       std::span<const index_type> cperm, std::span<T> b,
                       GhStorage storage) {
    const index_type m = f.rows();
    VBATCH_ENSURE_DIMS(m == static_cast<index_type>(b.size()));
    // Factor element (i, j) in pivot-ordered coordinates: GH stores the
    // factors row-major, GH-T column-major (solve friendly).
    const auto fa = [&](index_type i, index_type j) {
        return storage == GhStorage::standard ? f(j, i) : f(i, j);
    };
    // The GH application processes b exactly like the factorization
    // processes a matrix column (Gauss-Jordan on the augmented column):
    //   1. forward: b_k -= sum_{i<k} fa(k,i) * b_i  using the *current*
    //      (Jordan-updated) values b_i -- NOT the eager LU-style y_i;
    //   2. divide by the pivot;
    //   3. Jordan: eliminate the new entry from the leading positions.
    // Per step this reads the left part of factor row k and the upper part
    // of factor column k; the storage orientation decides which of the two
    // is coalesced on the GPU (see simt_kernels.cpp).
    for (index_type k = 0; k < m; ++k) {
        T acc{};
        for (index_type i = 0; i < k; ++i) {
            acc += fa(k, i) * b[i];
        }
        b[k] = (b[k] - acc) / fa(k, k);
        const T yk = b[k];
        for (index_type i = 0; i < k; ++i) {
            b[i] -= fa(i, k) * yk;
        }
    }
    // Column pivoting permuted the unknowns: scatter back.
    std::array<T, max_block_size> x;
    for (index_type k = 0; k < m; ++k) {
        x[static_cast<std::size_t>(cperm[k])] = b[k];
    }
    for (index_type k = 0; k < m; ++k) {
        b[k] = x[static_cast<std::size_t>(k)];
    }
}

template <typename T>
FactorizeStatus gauss_huard_batch(BatchedMatrices<T>& a, BatchedPivots& cperm,
                                  GhStorage storage,
                                  const GetrfOptions& opts) {
    VBATCH_ENSURE(a.layout() == cperm.layout(),
                  "matrix and pivot batch layouts differ");
    obs::TraceRegion trace("gauss_huard_batch");
    obs::count("gauss_huard.launches");
    obs::count("gauss_huard.problems", static_cast<double>(a.count()));
    return detail::run_factorize_batch(
        a.count(), opts, "batched Gauss-Huard breakdown",
        [&](size_type i, FactorInfo* info) {
            return info != nullptr
                       ? gauss_huard_factorize(a.view(i), cperm.span(i),
                                               storage, *info)
                       : gauss_huard_factorize(a.view(i), cperm.span(i),
                                               storage);
        });
}

template <typename T>
void gauss_huard_solve_batch(const BatchedMatrices<T>& f,
                             const BatchedPivots& cperm, BatchedVectors<T>& b,
                             GhStorage storage, bool parallel) {
    VBATCH_ENSURE(f.layout() == cperm.layout() && f.layout() == b.layout(),
                  "batch layouts differ");
    const auto body = [&](size_type i) {
        gauss_huard_solve(f.view(i), cperm.span(i), b.span(i), storage);
    };
    if (parallel) {
        ThreadPool::global().parallel_for(0, f.count(), body,
                                          batch_entry_grain);
    } else {
        for (size_type i = 0; i < f.count(); ++i) {
            body(i);
        }
    }
}

#define VBATCH_INSTANTIATE_GH(T)                                             \
    template index_type gauss_huard_factorize<T>(                            \
        MatrixView<T>, std::span<index_type>, GhStorage);                    \
    template index_type gauss_huard_factorize<T>(                            \
        MatrixView<T>, std::span<index_type>, GhStorage, FactorInfo&);       \
    template void gauss_huard_solve<T>(ConstMatrixView<T>,                   \
                                       std::span<const index_type>,          \
                                       std::span<T>, GhStorage);             \
    template FactorizeStatus gauss_huard_batch<T>(                           \
        BatchedMatrices<T>&, BatchedPivots&, GhStorage,                      \
        const GetrfOptions&);                                                \
    template void gauss_huard_solve_batch<T>(const BatchedMatrices<T>&,      \
                                             const BatchedPivots&,           \
                                             BatchedVectors<T>&, GhStorage,  \
                                             bool)

VBATCH_INSTANTIATE_GH(float);
VBATCH_INSTANTIATE_GH(double);

#undef VBATCH_INSTANTIATE_GH

}  // namespace vbatch::core
