#include "core/simt_kernels.hpp"

#include <array>
#include <cmath>

#include "base/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vbatch::core {

using simt::first_lanes;
using simt::full_mask;
using simt::lane_mask;
using simt::lane_range;
using simt::Reg;
using simt::Warp;

namespace {

void fill_tail_permutation(std::span<index_type> perm, lane_mask unpivoted,
                           index_type m, index_type from_step) {
    index_type next = from_step;
    for (index_type i = 0; i < m; ++i) {
        if (unpivoted & (1u << i)) {
            perm[next++] = i;
        }
    }
}

}  // namespace

template <typename T>
index_type getrf_warp(Warp& warp, MatrixView<T> a,
                      std::span<index_type> perm, bool padded_update) {
    VBATCH_ENSURE_DIMS(a.rows() == a.cols());
    const index_type m = a.rows();
    const lane_mask rows_m = first_lanes(m);

    // Read the system matrix once, one coalesced column per load; the
    // padded columns j >= m keep their zero registers.
    std::array<Reg<T>, warp_size> A{};
    for (index_type j = 0; j < m; ++j) {
        A[j] = warp.load_global_strided(rows_m, a.col(j));
    }

    // All 32 lanes carry the "not yet pivoted" predicate -- including the
    // padding lanes, which therefore join every SCAL/GER on zero data.
    lane_mask unpivoted = full_mask;
    for (index_type k = 0; k < m; ++k) {
        const auto [best, piv] = warp.reduce_absmax(unpivoted & rows_m, A[k]);
        if (best == T{}) {
            fill_tail_permutation(perm, unpivoted & rows_m, m, k);
            return k + 1;
        }
        perm[k] = piv;
        unpivoted &= ~(1u << piv);

        const T d = warp.shfl(A[k], piv);
        A[k] = warp.div_scalar(unpivoted, A[k], d, unpivoted & rows_m);
        // Eager right-looking update over the *padded* trailing block:
        // the loop bound is the warp width, not m (Section IV.B), unless
        // the unpadded future-work variant was requested.
        const index_type jmax = padded_update ? warp_size : m;
        for (index_type j = k + 1; j < jmax; ++j) {
            const T akj = warp.shfl(A[j], piv);
            const lane_mask useful = j < m ? (unpivoted & rows_m) : 0u;
            A[j] = warp.fnma_scalar(unpivoted, A[k], akj, A[j], useful);
        }
    }

    // Write back L and U with the combined row swap fused into the store:
    // lane l stores factor row l, whose data lives in lane perm[l].
    Reg<index_type> gather{};
    for (index_type l = 0; l < m; ++l) {
        gather[l] = perm[l];
    }
    for (index_type j = 0; j < m; ++j) {
        const auto permuted = warp.shfl_indexed(rows_m, A[j], gather);
        warp.store_global_strided(rows_m, a.col(j), permuted);
    }
    warp.store_global_strided(rows_m, perm.data(), gather);
    return 0;
}

template <typename T>
void getrs_warp(Warp& warp, ConstMatrixView<T> lu,
                std::span<const index_type> perm, std::span<T> b,
                TrsvVariant variant) {
    const index_type m = lu.rows();
    VBATCH_ENSURE_DIMS(m == static_cast<index_type>(b.size()));
    const lane_mask rows_m = first_lanes(m);

    // Load the pivot gather indices, then b with the permutation fused
    // into the load: lane l receives b[perm[l]].
    const auto gather = warp.load_global_strided(rows_m, perm.data());
    Reg<const T*> baddr{};
    Warp::for_each_lane(rows_m, [&](int l) {
        baddr[l] = b.data() + gather[l];
    });
    auto x = warp.load_global(rows_m, baddr);

    if (variant == TrsvVariant::eager) {
        // Unit lower solve: one coalesced column of L per step.
        for (index_type k = 0; k + 1 < m; ++k) {
            const lane_mask active = lane_range(k + 1, m);
            const auto lcol = warp.load_global_strided(active, lu.col(k));
            const T bk = warp.shfl(x, k);
            x = warp.fnma_scalar(active, lcol, bk, x, active);
        }
        // Upper solve: one coalesced column of U per step, backwards.
        for (index_type k = m - 1; k >= 0; --k) {
            const auto ucol =
                warp.load_global_strided(first_lanes(k + 1), lu.col(k));
            const T ukk = warp.shfl(ucol, k);
            x = warp.div_scalar(1u << k, x, ukk, 1u << k);
            const T bk = warp.shfl(x, k);
            x = warp.fnma_scalar(first_lanes(k), ucol, bk, x, first_lanes(k));
        }
    } else {
        // Lazy: per step, the lanes gather one *row* of the factor (a
        // strided, non-coalesced read) and reduce a dot product.
        for (index_type k = 1; k < m; ++k) {
            Reg<const T*> addr{};
            Warp::for_each_lane(first_lanes(k), [&](int j) {
                addr[j] = lu.data() +
                          static_cast<std::size_t>(j) * lu.ld() + k;
            });
            const auto lrow = warp.load_global(first_lanes(k), addr);
            const auto prod = warp.mul(first_lanes(k), lrow, x,
                                       first_lanes(k));
            const T acc = warp.reduce_sum(first_lanes(k), prod);
            const auto accreg = Warp::broadcast_value(acc);
            x = warp.fnma_scalar(1u << k, accreg, T{1}, x, 1u << k);
        }
        for (index_type k = m - 1; k >= 0; --k) {
            Reg<const T*> addr{};
            Warp::for_each_lane(lane_range(k + 1, m), [&](int j) {
                addr[j] = lu.data() +
                          static_cast<std::size_t>(j) * lu.ld() + k;
            });
            const auto urow = warp.load_global(lane_range(k + 1, m), addr);
            const auto prod =
                warp.mul(lane_range(k + 1, m), urow, x, lane_range(k + 1, m));
            const T acc = k + 1 < m
                              ? warp.reduce_sum(lane_range(k + 1, m), prod)
                              : T{};
            const auto accreg = Warp::broadcast_value(acc);
            x = warp.fnma_scalar(1u << k, accreg, T{1}, x, 1u << k);
            const T ukk = lu(k, k);
            warp.stats().load_requests += 1;  // diagonal element
            warp.stats().load_transactions += 1;
            x = warp.div_scalar(1u << k, x, ukk, 1u << k);
        }
    }

    warp.store_global_strided(rows_m, b.data(), x);
}

template <typename T>
index_type gauss_huard_warp(Warp& warp, MatrixView<T> a,
                            std::span<index_type> cperm, GhStorage storage) {
    VBATCH_ENSURE_DIMS(a.rows() == a.cols());
    const index_type m = a.rows();
    const lane_mask cols_m = first_lanes(m);

    // Load coalesced column-by-column, then redistribute so that lane j
    // owns column j (a register transpose; a 32x32 xor-shuffle transpose
    // amortizes to log2(32) = 5 shuffle issues per vector).
    std::array<Reg<T>, warp_size> R{};  // R[i][j] = a(i, j)
    for (index_type j = 0; j < m; ++j) {
        const auto col = warp.load_global_strided(first_lanes(m), a.col(j));
        warp.stats().shuffle_instructions += 5;
        for (index_type i = 0; i < m; ++i) {
            R[i][j] = col[i];
        }
    }

    lane_mask unpivoted = full_mask;  // padded columns participate
    for (index_type k = 0; k < m; ++k) {
        // Lazy update of row k, one AXPY per previous pivot. Unlike LU,
        // the multiplier needs the pivot-column list (cperm) -- the
        // per-thread replication the paper contrasts with LU's
        // history-free implicit pivoting.
        for (index_type i = 0; i < k; ++i) {
            const T mult = warp.shfl(R[k], cperm[i]);
            R[k] = warp.fnma_scalar(unpivoted, R[i], mult, R[k],
                                    unpivoted & cols_m);
        }
        const auto [best, piv] = warp.reduce_absmax(unpivoted & cols_m, R[k]);
        if (best == T{}) {
            fill_tail_permutation(cperm, unpivoted & cols_m, m, k);
            return k + 1;
        }
        cperm[k] = piv;
        unpivoted &= ~(1u << piv);

        const T d = warp.shfl(R[k], piv);
        R[k] = warp.div_scalar(unpivoted, R[k], d, unpivoted & cols_m);
        // Eliminate the pivot column above the diagonal.
        for (index_type i = 0; i < k; ++i) {
            const T mult = warp.shfl(R[i], piv);
            R[i] = warp.fnma_scalar(unpivoted, R[k], mult, R[i],
                                    unpivoted & cols_m);
        }
    }

    // Fused writeback of the column-gathered factors. pos[j] = pivot-order
    // position of column j. GH stores row-major -- for a store of factor
    // row i, the lane addresses {i*m + pos_j} are a permutation of a
    // contiguous range, hence coalesced. GH-T stores column-major: lane
    // addresses {pos_j*m + i} are m-strided, hence one transaction per
    // lane. The sector counter reproduces both effects without special
    // cases.
    std::array<index_type, warp_size> pos{};
    for (index_type k = 0; k < m; ++k) {
        pos[static_cast<std::size_t>(cperm[k])] = k;
    }
    for (index_type i = 0; i < m; ++i) {
        Reg<T*> addr{};
        Reg<T> vals{};
        Warp::for_each_lane(cols_m, [&](int j) {
            const auto p = static_cast<std::size_t>(pos[j]);
            if (storage == GhStorage::standard) {
                // factor element (i, pos_j) at row-major slot (i, pos_j)
                // = view position (pos_j, i)
                addr[j] = a.data() + static_cast<std::size_t>(i) * a.ld() + p;
            } else {
                addr[j] = a.data() + p * a.ld() + i;
            }
            vals[j] = R[i][j];
        });
        warp.store_global(cols_m, addr, vals);
    }
    if (storage == GhStorage::transposed) {
        // GH-T also writes the transpose-friendly copy of the row
        // multipliers consumed by the solve's forward dot (billing only;
        // the emulation keeps the data fused in the primary container).
        for (index_type k = 1; k < m; ++k) {
            Reg<T*> addr{};
            Warp::for_each_lane(first_lanes(k), [&](int i) {
                addr[i] = a.data() +
                          static_cast<std::size_t>(k) * a.ld() + i;
            });
            warp.account_store(first_lanes(k), addr);
        }
    }
    Reg<index_type> permreg{};
    for (index_type k = 0; k < m; ++k) {
        permreg[k] = cperm[k];
    }
    warp.store_global_strided(cols_m, cperm.data(), permreg);
    return 0;
}

template <typename T>
void gauss_huard_solve_warp(Warp& warp, ConstMatrixView<T> f,
                            std::span<const index_type> cperm,
                            std::span<T> b, GhStorage storage) {
    const index_type m = f.rows();
    VBATCH_ENSURE_DIMS(m == static_cast<index_type>(b.size()));
    const lane_mask rows_m = first_lanes(m);
    // Factor element (i, j) of the pivot-ordered decomposition; the two
    // storages put it at transposed container positions (gauss_huard.cpp).
    const auto fa = [&](index_type i, index_type j) {
        return storage == GhStorage::standard ? f(j, i) : f(i, j);
    };

    auto x = warp.load_global_strided(rows_m, b.data());
    for (index_type k = 0; k < m; ++k) {
        // Step k processes b like the factorization processes a column:
        // (1) dot of factor-row k's left part with the current b values,
        // (2) pivot division, (3) Jordan update of the leading entries.
        if (k > 0) {
            const lane_mask left = first_lanes(k);
            // (1) Row read fa(k, 0:k-1). GH (row-major) keeps this
            // contiguous; GH-T serves it from the transpose-friendly
            // auxiliary multiplier copy written during factorization --
            // contiguous as well, so we bill the same address shape.
            Reg<const T*> raddr{};
            Reg<T> lrow{};
            Warp::for_each_lane(left, [&](int i) {
                raddr[i] = f.data() +
                           static_cast<std::size_t>(k) * f.ld() + i;
                lrow[i] = fa(k, i);
            });
            warp.account_load(left, raddr);
            const auto prod = warp.mul(left, lrow, x, left);
            const T acc = warp.reduce_sum(left, prod);
            const auto accreg = Warp::broadcast_value(acc);
            x = warp.fnma_scalar(1u << k, accreg, T{1}, x, 1u << k);
        }
        // (2) divide by the pivot.
        const T dkk = fa(k, k);
        warp.stats().load_requests += 1;
        warp.stats().load_transactions += 1;
        x = warp.div_scalar(1u << k, x, dkk, 1u << k);
        const T yk = warp.shfl(x, k);
        // (3) Jordan column read fa(0:k-1, k): strided in GH's row-major
        // layout (the non-coalesced reads of Fig. 7), contiguous in GH-T.
        if (k > 0) {
            const lane_mask left = first_lanes(k);
            Reg<const T*> caddr{};
            Reg<T> ucol{};
            Warp::for_each_lane(left, [&](int i) {
                if (storage == GhStorage::standard) {
                    caddr[i] = f.data() +
                               static_cast<std::size_t>(i) * f.ld() + k;
                } else {
                    caddr[i] = f.data() +
                               static_cast<std::size_t>(k) * f.ld() + i;
                }
                ucol[i] = fa(i, k);
            });
            warp.account_load(left, caddr);
            x = warp.fnma_scalar(left, ucol, yk, x, left);
        }
    }

    // Column pivoting permuted the unknowns: scatter through cperm on the
    // way out (fused into the store, like the LU load fuses P).
    const auto gather = warp.load_global_strided(rows_m, cperm.data());
    Reg<T*> out{};
    Warp::for_each_lane(rows_m, [&](int k) {
        out[k] = b.data() + gather[k];
    });
    warp.store_global(rows_m, out, x);
}

// ---------------------------------------------------------------------
// Batch drivers
// ---------------------------------------------------------------------

simt::KernelStats SimtBatchResult::extrapolated() const {
    if (emulated == 0 || emulated == total) {
        return stats;
    }
    const double scale = static_cast<double>(total) /
                         static_cast<double>(emulated);
    auto scaled = stats;
    const auto mul = [scale](size_type v) {
        return static_cast<size_type>(static_cast<double>(v) * scale + 0.5);
    };
    scaled.fp_instructions = mul(stats.fp_instructions);
    scaled.div_instructions = mul(stats.div_instructions);
    scaled.shuffle_instructions = mul(stats.shuffle_instructions);
    scaled.misc_instructions = mul(stats.misc_instructions);
    scaled.useful_flops = mul(stats.useful_flops);
    scaled.load_transactions = mul(stats.load_transactions);
    scaled.store_transactions = mul(stats.store_transactions);
    scaled.load_requests = mul(stats.load_requests);
    scaled.store_requests = mul(stats.store_requests);
    scaled.load_replays = mul(stats.load_replays);
    scaled.store_replays = mul(stats.store_replays);
    scaled.shared_accesses = mul(stats.shared_accesses);
    scaled.shared_bank_conflicts = mul(stats.shared_bank_conflicts);
    return scaled;
}

namespace {

template <typename Body>
SimtBatchResult drive(size_type total, const SimtBatchOptions& opts,
                      Body&& body) {
    SimtBatchResult result;
    result.total = total;
    const size_type limit =
        (opts.sample_limit > 0 && opts.sample_limit < total)
            ? opts.sample_limit
            : total;
    Warp warp;
    for (size_type i = 0; i < limit; ++i) {
        const index_type info = body(warp, i);
        if (info != 0) {
            ++result.status.failures;
            if (result.status.first_failure < 0) {
                result.status.first_failure = i;
            }
        }
    }
    result.emulated = limit;
    result.stats = warp.stats();
    return result;
}

/// Fold one launch's (extrapolated) counters into the metrics registry
/// under the kernel family name.
SimtBatchResult record_family(const char* family, SimtBatchResult result) {
    obs::Registry::global().record_kernel(family, result.extrapolated(),
                                          result.total);
    return result;
}

}  // namespace

template <typename T>
SimtBatchResult getrf_batch_simt(BatchedMatrices<T>& a, BatchedPivots& perm,
                                 const SimtBatchOptions& opts) {
    VBATCH_ENSURE(a.layout() == perm.layout(), "batch layouts differ");
    obs::TraceRegion trace("getrf_batch_simt");
    return record_family(
        "getrf", drive(a.count(), opts, [&](Warp& w, size_type i) {
            return getrf_warp(w, a.view(i), perm.span(i),
                              opts.padded_update);
        }));
}

template <typename T>
SimtBatchResult getrs_batch_simt(const BatchedMatrices<T>& lu,
                                 const BatchedPivots& perm,
                                 BatchedVectors<T>& b, TrsvVariant variant,
                                 const SimtBatchOptions& opts) {
    VBATCH_ENSURE(lu.layout() == perm.layout() && lu.layout() == b.layout(),
                  "batch layouts differ");
    obs::TraceRegion trace("getrs_batch_simt");
    return record_family(
        "trsv", drive(lu.count(), opts, [&](Warp& w, size_type i) {
            getrs_warp(w, lu.view(i), perm.span(i), b.span(i), variant);
            return index_type{0};
        }));
}

template <typename T>
SimtBatchResult gauss_huard_batch_simt(BatchedMatrices<T>& a,
                                       BatchedPivots& cperm,
                                       GhStorage storage,
                                       const SimtBatchOptions& opts) {
    VBATCH_ENSURE(a.layout() == cperm.layout(), "batch layouts differ");
    obs::TraceRegion trace("gauss_huard_batch_simt");
    return record_family(
        "gauss_huard", drive(a.count(), opts, [&](Warp& w, size_type i) {
            return gauss_huard_warp(w, a.view(i), cperm.span(i), storage);
        }));
}

template <typename T>
SimtBatchResult gauss_huard_solve_batch_simt(const BatchedMatrices<T>& f,
                                             const BatchedPivots& cperm,
                                             BatchedVectors<T>& b,
                                             GhStorage storage,
                                             const SimtBatchOptions& opts) {
    VBATCH_ENSURE(f.layout() == cperm.layout() && f.layout() == b.layout(),
                  "batch layouts differ");
    obs::TraceRegion trace("gauss_huard_solve_batch_simt");
    return record_family(
        "gauss_huard_solve",
        drive(f.count(), opts, [&](Warp& w, size_type i) {
            gauss_huard_solve_warp(w, f.view(i), cperm.span(i), b.span(i),
                                   storage);
            return index_type{0};
        }));
}

#define VBATCH_INSTANTIATE_SIMT(T)                                           \
    template index_type getrf_warp<T>(Warp&, MatrixView<T>,                  \
                                      std::span<index_type>, bool);          \
    template void getrs_warp<T>(Warp&, ConstMatrixView<T>,                   \
                                std::span<const index_type>, std::span<T>,   \
                                TrsvVariant);                                \
    template index_type gauss_huard_warp<T>(Warp&, MatrixView<T>,            \
                                            std::span<index_type>,           \
                                            GhStorage);                      \
    template void gauss_huard_solve_warp<T>(Warp&, ConstMatrixView<T>,       \
                                            std::span<const index_type>,     \
                                            std::span<T>, GhStorage);        \
    template SimtBatchResult getrf_batch_simt<T>(BatchedMatrices<T>&,        \
                                                 BatchedPivots&,             \
                                                 const SimtBatchOptions&);   \
    template SimtBatchResult getrs_batch_simt<T>(                            \
        const BatchedMatrices<T>&, const BatchedPivots&, BatchedVectors<T>&, \
        TrsvVariant, const SimtBatchOptions&);                               \
    template SimtBatchResult gauss_huard_batch_simt<T>(                      \
        BatchedMatrices<T>&, BatchedPivots&, GhStorage,                      \
        const SimtBatchOptions&);                                            \
    template SimtBatchResult gauss_huard_solve_batch_simt<T>(                \
        const BatchedMatrices<T>&, const BatchedPivots&, BatchedVectors<T>&, \
        GhStorage, const SimtBatchOptions&)

VBATCH_INSTANTIATE_SIMT(float);
VBATCH_INSTANTIATE_SIMT(double);

#undef VBATCH_INSTANTIATE_SIMT

}  // namespace vbatch::core
