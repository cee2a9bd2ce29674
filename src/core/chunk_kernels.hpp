// Lane-parallel batched GETRF / GETRS over the interleaved layout,
// written once against the lanes-parametric SIMD facade (src/simd).
//
// This header replaces the per-TU textual stamping of the former
// interleaved_kernel_impl.inc: each per-ISA translation unit
// (vectorized_{scalar,sse2,avx2,avx512,neon}.cpp) instantiates these
// templates with its backend tag, so the same algorithm compiles once
// per vector width with no ODR overlap -- the backend headers only
// activate under the TU's own compile flags.
//
// The algorithm is the implicit-pivoting LU of getrf.cpp verbatim, with
// the matrix index mapped onto the SIMD lane: every scalar operation
// becomes one vector operation serving `width` factorizations, per-lane
// pivot choices are tracked with lane masks (pstate < 0 = row still
// unpivoted), and the only non-contiguous accesses are the per-lane pivot
// row reads, implemented as gathers. All arithmetic is performed with
// explicit mul/sub/div lane operations (never FMA-contracted; the build
// sets -ffp-contract=off so no backend can fuse them either), so the
// results are bitwise identical to the scalar reference on every backend.
#pragma once

#include <cstddef>
#include <limits>

#include "base/types.hpp"
#include "simd/simd.hpp"

namespace vbatch::core {

// ---------------------------------------------------------------------
// Chunk kernels: `a`, `perm`, `info` point at the chunk's first lane;
// lanes [0, Simd<T, Backend>::width) of this chunk are processed
// full-width.
// ---------------------------------------------------------------------

/// Implicit-pivoting LU of one lane chunk (the vector twin of
/// getrf_implicit). perm is written as a gather permutation, factors are
/// written back row-permuted; info[l] = 0 or the 1-based breakdown step,
/// and a broken lane's state matches the scalar kernel's early return.
template <typename T, typename Backend>
void getrf_chunk(T* a, index_type* perm, index_type* info,
                 const index_type m, const size_type stride) {
    using V = simd::Simd<T, Backend>;
    using M = typename V::mask;
    constexpr index_type w = V::width;
    if (m == 0) {
        for (index_type l = 0; l < w; ++l) {
            info[l] = 0;
        }
        return;
    }

    // Lane-interleaved workspaces (row index i lives at [i * w .. i*w+w)).
    alignas(64) T pstate[static_cast<std::size_t>(max_block_size) * w];
    alignas(64) T permw[static_cast<std::size_t>(max_block_size) * w];
    alignas(64) T tmp[static_cast<std::size_t>(max_block_size) * w];
    alignas(64) T pivw[w];
    // Per-step caches: the row-index vectors (int->T conversions hoisted
    // out of the hot loops) and the per-row update masks. updm[i] is the
    // mask "row i still updates in this lane" = active & (pstate[i] < 0);
    // it is maintained incrementally (one lane slot cleared per pivot, a
    // lane column wiped when it freezes) rather than recomputed per step.
    V rowidx[max_block_size];
    M updm[max_block_size];

    const V zero = V::zero();
    for (index_type i = 0; i < m; ++i) {
        V::broadcast(T{-1}).store(pstate + static_cast<std::size_t>(i) * w);
        const V idx = V::broadcast(static_cast<T>(i));
        idx.store(permw + static_cast<std::size_t>(i) * w);
        rowidx[i] = idx;
        updm[i] = M::all_lanes();
    }
    M active = M::all_lanes();
    V infov = zero;

    for (index_type k = 0; k < m; ++k) {
        T* colk = a + static_cast<size_type>(k) * m * stride;

        // Implicit pivot selection: per lane, the not-yet-pivoted row with
        // the largest |a(i, k)|; the first candidate is always taken so
        // ties (and NaNs) resolve exactly like the scalar reference.
        // updm doubles as the candidate mask (frozen lanes read all-false,
        // but their scan outputs are never consumed).
        V best = zero;
        V bestval = zero;
        V piv = zero;
        M unseen = M::all_lanes();
        for (index_type i = 0; i < m; ++i) {
            const M cand = updm[i];
            const V value = V::load(colk + static_cast<size_type>(i) * stride);
            const V mag = abs(value);
            const M take = cand & (unseen | (mag > best));
            best = V::select(take, mag, best);
            bestval = V::select(take, value, bestval);
            piv = V::select(take, rowidx[i], piv);
            unseen = andnot(unseen, cand);
        }

        // Exact-zero pivot: freeze the lane (its data and pivot state stop
        // changing, mirroring the scalar early return) and record the step.
        const M broke = active & (best == zero);
        if (broke.any()) {
            infov = V::select(broke, V::broadcast(static_cast<T>(k + 1)),
                              infov);
            active = andnot(active, broke);
            if (!active.any()) {
                break;
            }
            for (index_type i = 0; i < m; ++i) {
                updm[i] = andnot(updm[i], broke);
            }
        }

        V::select(active, piv,
                  V::load(permw + static_cast<std::size_t>(k) * w))
            .store(permw + static_cast<std::size_t>(k) * w);
        // Mark the chosen rows pivoted: one scalar store per active lane
        // beats a masked sweep over all m rows.
        piv.store(pivw);
        const unsigned act = active.bits();
        for (index_type l = 0; l < w; ++l) {
            if ((act >> l) & 1u) {
                const auto row = static_cast<index_type>(pivw[l]);
                pstate[static_cast<std::size_t>(row) * w +
                       static_cast<std::size_t>(l)] = static_cast<T>(k);
                updm[row] = andnot(updm[row], M::only_lane(l));
            }
        }

        // SCAL: divide the unpivoted part of column k by the pivot value
        // (captured during the scan; frozen lanes divide by 1 harmlessly).
        const V d = V::select(active, bestval, V::broadcast(T{1}));
        for (index_type i = 0; i < m; ++i) {
            const M upd = updm[i];
            T* elem = colk + static_cast<size_type>(i) * stride;
            const V x = V::load(elem);
            V::select(upd, x / d, x).store(elem);
        }

        // GER: rank-1 update of the trailing columns on unpivoted rows.
        // Masked rows subtract a zeroed product instead of blending:
        // x - (+0) == x bitwise for every x, so pivoted and frozen rows
        // stay untouched without a select. Column pairs share the mask
        // and multiplier loads.
        index_type j = k + 1;
        for (; j + 1 < m; j += 2) {
            T* colj0 = a + static_cast<size_type>(j) * m * stride;
            T* colj1 = colj0 + static_cast<size_type>(m) * stride;
            const V akj0 = V::gather_rows(colj0, piv, stride);
            const V akj1 = V::gather_rows(colj1, piv, stride);
            for (index_type i = 0; i < m; ++i) {
                const M upd = updm[i];
                const V colk_i =
                    V::load(colk + static_cast<size_type>(i) * stride);
                T* e0 = colj0 + static_cast<size_type>(i) * stride;
                T* e1 = colj1 + static_cast<size_type>(i) * stride;
                (V::load(e0) - V::keep(colk_i * akj0, upd)).store(e0);
                (V::load(e1) - V::keep(colk_i * akj1, upd)).store(e1);
            }
        }
        for (; j < m; ++j) {
            T* colj = a + static_cast<size_type>(j) * m * stride;
            const V akj = V::gather_rows(colj, piv, stride);
            for (index_type i = 0; i < m; ++i) {
                const M upd = updm[i];
                const V colk_i =
                    V::load(colk + static_cast<size_type>(i) * stride);
                T* elem = colj + static_cast<size_type>(i) * stride;
                (V::load(elem) - V::keep(colk_i * akj, upd)).store(elem);
            }
        }
    }

    // Combined row swap for the lanes that completed (the writeback
    // gather the scalar kernel applies at the end).
    const M ok = (infov == zero);
    if (ok.any()) {
        for (index_type j = 0; j < m; ++j) {
            T* colj = a + static_cast<size_type>(j) * m * stride;
            for (index_type r = 0; r < m; ++r) {
                V::load(colj + static_cast<size_type>(r) * stride)
                    .store(tmp + static_cast<std::size_t>(r) * w);
            }
            for (index_type k = 0; k < m; ++k) {
                const V rows =
                    V::load(permw + static_cast<std::size_t>(k) * w);
                const V val =
                    V::gather_rows(tmp, rows, static_cast<size_type>(w));
                T* elem = colj + static_cast<size_type>(k) * stride;
                V::select(ok, val, V::load(elem)).store(elem);
            }
        }
    }

    // Emit per-lane info and the integer permutation; failed lanes get
    // the scalar complete_permutation tail (unpivoted rows in order).
    alignas(64) T infow[w];
    infov.store(infow);
    for (index_type l = 0; l < w; ++l) {
        const auto fail = static_cast<index_type>(infow[l]);
        info[l] = fail;
        if (fail != 0) {
            index_type next = fail - 1;
            for (index_type i = 0; i < m; ++i) {
                if (pstate[static_cast<std::size_t>(i) * w + l] < T{0}) {
                    permw[static_cast<std::size_t>(next++) * w + l] =
                        static_cast<T>(i);
                }
            }
        }
        for (index_type k = 0; k < m; ++k) {
            perm[static_cast<size_type>(k) * stride + l] =
                static_cast<index_type>(
                    permw[static_cast<std::size_t>(k) * w + l]);
        }
    }
}

/// Permute + unit-lower + upper triangular solve of one lane chunk (the
/// vector twin of getrs_single with the eager variant).
template <typename T, typename Backend>
void getrs_chunk(const T* a, const index_type* perm, T* b,
                 const index_type m, const size_type stride) {
    using V = simd::Simd<T, Backend>;
    constexpr index_type w = V::width;
    if (m == 0) {
        return;
    }

    // b := P b, the gather fused into the load as in the paper's kernel.
    alignas(64) T tmp[static_cast<std::size_t>(max_block_size) * w];
    for (index_type k = 0; k < m; ++k) {
        V::gather_rows_i(b, perm + static_cast<size_type>(k) * stride, stride)
            .store(tmp + static_cast<std::size_t>(k) * w);
    }
    for (index_type k = 0; k < m; ++k) {
        V::load(tmp + static_cast<std::size_t>(k) * w)
            .store(b + static_cast<size_type>(k) * stride);
    }

    // Eager (AXPY-based) unit lower triangular solve.
    for (index_type k = 0; k + 1 < m; ++k) {
        const V bk = V::load(b + static_cast<size_type>(k) * stride);
        const T* colk = a + static_cast<size_type>(k) * m * stride;
        for (index_type i = k + 1; i < m; ++i) {
            T* elem = b + static_cast<size_type>(i) * stride;
            const V colk_i =
                V::load(colk + static_cast<size_type>(i) * stride);
            (V::load(elem) - colk_i * bk).store(elem);
        }
    }

    // Eager upper triangular solve.
    for (index_type k = m - 1; k >= 0; --k) {
        const T* colk = a + static_cast<size_type>(k) * m * stride;
        T* bk_elem = b + static_cast<size_type>(k) * stride;
        const V diag = V::load(colk + static_cast<size_type>(k) * stride);
        const V bk = V::load(bk_elem) / diag;
        bk.store(bk_elem);
        for (index_type i = 0; i < k; ++i) {
            T* elem = b + static_cast<size_type>(i) * stride;
            const V colk_i =
                V::load(colk + static_cast<size_type>(i) * stride);
            (V::load(elem) - colk_i * bk).store(elem);
        }
    }
}

// ---------------------------------------------------------------------
// Facade-ported pack/scan helpers (formerly scalar loops in
// vectorized.cpp): full-width vector sweeps over one chunk's contiguous
// interleaved storage. `n` counts elements and must be a multiple of the
// backend width; pointers carry the interleaved layout's natural
// alignment (every chunk offset is a multiple of the vector width).
// ---------------------------------------------------------------------

/// Zero fill of a chunk region (the pack prologue before the sparse
/// scatter re-populates the lane slots).
template <typename T, typename Backend>
void pack_zero_chunk(T* vals, const size_type n) {
    using V = simd::Simd<T, Backend>;
    const V z = V::zero();
    for (size_type i = 0; i < n; i += V::width) {
        z.store(vals + i);
    }
}

/// Per-lane max|entry| + non-finite detection over a chunk's values
/// (n = m*m*width). Non-finite entries are excluded from the max and
/// flagged per lane in `nonfinite_bits` (bit l = lane l); `max_entry`
/// receives width values. Pattern zeros can neither raise the max nor be
/// non-finite, so scanning the whole packed chunk equals scanning the
/// gathered entries only.
template <typename T, typename Backend>
void pack_entry_stats_chunk(const T* vals, const size_type n, T* max_entry,
                            unsigned* nonfinite_bits) {
    using V = simd::Simd<T, Backend>;
    using M = typename V::mask;
    const V inf = V::broadcast(std::numeric_limits<T>::infinity());
    V acc = V::zero();
    M allfinite = M::all_lanes();
    for (size_type i = 0; i < n; i += V::width) {
        const V mag = abs(V::load(vals + i));
        // Ordered-quiet compare: NaN < inf and inf < inf are both false.
        const M fin = mag < inf;
        allfinite = allfinite & fin;
        acc = V::select(fin & (mag > acc), mag, acc);
    }
    acc.store(max_entry);
    *nonfinite_bits = andnot(M::all_lanes(), allfinite).bits();
}

/// Per-lane min/max |u_kk| over the U diagonal of a factorized chunk (the
/// post-factorize pivot monitor scan; the gathered writeback leaves the
/// selected pivots on the diagonal). Non-finite diagonal entries are
/// excluded from min/max and flagged in `nonfinite_bits`; min_piv/max_piv
/// receive width values each.
template <typename T, typename Backend>
void diag_scan_chunk(const T* lu, const index_type m, const size_type stride,
                     T* min_piv, T* max_piv, unsigned* nonfinite_bits) {
    using V = simd::Simd<T, Backend>;
    using M = typename V::mask;
    const V inf = V::broadcast(std::numeric_limits<T>::infinity());
    V minacc = inf;
    V maxacc = V::zero();
    M allfinite = M::all_lanes();
    for (index_type k = 0; k < m; ++k) {
        const V mag = abs(V::load(
            lu + (static_cast<size_type>(k) * m + k) * stride));
        const M fin = mag < inf;
        allfinite = allfinite & fin;
        minacc = V::select(fin & (mag < minacc), mag, minacc);
        maxacc = V::select(fin & (mag > maxacc), mag, maxacc);
    }
    minacc.store(min_piv);
    maxacc.store(max_piv);
    *nonfinite_bits = andnot(M::all_lanes(), allfinite).bits();
}

}  // namespace vbatch::core
