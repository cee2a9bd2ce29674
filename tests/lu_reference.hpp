// Scalar reference for the block-Jacobi lu / lu-simd backends.
//
// Both keys run the interleaved lane pipeline. This helper is what they
// are held to: the core scalar kernels run block by block on
// extract_diagonal_blocks (or, for a row-list layout, on blocks read
// entry by entry with Csr::at) -- getrf_implicit / getrs_single --
// followed by
// the recovery chain written out once more (diagonal boosting,
// scalar-Jacobi fallback, identity). Factors, pivots, statuses and the
// application must match the preconditioner bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "blocking/extraction.hpp"
#include "core/getrf.hpp"
#include "core/trsv.hpp"
#include "precond/block_jacobi.hpp"

namespace vbatch::reference {

template <typename T>
struct LuReference {
    core::BatchedMatrices<T> factors;
    core::BatchedPivots pivots;
    std::vector<core::BlockStatus> status;
    /// Per-row inverse diagonal of fell-back / singular blocks.
    std::vector<T> inv_diag;
    /// The layout's row list (empty = contiguous blocks).
    std::vector<index_type> rows;

    /// Matrix row of block position q.
    std::size_t row(std::size_t q) const {
        return rows.empty() ? q : static_cast<std::size_t>(rows[q]);
    }

    void apply(std::span<const T> r, std::span<T> z) const {
        const auto& layout = factors.layout();
        std::vector<T> zb;
        for (size_type b = 0; b < layout.count(); ++b) {
            const auto off = static_cast<std::size_t>(layout.row_offset(b));
            const auto m = static_cast<std::size_t>(layout.size(b));
            zb.assign(m, T{});
            const auto s = status[static_cast<std::size_t>(b)];
            if (s == core::BlockStatus::fell_back ||
                s == core::BlockStatus::singular) {
                for (std::size_t i = 0; i < m; ++i) {
                    zb[i] = r[row(off + i)] * inv_diag[off + i];
                }
            } else {
                for (std::size_t i = 0; i < m; ++i) {
                    zb[i] = r[row(off + i)];
                }
                core::getrs_single(factors.view(b), pivots.span(b),
                                   std::span<T>(zb));
            }
            for (std::size_t i = 0; i < m; ++i) {
                z[row(off + i)] = zb[i];
            }
        }
    }
};

/// The diagonal blocks of `a` under (layout, rows): extract_diagonal_blocks
/// for a contiguous layout, entry-by-entry Csr::at lookups for a row list.
template <typename T>
core::BatchedMatrices<T> reference_blocks(const sparse::Csr<T>& a,
                                          const core::BatchLayoutPtr& layout,
                                          std::span<const index_type> rows) {
    if (rows.empty()) {
        return blocking::extract_diagonal_blocks(a, layout);
    }
    core::BatchedMatrices<T> blocks(layout);
    for (size_type b = 0; b < layout->count(); ++b) {
        const auto off = static_cast<std::size_t>(layout->row_offset(b));
        auto v = blocks.view(b);
        for (index_type j = 0; j < v.cols(); ++j) {
            for (index_type i = 0; i < v.rows(); ++i) {
                v(i, j) = a.at(rows[off + static_cast<std::size_t>(i)],
                               rows[off + static_cast<std::size_t>(j)]);
            }
        }
    }
    return blocks;
}

/// Factorize the diagonal blocks of `a` under `layout` (and its row
/// list, when non-empty) the way the lu
/// backends must, with the scalar kernels and a RecoveryPolicy of
/// Mode::full (the default) -- the chain that never throws.
template <typename T>
LuReference<T> lu_reference(const sparse::Csr<T>& a,
                            const core::BatchLayoutPtr& layout,
                            std::span<const index_type> rows = {}) {
    const precond::RecoveryPolicy policy;
    const auto pristine = reference_blocks(a, layout, rows);
    LuReference<T> ref{pristine.clone(), core::BatchedPivots(layout), {},
                       {}, std::vector<index_type>(rows.begin(), rows.end())};
    const size_type nb = layout->count();
    ref.status.assign(static_cast<std::size_t>(nb), core::BlockStatus::ok);
    const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
    const double tol = policy.effective_tol(eps);

    for (size_type b = 0; b < nb; ++b) {
        auto v = ref.factors.view(b);
        auto p = ref.pivots.span(b);
        const auto src = pristine.view(b);
        const index_type m = v.rows();
        const auto restore = [&] {
            for (index_type j = 0; j < m; ++j) {
                for (index_type i = 0; i < m; ++i) {
                    v(i, j) = src(i, j);
                }
            }
        };
        core::FactorInfo fi;
        core::getrf_implicit(v, p, fi);
        if (!fi.degenerate(tol)) {
            continue;
        }

        const double scale =
            (fi.finite && fi.max_entry > 0.0) ? fi.max_entry : 0.0;
        bool boosted = false;
        if (scale > 0.0) {
            double tau = policy.boost_scale * scale;
            for (index_type attempt = 0; attempt < policy.max_boosts;
                 ++attempt, tau *= policy.boost_growth) {
                restore();
                for (index_type k = 0; k < m; ++k) {
                    v(k, k) += static_cast<T>(tau);
                }
                core::FactorInfo fb;
                if (core::getrf_implicit(v, p, fb) == 0 &&
                    !fb.degenerate(tol)) {
                    boosted = true;
                    break;
                }
            }
        }
        if (boosted) {
            ref.status[static_cast<std::size_t>(b)] =
                core::BlockStatus::boosted;
            continue;
        }
        if (ref.inv_diag.empty()) {
            ref.inv_diag.assign(static_cast<std::size_t>(layout->total_rows()),
                                T{1});
        }
        const auto off = static_cast<std::size_t>(layout->row_offset(b));
        bool any_diag = false;
        for (index_type i = 0; i < m; ++i) {
            const T d = src(i, i);
            const bool usable = std::isfinite(static_cast<double>(d)) &&
                                d != T{};
            ref.inv_diag[off + static_cast<std::size_t>(i)] =
                usable ? T{1} / d : T{1};
            any_diag = any_diag || usable;
        }
        ref.status[static_cast<std::size_t>(b)] =
            any_diag ? core::BlockStatus::fell_back
                     : core::BlockStatus::singular;
        for (index_type j = 0; j < m; ++j) {
            for (index_type i = 0; i < m; ++i) {
                v(i, j) = i == j ? T{1} : T{};
            }
        }
        for (index_type k = 0; k < m; ++k) {
            p[static_cast<std::size_t>(k)] = k;
        }
    }
    return ref;
}

/// Bitwise comparison of a lu / lu-simd preconditioner with its scalar
/// reference: factors, pivots, per-block status, and the application of
/// `r`.
template <typename T>
::testing::AssertionResult matches_lu_reference(
    const precond::BlockJacobi<T>& prec, const LuReference<T>& ref,
    std::span<const T> r) {
    const auto& layout = ref.factors.layout();
    if (prec.layout().sizes() != layout.sizes()) {
        return ::testing::AssertionFailure() << "block layouts differ";
    }
    for (size_type b = 0; b < layout.count(); ++b) {
        const auto got = prec.factors().view(b);
        const auto want = ref.factors.view(b);
        for (index_type j = 0; j < got.cols(); ++j) {
            for (index_type i = 0; i < got.rows(); ++i) {
                if (got(i, j) != want(i, j)) {
                    return ::testing::AssertionFailure()
                           << "factor (" << i << ", " << j << ") of block "
                           << b << ": " << got(i, j) << " vs " << want(i, j);
                }
            }
        }
        const auto gp = prec.pivots().span(b);
        const auto wp = ref.pivots.span(b);
        if (!std::equal(gp.begin(), gp.end(), wp.begin())) {
            return ::testing::AssertionFailure()
                   << "pivots of block " << b << " differ";
        }
        const auto bi = static_cast<std::size_t>(b);
        if (prec.block_status()[bi] != ref.status[bi]) {
            return ::testing::AssertionFailure()
                   << "status of block " << b << ": "
                   << static_cast<int>(prec.block_status()[bi]) << " vs "
                   << static_cast<int>(ref.status[bi]);
        }
    }
    std::vector<T> z_got(r.size());
    std::vector<T> z_want(r.size());
    prec.apply(r, std::span<T>(z_got));
    ref.apply(r, std::span<T>(z_want));
    for (std::size_t i = 0; i < r.size(); ++i) {
        if (z_got[i] != z_want[i]) {
            return ::testing::AssertionFailure()
                   << "apply row " << i << ": " << z_got[i] << " vs "
                   << z_want[i];
        }
    }
    return ::testing::AssertionSuccess();
}

}  // namespace vbatch::reference
