// Unfused reference for IDR(s).
//
// solvers::idr runs each phase of an inner step as one fused chunked
// sweep and keeps its shadow space in a reused workspace. This helper is
// what it is held to: the biortho IDR(s) of van Gijzen & Sonneveld
// (ACM TOMS 2011) written as the plain sequence of chunked BLAS-1 calls
// (blas::dot / axpy / copy / nrm2 / scal, one sweep each, plus
// element-wise loops for the few updates that are not an axpy), with a
// fresh shadow space, fresh bases and M = I on every call. Iterates,
// residual norms, the residual history and the iteration count must
// match the solver bit for bit.
#pragma once

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/dense_matrix.hpp"
#include "blas/lapack.hpp"
#include "precond/preconditioner.hpp"
#include "solvers/idr.hpp"
#include "sparse/csr.hpp"

namespace vbatch::reference {

/// IDR(s) with opts, unfused; x holds the initial guess on entry and the
/// solution on exit. Fills status, iterations, the initial and final
/// residual and (always) the residual history.
template <typename T>
solvers::SolveResult idr_reference(const sparse::Csr<T>& a,
                                   std::span<const T> b, std::span<T> x,
                                   const precond::Preconditioner<T>& prec,
                                   const solvers::IdrOptions& opts) {
    using CSpan = std::span<const T>;
    using Span = std::span<T>;
    const index_type n = a.num_rows();
    const index_type s = opts.s;
    const auto nz = static_cast<std::size_t>(n);
    const auto col = [nz](DenseMatrix<T>& m, index_type j) {
        return Span(m.data() + static_cast<std::size_t>(j) * nz, nz);
    };
    solvers::SolveResult result;

    std::vector<T> r(nz);
    a.spmv(CSpan(x), Span(r));
    for (std::size_t i = 0; i < nz; ++i) {
        r[i] = b[i] - r[i];
    }
    T normr = blas::nrm2(CSpan(r));
    result.initial_residual = static_cast<double>(normr);
    const T tol = static_cast<T>(opts.rel_tol) * normr;
    result.residual_history.push_back(static_cast<double>(normr));

    // Shadow space: random, then modified Gram-Schmidt.
    auto p = DenseMatrix<T>::random(n, s, opts.shadow_seed);
    for (index_type j = 0; j < s; ++j) {
        for (index_type i = 0; i < j; ++i) {
            const T proj = blas::dot(CSpan(col(p, i)), CSpan(col(p, j)));
            blas::axpy(-proj, CSpan(col(p, i)), col(p, j));
        }
        const T norm = blas::nrm2(CSpan(col(p, j)));
        blas::scal(T{1} / norm, col(p, j));
    }

    auto g = DenseMatrix<T>::zeros(n, s);
    auto u = DenseMatrix<T>::zeros(n, s);
    auto m = DenseMatrix<T>::identity(s);
    std::vector<T> f(static_cast<std::size_t>(s));
    std::vector<T> c(static_cast<std::size_t>(s));
    std::vector<T> v(nz), vhat(nz), t(nz), d(nz);
    T om{1};

    std::vector<T> xs, rs;
    T norm_rs = normr;
    if (opts.smoothing) {
        xs.assign(x.begin(), x.end());
        rs = r;
    }
    const auto smooth = [&] {
        if (!opts.smoothing) {
            return;
        }
        for (std::size_t i = 0; i < nz; ++i) {
            d[i] = rs[i] - r[i];
        }
        const T dd = blas::dot(CSpan(d), CSpan(d));
        const T rd = blas::dot(CSpan(rs), CSpan(d));
        if (dd == T{}) {
            return;
        }
        const T gamma = rd / dd;
        blas::axpy(-gamma, CSpan(d), Span(rs));
        for (std::size_t i = 0; i < nz; ++i) {
            d[i] = xs[i] - x[i];
        }
        blas::axpy(-gamma, CSpan(d), Span(xs));
        norm_rs = blas::nrm2(CSpan(rs));
    };
    const auto record = [&] {
        const T monitored = opts.smoothing ? norm_rs : normr;
        result.residual_history.push_back(static_cast<double>(monitored));
        return monitored <= tol;
    };

    index_type iters = 0;
    bool broke_down = false;
    bool converged = normr <= tol;
    while (!converged && iters < opts.max_iters && !broke_down) {
        for (index_type j = 0; j < s; ++j) {
            f[static_cast<std::size_t>(j)] =
                blas::dot(CSpan(col(p, j)), CSpan(r));
        }
        for (index_type k = 0; k < s && !converged; ++k) {
            const index_type sk = s - k;
            DenseMatrix<T> mk(sk, sk);
            for (index_type j = 0; j < sk; ++j) {
                for (index_type i = 0; i < sk; ++i) {
                    mk(i, j) = m(k + i, k + j);
                }
                c[static_cast<std::size_t>(j)] =
                    f[static_cast<std::size_t>(k + j)];
            }
            std::vector<index_type> piv(static_cast<std::size_t>(sk));
            if (lapack::getrf<T>(mk.view(), std::span<index_type>(piv)) !=
                0) {
                broke_down = true;
                break;
            }
            lapack::getrs<T>(
                mk.view(), std::span<const index_type>(piv),
                Span(c.data(), static_cast<std::size_t>(sk)));
            blas::copy(CSpan(r), Span(v));
            for (index_type i = 0; i < sk; ++i) {
                blas::axpy(-c[static_cast<std::size_t>(i)],
                           CSpan(col(g, k + i)), Span(v));
            }
            prec.apply(CSpan(v), Span(vhat));
            auto uk = col(u, k);
            for (std::size_t e = 0; e < nz; ++e) {
                uk[e] = om * vhat[e] + c[0] * uk[e];
            }
            for (index_type i = 1; i < sk; ++i) {
                blas::axpy(c[static_cast<std::size_t>(i)],
                           CSpan(col(u, k + i)), uk);
            }
            a.spmv(CSpan(uk), col(g, k));
            ++iters;
            for (index_type i = 0; i < k; ++i) {
                const T alpha =
                    blas::dot(CSpan(col(p, i)), CSpan(col(g, k))) / m(i, i);
                blas::axpy(-alpha, CSpan(col(g, i)), col(g, k));
                blas::axpy(-alpha, CSpan(col(u, i)), uk);
            }
            for (index_type i = k; i < s; ++i) {
                m(i, k) = blas::dot(CSpan(col(p, i)), CSpan(col(g, k)));
            }
            if (m(k, k) == T{}) {
                broke_down = true;
                break;
            }
            const T beta = f[static_cast<std::size_t>(k)] / m(k, k);
            blas::axpy(beta, CSpan(uk), x);
            blas::axpy(-beta, CSpan(col(g, k)), Span(r));
            normr = blas::nrm2(CSpan(r));
            smooth();
            converged = record();
            for (index_type i = k + 1; i < s; ++i) {
                f[static_cast<std::size_t>(i)] -= beta * m(i, k);
            }
            if (iters >= opts.max_iters) {
                break;
            }
        }
        if (converged || broke_down || iters >= opts.max_iters) {
            break;
        }
        prec.apply(CSpan(r), Span(vhat));
        a.spmv(CSpan(vhat), Span(t));
        ++iters;
        const T tt = blas::dot(CSpan(t), CSpan(t));
        const T tr = blas::dot(CSpan(t), CSpan(r));
        if (tt == T{}) {
            broke_down = true;
            break;
        }
        om = tr / tt;
        const T rho = std::abs(tr) / (std::sqrt(tt) * normr);
        if (rho < static_cast<T>(opts.kappa) && rho > T{}) {
            om *= static_cast<T>(opts.kappa) / rho;
        }
        if (om == T{}) {
            broke_down = true;
            break;
        }
        blas::axpy(om, CSpan(vhat), x);
        blas::axpy(-om, CSpan(t), Span(r));
        normr = blas::nrm2(CSpan(r));
        smooth();
        converged = record();
    }
    if (opts.smoothing) {
        blas::copy(CSpan(xs), x);
        normr = norm_rs;
    }
    solvers::finalize_result(result, converged, broke_down, prec);
    result.iterations = iters;
    result.final_residual = static_cast<double>(normr);
    return result;
}

/// Bit-for-bit equality of two arrays (tells -0 from +0, compares NaNs
/// by payload).
template <typename T>
bool same_bits(std::span<const T> lhs, std::span<const T> rhs) {
    return lhs.size() == rhs.size() &&
           (lhs.empty() ||
            std::memcmp(lhs.data(), rhs.data(), lhs.size() * sizeof(T)) == 0);
}

}  // namespace vbatch::reference
