#include "solvers/idr.hpp"

#include <cmath>
#include <tuple>
#include <vector>

#include "base/macros.hpp"
#include "base/random.hpp"
#include "base/timer.hpp"
#include "blas/blas1.hpp"
#include "blas/dense_matrix.hpp"
#include "blas/fused.hpp"
#include "blas/lapack.hpp"
#include "core/bytes.hpp"
#include "obs/perf_counters.hpp"

namespace vbatch::solvers {

namespace {

/// Orthonormalize the columns of p (modified Gram-Schmidt); the shadow
/// space must have full rank for IDR to be well defined.
template <typename T>
void orthonormalize(DenseMatrix<T>& p) {
    const index_type n = p.rows();
    const index_type s = p.cols();
    for (index_type j = 0; j < s; ++j) {
        std::span<T> pj{p.data() + static_cast<size_type>(j) * n,
                        static_cast<std::size_t>(n)};
        for (index_type i = 0; i < j; ++i) {
            std::span<const T> pi{p.data() + static_cast<size_type>(i) * n,
                                  static_cast<std::size_t>(n)};
            const T proj = blas::dot(pi, std::span<const T>(pj));
            blas::axpy(-proj, pi, pj);
        }
        const T norm = blas::nrm2(std::span<const T>(pj));
        VBATCH_ENSURE(norm > T{}, "degenerate shadow space");
        blas::scal(T{1} / norm, pj);
    }
}

}  // namespace

template <typename T>
SolveResult idr(const sparse::Csr<T>& a, std::span<const T> b,
                std::span<T> x, const precond::Preconditioner<T>& prec,
                const IdrOptions& opts) {
    VBATCH_ENSURE(a.num_rows() == a.num_cols(), "square system required");
    VBATCH_ENSURE_DIMS(static_cast<index_type>(b.size()) == a.num_rows());
    VBATCH_ENSURE_DIMS(b.size() == x.size());
    VBATCH_ENSURE(opts.s >= 1, "shadow dimension must be positive");
    const index_type n = a.num_rows();
    const index_type s = opts.s;
    const auto nz = static_cast<std::size_t>(n);

    obs::TraceRegion trace("idr::solve");
    obs::PerfRegion perf("idr::solve");
    Timer timer;
    SolveResult result;
    const bool phases = opts.collect_phase_times;
    auto& ph = result.phase_seconds;

    // r = b - A x
    std::vector<T> r(nz);
    {
        PhaseTimer pt(phases, ph.spmv);
        a.spmv(std::span<const T>(x), std::span<T>(r));
    }
    T normr;
    {
        PhaseTimer pt(phases, ph.blas1);
        normr = blas::fused_residual_norm2(b, std::span<T>(r));
    }
    result.initial_residual = static_cast<double>(normr);
    const T tol = static_cast<T>(opts.rel_tol) * normr;
    record_residual(opts, result, static_cast<double>(normr));

    // Random orthonormal shadow space P (n x s), fixed seed.
    auto p = DenseMatrix<T>::random(n, s, opts.shadow_seed);
    {
        PhaseTimer pt(phases, ph.orth);
        orthonormalize(p);
    }
    const auto pcol = [&](index_type j) {
        return std::span<const T>{p.data() + static_cast<size_type>(j) * n,
                                  nz};
    };

    auto g = DenseMatrix<T>::zeros(n, s);
    auto u = DenseMatrix<T>::zeros(n, s);
    auto mmat = DenseMatrix<T>::identity(s);
    const auto gcol = [&](index_type j) {
        return std::span<T>{g.data() + static_cast<size_type>(j) * n, nz};
    };
    const auto ucol = [&](index_type j) {
        return std::span<T>{u.data() + static_cast<size_type>(j) * n, nz};
    };

    std::vector<T> f(static_cast<std::size_t>(s));
    std::vector<T> c(static_cast<std::size_t>(s));
    std::vector<T> negc(static_cast<std::size_t>(s));
    // Workspace of the small (s-k) x (s-k) solves, sized once for k = 0 so
    // no iteration allocates.
    std::vector<T> msub(static_cast<std::size_t>(s) *
                        static_cast<std::size_t>(s));
    std::vector<index_type> msub_piv(static_cast<std::size_t>(s));
    std::vector<T> v(nz), vhat(nz), t(nz);
    T om{1};
    index_type applies = 0;

    // Minimal-residual smoothing state: (xs, rs) track the smoothed
    // iterate; after every update of (x, r) we move (xs, rs) toward it by
    // the step that minimizes ||rs||.
    std::vector<T> xs, rs;
    T norm_rs = normr;
    if (opts.smoothing) {
        xs.assign(x.begin(), x.end());
        rs.assign(r.begin(), r.end());
    }
    const auto smooth = [&] {
        if (!opts.smoothing) {
            return;
        }
        PhaseTimer pt(phases, ph.blas1);
        // d = rs - r; gamma = (rs, d) / (d, d); rs -= gamma d. Both dots
        // come from one sweep, the update and ||rs|| from a second.
        const auto [dd, rd] = blas::fused_smoothing_dots(
            std::span<const T>(rs), std::span<const T>(r));
        if (dd == T{}) {
            return;
        }
        const T gamma = rd / dd;
        norm_rs = blas::fused_smooth_update(
            gamma, std::span<const T>(r), std::span<const T>(x),
            std::span<T>(rs), std::span<T>(xs));
    };

    index_type iters = 0;
    bool broke_down = false;
    bool converged = normr <= tol;
    while (!converged && iters < opts.max_iters && !broke_down) {
        {
            PhaseTimer pt(phases, ph.orth);
            // f = P^T r: all s shadow projections in one basis sweep.
            blas::multi_dot(p.data(), n, s, r.data(), f.data());
        }
        for (index_type k = 0; k < s && !converged; ++k) {
            // Solve the trailing (s-k) x (s-k) block of M for c.
            const index_type sk = s - k;
            const MatrixView<T> mk(msub.data(), sk, sk);
            for (index_type j = 0; j < sk; ++j) {
                for (index_type i = 0; i < sk; ++i) {
                    mk(i, j) = mmat(k + i, k + j);
                }
                c[static_cast<std::size_t>(j)] =
                    f[static_cast<std::size_t>(k + j)];
            }
            const std::span<index_type> piv(
                msub_piv.data(), static_cast<std::size_t>(sk));
            if (lapack::getrf<T>(mk, piv) != 0) {
                broke_down = true;
                break;
            }
            lapack::getrs<T>(mk, piv,
                             std::span<T>(c.data(),
                                          static_cast<std::size_t>(sk)));
            {
                PhaseTimer pt(phases, ph.blas1);
                // v = r - sum_i c_i g_{k+i}: one sweep over the g columns.
                blas::copy(std::span<const T>(r), std::span<T>(v));
                for (index_type i = 0; i < sk; ++i) {
                    negc[static_cast<std::size_t>(i)] =
                        -c[static_cast<std::size_t>(i)];
                }
                blas::multi_axpy(g.data() + static_cast<size_type>(k) * n,
                                 n, sk, negc.data(), v.data());
            }
            // Preconditioned direction.
            {
                PhaseTimer pt(phases, ph.precond);
                prec.apply(std::span<const T>(v), std::span<T>(vhat));
            }
            ++applies;
            // u_k = om * vhat + sum_i c_i u_{k+i}. The i = 0 term reads the
            // old u_k, so fold it into the overwriting pass.
            auto uk = ucol(k);
            {
                PhaseTimer pt(phases, ph.blas1);
                blas::fused_axpby(om, std::span<const T>(vhat), c[0], uk);
                blas::multi_axpy(
                    u.data() + static_cast<size_type>(k + 1) * n, n, sk - 1,
                    c.data() + 1, uk.data());
            }
            // g_k = A u_k
            {
                PhaseTimer pt(phases, ph.spmv);
                a.spmv(std::span<const T>(uk), std::span<T>(gcol(k)));
            }
            ++iters;
            {
                PhaseTimer pt(phases, ph.orth);
                // Bi-orthogonalize g_k (and u_k) against p_0..p_{k-1}.
                for (index_type i = 0; i < k; ++i) {
                    const T alpha =
                        blas::dot(pcol(i), std::span<const T>(gcol(k))) /
                        mmat(i, i);
                    blas::axpy(-alpha, std::span<const T>(gcol(i)),
                               std::span<T>(gcol(k)));
                    blas::axpy(-alpha, std::span<const T>(ucol(i)),
                               std::span<T>(uk));
                }
                // New column of M: rows k..s-1 are contiguous in column k,
                // so one batched sweep over p_k..p_{s-1} fills them
                // directly.
                blas::multi_dot(
                    p.data() + static_cast<size_type>(k) * n, n, sk,
                    gcol(k).data(),
                    mmat.data() + static_cast<size_type>(k) * s + k);
            }
            if (mmat(k, k) == T{}) {
                broke_down = true;
                break;
            }
            const T beta = f[static_cast<std::size_t>(k)] / mmat(k, k);
            {
                PhaseTimer pt(phases, ph.blas1);
                blas::axpy(beta, std::span<const T>(uk), x);
                normr = blas::fused_axpy_norm2(
                    -beta, std::span<const T>(gcol(k)), std::span<T>(r));
            }
            smooth();
            const T monitored = opts.smoothing ? norm_rs : normr;
            record_residual(opts, result, static_cast<double>(monitored));
            converged = monitored <= tol;
            for (index_type i = k + 1; i < s; ++i) {
                f[static_cast<std::size_t>(i)] -= beta * mmat(i, k);
            }
            if (iters >= opts.max_iters) {
                break;
            }
        }
        if (converged || broke_down || iters >= opts.max_iters) {
            break;
        }
        // Dimension-reduction step: r in G_j -> r in G_{j+1}.
        {
            PhaseTimer pt(phases, ph.precond);
            prec.apply(std::span<const T>(r), std::span<T>(vhat));
        }
        ++applies;
        {
            PhaseTimer pt(phases, ph.spmv);
            a.spmv(std::span<const T>(vhat), std::span<T>(t));
        }
        ++iters;
        T tt;
        T tr;
        {
            PhaseTimer pt(phases, ph.blas1);
            // (t, t) and (t, r) from a single pass over t.
            std::tie(tt, tr) = blas::fused_dot2(std::span<const T>(t),
                                                std::span<const T>(t),
                                                std::span<const T>(r));
        }
        if (tt == T{}) {
            broke_down = true;
            break;
        }
        om = tr / tt;
        // Angle safeguard (van Gijzen): avoid tiny omega.
        const T rho = std::abs(tr) / (std::sqrt(tt) * normr);
        if (rho < static_cast<T>(opts.kappa) && rho > T{}) {
            om *= static_cast<T>(opts.kappa) / rho;
        }
        if (om == T{}) {
            broke_down = true;
            break;
        }
        {
            PhaseTimer pt(phases, ph.blas1);
            blas::axpy(om, std::span<const T>(vhat), x);
            normr = blas::fused_axpy_norm2(-om, std::span<const T>(t),
                                           std::span<T>(r));
        }
        smooth();
        const T monitored = opts.smoothing ? norm_rs : normr;
        record_residual(opts, result, static_cast<double>(monitored));
        converged = monitored <= tol;
    }

    if (opts.smoothing) {
        blas::copy(std::span<const T>(xs), std::span<T>(x));
        normr = norm_rs;
    }
    finalize_result(result, converged, broke_down, prec);
    result.iterations = iters;
    result.final_residual = static_cast<double>(normr);
    result.solve_seconds = timer.seconds();
    if (phases) {
        // SpMV and preconditioner counts are exact; the BLAS-1 and
        // orthogonalization work depends on the inner index k, so those
        // phases report seconds only (no canonical byte model -> the
        // exporter skips their roofline rows).
        SolverTraffic traffic;
        const auto spmvs = static_cast<double>(iters) + 1.0;
        traffic.spmv_bytes =
            spmvs * core::spmv_bytes<T>(a.num_rows(), a.nnz());
        traffic.spmv_flops =
            spmvs * 2.0 * static_cast<double>(a.nnz());
        traffic.precond_flops =
            static_cast<double>(applies) * prec.apply_flops();
        traffic.precond_bytes =
            static_cast<double>(applies) * prec.apply_bytes();
        export_phase_attribution(opts, result, traffic);
    }
    return result;
}

template SolveResult idr<float>(const sparse::Csr<float>&,
                                std::span<const float>, std::span<float>,
                                const precond::Preconditioner<float>&,
                                const IdrOptions&);
template SolveResult idr<double>(const sparse::Csr<double>&,
                                 std::span<const double>, std::span<double>,
                                 const precond::Preconditioner<double>&,
                                 const IdrOptions&);

}  // namespace vbatch::solvers
