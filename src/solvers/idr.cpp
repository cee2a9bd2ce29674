#include "solvers/idr.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <tuple>
#include <vector>

#include "base/macros.hpp"
#include "base/timer.hpp"
#include "blas/blas1.hpp"
#include "blas/dense_matrix.hpp"
#include "blas/fused.hpp"
#include "blas/lapack.hpp"
#include "core/bytes.hpp"
#include "obs/perf_counters.hpp"

// Every vector operation of an inner step is one chunked sweep: the
// per-element operations and their order, and the fixed-chunk reduction
// order of blas1.hpp, are exactly those of the unfused call sequence
// (copy, axpy, dot, multi-column dot), so the fused solve is bitwise
// identical to it (tests/idr_reference.hpp keeps that sequence as the
// oracle). Sweeps per IDR(4) cycle, unfused -> fused:
//
//   v = r - sum c_i g_{k+i}                 2 -> 1 per step
//   u_k = om vhat + sum c_i u_{k+i}         2 -> 1 per step (1 -> 1 at k = s-1)
//   biorthogonalise g_k, u_k; column of M   3k+1 -> k+1 per step
//   x += beta u_k; r -= beta g_k; ||r||     2 -> 1 per step (also u_k's
//                                           deferred biorthogonalisation)
//   f = P^T r                               1 -> 0 (on the sweep below)
//   (t,t), (t,r); x += om vhat; r -= om t;  3 -> 2
//   ||r|| (and the next cycle's f)
//
// 49 -> 24 sweeps per cycle at s = 4 (smoothing adds 2 per step to both).

namespace vbatch::solvers {

namespace {

/// Rows an update loop handles per column pass: a block of each operand
/// stays in L1 while the passes run over it, and every pass is a plain
/// vectorizable loop.
constexpr std::size_t row_block = 512;

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

/// One chunked sweep over [0, n): body(lo, hi, part) runs on consecutive
/// row blocks of each chunk and accumulates the chunk's `count`
/// reductions into part (zeroed per chunk); out receives their
/// fixed-order combination (blas::sweep_chunks).
template <typename T, typename F>
void sweep(std::size_t n, std::size_t count, T* out, F&& body) {
    blas::sweep_chunks(
        n, count, out, [&](std::size_t lo, std::size_t hi, T* part) {
            std::fill(part, part + count, T{});
            for (std::size_t b = lo; b < hi; b += row_block) {
                body(b, std::min(b + row_block, hi), part);
            }
        });
}

/// acc[w] += sum over i in [lo, hi) of col[w][i] * x[i] for w < W, each
/// column in ascending i (the order of blas::dot), the W dependency
/// chains interleaved.
template <std::size_t W, typename T>
void dots_group(const T* const* col, const T* x, std::size_t lo,
                std::size_t hi, T* acc) {
    const T* c[W];
    T a[W];
    for (std::size_t w = 0; w < W; ++w) {
        c[w] = col[w];
        a[w] = acc[w];
    }
    for (std::size_t i = lo; i < hi; ++i) {
        const T xi = x[i];
        for (std::size_t w = 0; w < W; ++w) {
            a[w] += c[w][i] * xi;
        }
    }
    for (std::size_t w = 0; w < W; ++w) {
        acc[w] = a[w];
    }
}

/// acc[j] += col[j] . x over [lo, hi) for j < count, in one pass per
/// group of up to 8 columns.
template <typename T>
void dots(const T* const* col, std::size_t count, const T* x,
          std::size_t lo, std::size_t hi, T* acc) {
    std::size_t j = 0;
    for (; j + 8 <= count; j += 8) {
        dots_group<8>(col + j, x, lo, hi, acc + j);
    }
    switch (count - j) {
    case 7: dots_group<7>(col + j, x, lo, hi, acc + j); break;
    case 6: dots_group<6>(col + j, x, lo, hi, acc + j); break;
    case 5: dots_group<5>(col + j, x, lo, hi, acc + j); break;
    case 4: dots_group<4>(col + j, x, lo, hi, acc + j); break;
    case 3: dots_group<3>(col + j, x, lo, hi, acc + j); break;
    case 2: dots_group<2>(col + j, x, lo, hi, acc + j); break;
    case 1: dots_group<1>(col + j, x, lo, hi, acc + j); break;
    default: break;
    }
}

/// y[i] += coeff[j] * col_j[i] over [lo, hi) for j = 0, 1, ... count-1
/// in that order, col_j = base + j * ld. A null base reads every column
/// as +0 (the first cycle's still-unwritten G and U columns): the same
/// per-element operations, without the memory traffic.
template <typename T>
void add_columns(T* y, std::size_t lo, std::size_t hi, const T* coeff,
                 const T* base, std::size_t ld, std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
        const T cj = coeff[j];
        if (base == nullptr) {
            const T z = cj * T{};
            for (std::size_t i = lo; i < hi; ++i) {
                y[i] += z;
            }
        } else {
            const T* col = base + j * ld;
            for (std::size_t i = lo; i < hi; ++i) {
                y[i] += cj * col[i];
            }
        }
    }
}

/// Size ws for an n-row IDR(s) solve and reset the state every solve
/// starts from (M = I). P is drawn and orthonormalized (timed into
/// orth_seconds when phases is set) only when its (n, s, seed) key
/// changed.
template <typename T>
void prepare(IdrWorkspace<T>& ws, index_type n, const IdrOptions& opts,
             bool phases, double& orth_seconds) {
    const index_type s = opts.s;
    const auto nz = static_cast<std::size_t>(n);
    const auto su = static_cast<std::size_t>(s);
    if (ws.p.rows() != n || ws.p.cols() != s ||
        ws.p_seed != opts.shadow_seed) {
        // Built aside, so a throw leaves no half-built P under a valid key.
        auto p = DenseMatrix<T>::random(n, s, opts.shadow_seed);
        {
            PhaseTimer pt(phases, orth_seconds);
            orthonormalize(p);
        }
        ws.p = std::move(p);
        ws.p_seed = opts.shadow_seed;
    }
    if (ws.g.rows() != n || ws.g.cols() != s) {
        ws.g = DenseMatrix<T>(n, s);
        ws.u = DenseMatrix<T>(n, s);
    }
    if (ws.m.rows() != s) {
        ws.m = DenseMatrix<T>(s, s);
    }
    for (index_type j = 0; j < s; ++j) {
        for (index_type i = 0; i < s; ++i) {
            ws.m(i, j) = i == j ? T{1} : T{};
        }
    }
    for (auto* vec : {&ws.r, &ws.v, &ws.vhat, &ws.t}) {
        vec->resize(nz);
    }
    if (opts.smoothing) {
        ws.xs.resize(nz);
        ws.rs.resize(nz);
    }
    for (auto* vec : {&ws.f, &ws.c, &ws.negc, &ws.nalpha}) {
        vec->resize(su);
    }
    ws.sums.resize(su + 1);
    ws.msub.resize(su * su);
    ws.msub_piv.resize(su);
    ws.rp.resize(su + 1);
    ws.rp[0] = ws.r.data();
    for (std::size_t j = 0; j < su; ++j) {
        ws.rp[j + 1] = ws.p.data() + j * nz;
    }
}

}  // namespace

template <typename T>
SolveResult idr(const sparse::Csr<T>& a, std::span<const T> b,
                std::span<T> x, const precond::Preconditioner<T>& prec,
                const IdrOptions& opts) {
    IdrWorkspace<T> ws;
    return idr(a, b, x, prec, opts, ws);
}

template <typename T>
SolveResult idr(const sparse::Csr<T>& a, std::span<const T> b,
                std::span<T> x, const precond::Preconditioner<T>& prec,
                const IdrOptions& opts, IdrWorkspace<T>& ws) {
    VBATCH_ENSURE(a.num_rows() == a.num_cols(), "square system required");
    VBATCH_ENSURE_DIMS(static_cast<index_type>(b.size()) == a.num_rows());
    VBATCH_ENSURE_DIMS(b.size() == x.size());
    VBATCH_ENSURE(opts.s >= 1, "shadow dimension must be positive");
    const index_type n = a.num_rows();
    const index_type s = opts.s;
    const auto nz = static_cast<std::size_t>(n);
    const auto su = static_cast<std::size_t>(s);

    obs::TraceRegion trace("idr::solve");
    obs::PerfRegion perf("idr::solve");
    Timer timer;
    SolveResult result;
    const bool phases = opts.collect_phase_times;
    auto& ph = result.phase_seconds;

    prepare(ws, n, opts, phases, ph.orth);
    T* r = ws.r.data();
    T* v = ws.v.data();
    T* vhat = ws.vhat.data();
    T* t = ws.t.data();
    T* g = ws.g.data();
    T* u = ws.u.data();
    T* f = ws.f.data();
    T* c = ws.c.data();
    T* sums = ws.sums.data();
    const T* const* rp = ws.rp.data();
    auto& mmat = ws.m;
    const std::span<const T> rspan(r, nz);

    // r = b - A x; ||r|| and the first cycle's f = P^T r in one sweep.
    {
        PhaseTimer pt(phases, ph.spmv);
        a.spmv(std::span<const T>(x), std::span<T>(r, nz));
    }
    T normr;
    {
        PhaseTimer pt(phases, ph.blas1);
        sweep(nz, su + 1, sums,
              [&](std::size_t lo, std::size_t hi, T* part) {
                  for (std::size_t i = lo; i < hi; ++i) {
                      r[i] = b[i] - r[i];
                  }
                  dots(rp, su + 1, r, lo, hi, part);
              });
        normr = std::sqrt(sums[0]);
        std::copy(sums + 1, sums + 1 + su, f);
    }
    result.initial_residual = static_cast<double>(normr);
    const T tol = static_cast<T>(opts.rel_tol) * normr;
    record_residual(opts, result, static_cast<double>(normr));

    T om{1};
    index_type applies = 0;

    // Minimal-residual smoothing state: (xs, rs) track the smoothed
    // iterate; after every update of (x, r) we move (xs, rs) toward it by
    // the step that minimizes ||rs||.
    T norm_rs = normr;
    if (opts.smoothing) {
        std::copy(x.begin(), x.end(), ws.xs.begin());
        std::copy(r, r + nz, ws.rs.begin());
    }
    const auto smooth = [&] {
        if (!opts.smoothing) {
            return;
        }
        PhaseTimer pt(phases, ph.blas1);
        // d = rs - r; gamma = (rs, d) / (d, d); rs -= gamma d. Both dots
        // come from one sweep, the update and ||rs|| from a second.
        const auto [dd, rd] = blas::fused_smoothing_dots(
            std::span<const T>(ws.rs), rspan);
        if (dd == T{}) {
            return;
        }
        const T gamma = rd / dd;
        norm_rs = blas::fused_smooth_update(
            gamma, rspan, std::span<const T>(x), std::span<T>(ws.rs),
            std::span<T>(ws.xs));
    };

    index_type iters = 0;
    bool broke_down = false;
    bool converged = normr <= tol;
    // Until the first cycle completes, the G and U columns a step reads
    // beyond its own are still zero: add_columns reads them as +0 (a null
    // base) instead of clearing the workspace.
    bool first_cycle = true;
    while (!converged && iters < opts.max_iters && !broke_down) {
        for (index_type k = 0; k < s && !converged; ++k) {
            // Solve the trailing (s-k) x (s-k) block of M for c.
            const index_type sk = s - k;
            const auto sku = static_cast<std::size_t>(sk);
            const auto ku = static_cast<std::size_t>(k);
            const MatrixView<T> mk(ws.msub.data(), sk, sk);
            for (index_type j = 0; j < sk; ++j) {
                for (index_type i = 0; i < sk; ++i) {
                    mk(i, j) = mmat(k + i, k + j);
                }
                c[j] = f[k + j];
            }
            const std::span<index_type> piv(ws.msub_piv.data(), sku);
            if (lapack::getrf<T>(mk, piv) != 0) {
                broke_down = true;
                break;
            }
            lapack::getrs<T>(mk, piv, std::span<T>(c, sku));
            T* gk = g + ku * nz;
            T* uk = u + ku * nz;
            {
                PhaseTimer pt(phases, ph.blas1);
                // v = r - sum_i c_i g_{k+i}.
                for (std::size_t i = 0; i < sku; ++i) {
                    ws.negc[i] = -c[i];
                }
                const T* gcols = first_cycle ? nullptr : gk;
                sweep<T>(nz, 0, nullptr,
                         [&](std::size_t lo, std::size_t hi, T*) {
                             std::copy(r + lo, r + hi, v + lo);
                             add_columns(v, lo, hi, ws.negc.data(), gcols,
                                         nz, sku);
                         });
            }
            // Preconditioned direction.
            {
                PhaseTimer pt(phases, ph.precond);
                prec.apply(std::span<const T>(v, nz),
                           std::span<T>(vhat, nz));
            }
            ++applies;
            {
                PhaseTimer pt(phases, ph.blas1);
                // u_k = om * vhat + c_0 u_k + sum_{i>0} c_i u_{k+i}.
                const T c0 = c[0];
                const T* ucols = first_cycle ? nullptr : uk + nz;
                sweep<T>(nz, 0, nullptr,
                         [&](std::size_t lo, std::size_t hi, T*) {
                             if (first_cycle) {
                                 const T z = c0 * T{};
                                 for (std::size_t i = lo; i < hi; ++i) {
                                     uk[i] = om * vhat[i] + z;
                                 }
                             } else {
                                 for (std::size_t i = lo; i < hi; ++i) {
                                     uk[i] = om * vhat[i] + c0 * uk[i];
                                 }
                             }
                             add_columns(uk, lo, hi, c + 1, ucols, nz,
                                         sku - 1);
                         });
            }
            // g_k = A u_k
            {
                PhaseTimer pt(phases, ph.spmv);
                a.spmv(std::span<const T>(uk, nz), std::span<T>(gk, nz));
            }
            ++iters;
            {
                PhaseTimer pt(phases, ph.orth);
                // Bi-orthogonalize g_k against p_0..p_{k-1} (modified
                // Gram-Schmidt): pass i subtracts alpha_i g_i and takes
                // the next projection p_{i+1} . g_k; the last pass takes
                // the new column of M, rows k..s-1 = p_k..p_{s-1} . g_k.
                // u_k's matching updates are deferred to the x/r sweep.
                T* mcol = mmat.data() + ku * su + ku;
                T proj{};
                if (k > 0) {
                    sweep(nz, 1, &proj,
                          [&](std::size_t lo, std::size_t hi, T* part) {
                              dots(rp + 1, 1, gk, lo, hi, part);
                          });
                }
                for (std::size_t i = 0; i < ku; ++i) {
                    const auto ii = static_cast<index_type>(i);
                    const T nalpha = -(proj / mmat(ii, ii));
                    ws.nalpha[i] = nalpha;
                    const bool last = i + 1 == ku;
                    const T* gi = g + i * nz;
                    sweep(nz, last ? sku : 1, last ? mcol : &proj,
                          [&](std::size_t lo, std::size_t hi, T* part) {
                              for (std::size_t e = lo; e < hi; ++e) {
                                  gk[e] += nalpha * gi[e];
                              }
                              dots(rp + 2 + i, last ? sku : 1, gk, lo, hi,
                                   part);
                          });
                }
                if (k == 0) {
                    sweep(nz, su, mcol,
                          [&](std::size_t lo, std::size_t hi, T* part) {
                              dots(rp + 1, su, gk, lo, hi, part);
                          });
                }
            }
            if (mmat(k, k) == T{}) {
                broke_down = true;
                break;
            }
            const T beta = f[k] / mmat(k, k);
            {
                PhaseTimer pt(phases, ph.blas1);
                // u_k -= alpha_i u_i (the deferred biorthogonalisation),
                // x += beta u_k, r -= beta g_k, ||r||.
                const T nbeta = -beta;
                sweep(nz, 1, sums,
                      [&](std::size_t lo, std::size_t hi, T* part) {
                          add_columns(uk, lo, hi, ws.nalpha.data(), u, nz,
                                      ku);
                          for (std::size_t i = lo; i < hi; ++i) {
                              x[i] += beta * uk[i];
                          }
                          for (std::size_t i = lo; i < hi; ++i) {
                              r[i] += nbeta * gk[i];
                          }
                          dots(rp, 1, r, lo, hi, part);
                      });
                normr = std::sqrt(sums[0]);
            }
            smooth();
            const T monitored = opts.smoothing ? norm_rs : normr;
            record_residual(opts, result, static_cast<double>(monitored));
            converged = monitored <= tol;
            for (index_type i = k + 1; i < s; ++i) {
                f[i] -= beta * mmat(i, k);
            }
            if (iters >= opts.max_iters) {
                break;
            }
        }
        if (converged || broke_down || iters >= opts.max_iters) {
            break;
        }
        first_cycle = false;
        // Dimension-reduction step: r in G_j -> r in G_{j+1}.
        {
            PhaseTimer pt(phases, ph.precond);
            prec.apply(rspan, std::span<T>(vhat, nz));
        }
        ++applies;
        {
            PhaseTimer pt(phases, ph.spmv);
            a.spmv(std::span<const T>(vhat, nz), std::span<T>(t, nz));
        }
        ++iters;
        T tt;
        T tr;
        {
            PhaseTimer pt(phases, ph.blas1);
            // (t, t) and (t, r) from a single pass over t.
            std::tie(tt, tr) = blas::fused_dot2(std::span<const T>(t, nz),
                                                std::span<const T>(t, nz),
                                                rspan);
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
            // x += om vhat, r -= om t, ||r|| and the next cycle's
            // f = P^T r.
            const T nom = -om;
            sweep(nz, su + 1, sums,
                  [&](std::size_t lo, std::size_t hi, T* part) {
                      for (std::size_t i = lo; i < hi; ++i) {
                          x[i] += om * vhat[i];
                      }
                      for (std::size_t i = lo; i < hi; ++i) {
                          r[i] += nom * t[i];
                      }
                      dots(rp, su + 1, r, lo, hi, part);
                  });
            normr = std::sqrt(sums[0]);
            std::copy(sums + 1, sums + 1 + su, f);
        }
        smooth();
        const T monitored = opts.smoothing ? norm_rs : normr;
        record_residual(opts, result, static_cast<double>(monitored));
        converged = monitored <= tol;
    }

    if (opts.smoothing) {
        blas::copy(std::span<const T>(ws.xs), x);
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
template SolveResult idr<float>(const sparse::Csr<float>&,
                                std::span<const float>, std::span<float>,
                                const precond::Preconditioner<float>&,
                                const IdrOptions&, IdrWorkspace<float>&);
template SolveResult idr<double>(const sparse::Csr<double>&,
                                 std::span<const double>, std::span<double>,
                                 const precond::Preconditioner<double>&,
                                 const IdrOptions&, IdrWorkspace<double>&);

}  // namespace vbatch::solvers
