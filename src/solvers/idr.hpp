// IDR(s) -- the Krylov method of the paper's solver study (IDR(4),
// Section IV.D), in the "biortho" variant of van Gijzen & Sonneveld
// (Algorithm 913, ACM TOMS 2011), with left preconditioning, exactly the
// configuration MAGMA-sparse's IDR uses.
//
// IDR(s) forces the residual into a shrinking sequence of Sonneveld spaces
// G_j; each cycle performs s preconditioned "directions" plus one
// dimension-reduction step, i.e. s+1 operator applications.
#pragma once

#include <cstdint>
#include <vector>

#include "blas/dense_matrix.hpp"
#include "precond/preconditioner.hpp"
#include "solvers/solver_base.hpp"
#include "sparse/csr.hpp"

namespace vbatch::solvers {

struct IdrOptions : SolverOptions {
    /// Shadow-space dimension (the paper uses s = 4).
    index_type s = 4;
    /// Seed for the random shadow space P (fixed for reproducibility).
    std::uint64_t shadow_seed = 7;
    /// Angle safeguard for the omega computation (van Gijzen's kappa).
    double kappa = 0.7;
    /// Minimal-residual smoothing (the option MAGMA-sparse's IDR exposes):
    /// returns the smoothed iterate whose residual norm is monotonically
    /// non-increasing, at the cost of two extra vectors and a dot/axpy
    /// pair per iteration.
    bool smoothing = false;
};

/// The memory an IDR(s) solve works in, kept between solves: the
/// orthonormal shadow space P, built once per (n, s, shadow_seed) key,
/// the bases G and U, the s x s system M and the n-vectors. A warm solve
/// of the same size allocates nothing and does not rebuild P. The members
/// are idr()'s scratch; one solve at a time may use a workspace.
template <typename T>
struct IdrWorkspace {
    DenseMatrix<T> p;
    /// Seed P was drawn with (its shape is p's; 0 x 0 = not built yet).
    std::uint64_t p_seed = 0;
    DenseMatrix<T> g, u, m;
    std::vector<T> r, v, vhat, t, xs, rs;
    /// s-vectors: shadow projections f = P^T r, the small-system
    /// solution c and its negation, the negated biorthogonalisation
    /// coefficients.
    std::vector<T> f, c, negc, nalpha;
    /// Reductions of one sweep: ||r||^2 and P^T r.
    std::vector<T> sums;
    /// Columns those reductions run over: r, then the columns of P.
    std::vector<const T*> rp;
    /// (s x s) workspace of the trailing solves of M, and its pivots.
    std::vector<T> msub;
    std::vector<index_type> msub_piv;
};

/// Solve A x = b with IDR(s); x holds the initial guess on entry and the
/// solution on exit.
template <typename T>
SolveResult idr(const sparse::Csr<T>& a, std::span<const T> b,
                std::span<T> x, const precond::Preconditioner<T>& prec,
                const IdrOptions& opts = {});

/// The same solve in a caller-owned workspace. The result is bitwise
/// identical to the call above, whatever the workspace held before.
template <typename T>
SolveResult idr(const sparse::Csr<T>& a, std::span<const T> b,
                std::span<T> x, const precond::Preconditioner<T>& prec,
                const IdrOptions& opts, IdrWorkspace<T>& ws);

}  // namespace vbatch::solvers
