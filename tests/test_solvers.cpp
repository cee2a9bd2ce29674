// Tests for the IDR(s) Krylov solver.
#include "base/exception.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blas/blas1.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/preconditioner.hpp"
#include "precond/scalar_jacobi.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"

namespace vbatch::solvers {
namespace {

/// ||b - A x|| / ||b||
double true_residual(const sparse::Csr<double>& a,
                     std::span<const double> b, std::span<const double> x) {
    std::vector<double> r(b.size());
    a.spmv(x, std::span<double>(r));
    for (std::size_t i = 0; i < r.size(); ++i) {
        r[i] = b[i] - r[i];
    }
    return blas::nrm2(std::span<const double>(r)) /
           blas::nrm2(std::span<const double>(b));
}

struct Problem {
    sparse::Csr<double> a;
    std::vector<double> b;
    std::vector<double> x;
};

Problem make_problem(sparse::Csr<double> a) {
    Problem p{std::move(a), {}, {}};
    p.b.assign(static_cast<std::size_t>(p.a.num_rows()), 1.0);
    p.x.assign(p.b.size(), 0.0);
    return p;
}

TEST(Idr, JacobiPreconditioningReducesIterations) {
    // Badly scaled SPD system: diag Jacobi fixes the scaling.
    auto a = sparse::laplacian_2d<double>(16, 16, 1);
    std::vector<sparse::Triplet<double>> t;
    for (index_type i = 0; i < a.num_rows(); ++i) {
        const double s = (i % 2 == 0) ? 100.0 : 1.0;
        for (auto p = a.row_ptrs()[static_cast<std::size_t>(i)];
             p < a.row_ptrs()[static_cast<std::size_t>(i) + 1]; ++p) {
            const auto j = a.col_idxs()[static_cast<std::size_t>(p)];
            const double sj = (j % 2 == 0) ? 100.0 : 1.0;
            t.push_back({i, j,
                         s * sj * a.values()[static_cast<std::size_t>(p)]});
        }
    }
    auto scaled = sparse::Csr<double>::from_triplets(a.num_rows(),
                                                     a.num_cols(),
                                                     std::move(t));
    auto p1 = make_problem(scaled);
    auto p2 = make_problem(std::move(scaled));
    precond::IdentityPreconditioner<double> ident;
    precond::ScalarJacobi<double> jac(p2.a);
    const auto r1 = idr(p1.a, std::span<const double>(p1.b),
                        std::span<double>(p1.x), ident);
    const auto r2 = idr(p2.a, std::span<const double>(p2.b),
                        std::span<double>(p2.x), jac);
    EXPECT_TRUE(r2.converged());
    EXPECT_LT(r2.iterations, r1.iterations);
}

TEST(Idr, SolvesNonsymmetricSystem) {
    auto p = make_problem(
        sparse::convection_diffusion_2d<double>(18, 18, 1, 15.0));
    precond::IdentityPreconditioner<double> prec;
    const auto result = idr(p.a, std::span<const double>(p.b),
                            std::span<double>(p.x), prec);
    EXPECT_TRUE(result.converged());
    EXPECT_FALSE(result.breakdown());
    EXPECT_LT(true_residual(p.a, p.b, p.x), 1e-5);
}

TEST(Idr, ShadowDimensionHelps) {
    // IDR(4) should converge in fewer operator applications than IDR(1)
    // on a tough nonsymmetric problem (typical, not guaranteed -- use a
    // problem where the effect is robust).
    auto p1 = make_problem(
        sparse::convection_diffusion_2d<double>(22, 22, 1, 40.0));
    auto p4 = make_problem(
        sparse::convection_diffusion_2d<double>(22, 22, 1, 40.0));
    precond::IdentityPreconditioner<double> prec;
    IdrOptions o1;
    o1.s = 1;
    IdrOptions o4;
    o4.s = 4;
    const auto r1 = idr(p1.a, std::span<const double>(p1.b),
                        std::span<double>(p1.x), prec, o1);
    const auto r4 = idr(p4.a, std::span<const double>(p4.b),
                        std::span<double>(p4.x), prec, o4);
    ASSERT_TRUE(r4.converged());
    if (r1.converged()) {
        EXPECT_LT(r4.iterations, r1.iterations + 50);
    }
}

TEST(Idr, BlockJacobiBeatsIdentityOnBlockProblem) {
    const auto a = sparse::fem_block_matrix<double>(150, 8, 16, 2, 0.3, 17);
    auto p1 = make_problem(a);
    auto p2 = make_problem(a);
    precond::IdentityPreconditioner<double> ident;
    precond::BlockJacobiOptions opts;
    opts.max_block_size = 16;
    precond::BlockJacobi<double> bj(p2.a, opts);
    const auto r1 = idr(p1.a, std::span<const double>(p1.b),
                        std::span<double>(p1.x), ident);
    const auto r2 = idr(p2.a, std::span<const double>(p2.b),
                        std::span<double>(p2.x), bj);
    ASSERT_TRUE(r2.converged());
    EXPECT_LT(r2.iterations, r1.iterations);
    EXPECT_LT(true_residual(p2.a, p2.b, p2.x), 1e-5);
}

TEST(Idr, RespectsMaxIterations) {
    // An unpreconditioned Laplacian needs far more than 7 matvecs.
    auto p = make_problem(sparse::laplacian_2d<double>(40, 40, 1));
    precond::IdentityPreconditioner<double> prec;
    IdrOptions opts;
    opts.max_iters = 7;
    const auto result = idr(p.a, std::span<const double>(p.b),
                            std::span<double>(p.x), prec, opts);
    EXPECT_FALSE(result.converged());
    EXPECT_LE(result.iterations, 7);
}

TEST(Idr, RecordsResidualHistory) {
    auto p = make_problem(sparse::laplacian_2d<double>(10, 10, 1));
    precond::IdentityPreconditioner<double> prec;
    IdrOptions opts;
    opts.keep_residual_history = true;
    const auto result = idr(p.a, std::span<const double>(p.b),
                            std::span<double>(p.x), prec, opts);
    ASSERT_TRUE(result.converged());
    ASSERT_GT(result.residual_history.size(), 1u);
    EXPECT_DOUBLE_EQ(result.residual_history.front(),
                     result.initial_residual);
    EXPECT_LE(result.residual_history.back(),
              1e-6 * result.initial_residual * 1.0000001);
}

TEST(Idr, ZeroRhsConvergesImmediately) {
    auto a = sparse::laplacian_2d<double>(6, 6, 1);
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 0.0);
    std::vector<double> x(b.size(), 0.0);
    precond::IdentityPreconditioner<double> prec;
    const auto result = idr(a, std::span<const double>(b),
                            std::span<double>(x), prec);
    EXPECT_TRUE(result.converged());
    EXPECT_EQ(result.iterations, 0);
}

TEST(Idr, NonzeroInitialGuess) {
    auto p = make_problem(sparse::laplacian_2d<double>(12, 12, 1));
    // Start from a partially-correct guess.
    for (std::size_t i = 0; i < p.x.size(); ++i) {
        p.x[i] = 0.1;
    }
    precond::IdentityPreconditioner<double> prec;
    const auto result = idr(p.a, std::span<const double>(p.b),
                            std::span<double>(p.x), prec);
    EXPECT_TRUE(result.converged());
    EXPECT_LT(true_residual(p.a, p.b, p.x), 1e-5);
}

TEST(Solvers, AllAgreeOnTheSolution) {
    const auto a = sparse::convection_diffusion_2d<double>(12, 12, 2, 5.0);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> x_ref(n);
    for (std::size_t i = 0; i < n; ++i) {
        x_ref[i] = std::cos(0.05 * static_cast<double>(i));
    }
    std::vector<double> b(n);
    a.spmv(std::span<const double>(x_ref), std::span<double>(b));
    precond::ScalarJacobi<double> prec(a);

    // IDR(1), IDR(4) and smoothed IDR(4) all recover the manufactured
    // solution.
    std::vector<double> x1(n, 0.0), x2(n, 0.0), x3(n, 0.0);
    IdrOptions o1;
    o1.s = 1;
    o1.rel_tol = 1e-10;
    IdrOptions o4;
    o4.rel_tol = 1e-10;
    IdrOptions smooth = o4;
    smooth.smoothing = true;
    ASSERT_TRUE(idr(a, std::span<const double>(b), std::span<double>(x1),
                    prec, o1)
                    .converged());
    ASSERT_TRUE(idr(a, std::span<const double>(b), std::span<double>(x2),
                    prec, o4)
                    .converged());
    ASSERT_TRUE(idr(a, std::span<const double>(b), std::span<double>(x3),
                    prec, smooth)
                    .converged());
    for (std::size_t i = 0; i < n; i += 17) {
        EXPECT_NEAR(x1[i], x_ref[i], 1e-6);
        EXPECT_NEAR(x2[i], x_ref[i], 1e-6);
        EXPECT_NEAR(x3[i], x_ref[i], 1e-6);
    }
}

TEST(Idr, SmoothingMonotoneAndCorrect) {
    auto p = make_problem(
        sparse::convection_diffusion_2d<double>(20, 20, 1, 30.0));
    precond::IdentityPreconditioner<double> prec;
    IdrOptions opts;
    opts.smoothing = true;
    opts.keep_residual_history = true;
    const auto result = idr(p.a, std::span<const double>(p.b),
                            std::span<double>(p.x), prec, opts);
    ASSERT_TRUE(result.converged());
    EXPECT_LT(true_residual(p.a, p.b, p.x), 1e-5);
    // The smoothed residual history is monotonically non-increasing.
    for (std::size_t i = 1; i < result.residual_history.size(); ++i) {
        EXPECT_LE(result.residual_history[i],
                  result.residual_history[i - 1] * (1.0 + 1e-12))
            << "at " << i;
    }
}

TEST(Idr, SmoothingAgreesWithPlainIdr) {
    auto p1 = make_problem(sparse::laplacian_2d<double>(15, 15, 2));
    auto p2 = make_problem(sparse::laplacian_2d<double>(15, 15, 2));
    precond::IdentityPreconditioner<double> prec;
    IdrOptions plain;
    IdrOptions smooth;
    smooth.smoothing = true;
    const auto r1 = idr(p1.a, std::span<const double>(p1.b),
                        std::span<double>(p1.x), prec, plain);
    const auto r2 = idr(p2.a, std::span<const double>(p2.b),
                        std::span<double>(p2.x), prec, smooth);
    ASSERT_TRUE(r1.converged());
    ASSERT_TRUE(r2.converged());
    // Both solve the system; iteration counts are in the same ballpark.
    EXPECT_LT(true_residual(p2.a, p2.b, p2.x), 1e-5);
    EXPECT_LT(std::abs(r1.iterations - r2.iterations),
              r1.iterations / 2 + 10);
}

TEST(Solvers, DimensionChecks) {
    auto a = sparse::laplacian_2d<double>(4, 4, 1);
    std::vector<double> b(5, 1.0), x(5, 0.0);
    precond::IdentityPreconditioner<double> prec;
    EXPECT_THROW(idr(a, std::span<const double>(b), std::span<double>(x),
                     prec),
                 DimensionMismatch);
}

}  // namespace
}  // namespace vbatch::solvers
