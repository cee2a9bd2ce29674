// Tests for the IDR(s) Krylov solver.
#include "base/exception.hpp"
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "blas/blas1.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/preconditioner.hpp"
#include "precond/scalar_jacobi.hpp"
#include "solvers/config.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"
#include "idr_reference.hpp"

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

// ---------------------------------------------------------------------
// Bitwise oracle: the fused, workspace-resident solve against the
// unfused reference (tests/idr_reference.hpp)
// ---------------------------------------------------------------------

struct OracleCase {
    const char* name;
    sparse::Csr<double> a;
};

/// The service benchmark's small tenant (309 rows).
sparse::Csr<double> small_tenant() {
    return sparse::fem_block_matrix<double>(64, 2, 8, 2, 0.25, 101);
}

/// The suite cases span one, two and five BLAS-1 chunks (7225, 10816 and
/// 40000 rows); the last is the service benchmark's small tenant.
std::vector<OracleCase> oracle_cases() {
    std::vector<OracleCase> cases;
    for (const char* name :
         {"convdiff_p10_d1", "hard_conv_shift", "circuit_l"}) {
        cases.push_back({name, sparse::build_suite_matrix(
                                   sparse::suite_case_by_name(name))});
    }
    cases.push_back({"small_tenant", small_tenant()});
    return cases;
}

std::vector<double> oracle_vector(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 eng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> v(n);
    for (auto& e : v) {
        e = dist(eng);
    }
    return v;
}

/// The block-Jacobi configuration of the benchmark's solves.
precond::BlockJacobiOptions oracle_precond() {
    precond::BlockJacobiOptions popts;
    popts.backend = precond::BlockJacobiBackend::lu_simd;
    popts.max_block_size = 32;
    return popts;
}

IdrOptions oracle_options(index_type s, bool smoothing) {
    IdrOptions opts;
    opts.s = s;
    opts.smoothing = smoothing;
    opts.max_iters = 300;
    opts.keep_residual_history = true;
    return opts;
}

/// Solve with `solve` from x0 and compare everything against the
/// reference run from the same x0.
template <typename Solve>
void expect_matches_reference(const sparse::Csr<double>& a,
                              const precond::Preconditioner<double>& prec,
                              const std::vector<double>& b,
                              const std::vector<double>& x0,
                              const IdrOptions& opts, Solve&& solve) {
    std::vector<double> x_ref = x0;
    const auto want = reference::idr_reference<double>(
        a, std::span<const double>(b), std::span<double>(x_ref), prec, opts);
    std::vector<double> x = x0;
    const SolveResult got = solve(std::span<double>(x));
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.status, want.status);
    const auto same = [](double lhs, double rhs) {
        return std::bit_cast<std::uint64_t>(lhs) ==
               std::bit_cast<std::uint64_t>(rhs);
    };
    EXPECT_TRUE(same(got.initial_residual, want.initial_residual));
    EXPECT_TRUE(same(got.final_residual, want.final_residual))
        << got.final_residual << " vs " << want.final_residual;
    EXPECT_TRUE(reference::same_bits<double>(got.residual_history,
                                             want.residual_history));
    EXPECT_TRUE(reference::same_bits<double>(x, x_ref));
}

TEST(IdrOracle, MatchesUnfusedReferenceBitwise) {
    for (const auto& c : oracle_cases()) {
        const precond::BlockJacobi<double> prec(c.a, oracle_precond());
        const auto nz = static_cast<std::size_t>(c.a.num_rows());
        const auto b = oracle_vector(nz, 11);
        const std::vector<double> x0(nz, 0.0);
        for (const index_type s : {1, 2, 4}) {
            for (const bool smoothing : {false, true}) {
                SCOPED_TRACE(std::string(c.name) + " s=" +
                             std::to_string(s) +
                             (smoothing ? " smoothing" : ""));
                const auto opts = oracle_options(s, smoothing);
                expect_matches_reference(
                    c.a, prec, b, x0, opts, [&](std::span<double> x) {
                        return idr(c.a, std::span<const double>(b), x, prec,
                                   opts);
                    });
            }
        }
    }
}

TEST(IdrOracle, NonzeroInitialGuessAndMidCycleStop) {
    // A nonzero x0, and budgets that stop inside the first, second and a
    // later cycle (IDR(4) cycles are 5 iterations long).
    for (const auto& c : oracle_cases()) {
        const precond::BlockJacobi<double> prec(c.a, oracle_precond());
        const auto nz = static_cast<std::size_t>(c.a.num_rows());
        const auto b = oracle_vector(nz, 12);
        const auto x0 = oracle_vector(nz, 13);
        for (const index_type max_iters : {3, 7, 300}) {
            SCOPED_TRACE(std::string(c.name) +
                         " max_iters=" + std::to_string(max_iters));
            auto opts = oracle_options(4, false);
            opts.max_iters = max_iters;
            expect_matches_reference(
                c.a, prec, b, x0, opts, [&](std::span<double> x) {
                    return idr(c.a, std::span<const double>(b), x, prec,
                               opts);
                });
        }
    }
}

TEST(IdrOracle, WarmSolvesOnOneSolver) {
    // One Solver keeps its workspace across solves: the same size again,
    // another size (P is rebuilt), and back.
    const auto cases = oracle_cases();
    Config config;
    config.max_iters = 300;
    config.idr_smoothing = true;
    config.keep_residual_history = true;
    const auto solver = make_solver<double>(config);
    for (const std::size_t i : {0, 0, 3, 3, 0}) {
        const auto& c = cases[i];
        SCOPED_TRACE(c.name);
        const precond::BlockJacobi<double> prec(c.a, oracle_precond());
        const auto nz = static_cast<std::size_t>(c.a.num_rows());
        const auto b = oracle_vector(nz, 20 + i);
        expect_matches_reference(
            c.a, prec, b, std::vector<double>(nz, 0.0),
            config.idr_options(), [&](std::span<double> x) {
                return solver->solve(c.a, std::span<const double>(b), x,
                                     prec);
            });
    }
    // One workspace through budget-stopped solves that leave G, U and M
    // mid-cycle, a change of s, a change of seed and a change of size.
    IdrWorkspace<double> ws;
    struct Step {
        std::size_t matrix;
        index_type s;
        index_type max_iters;
        std::uint64_t seed;
    };
    for (const Step step : {Step{3, 4, 300, 7}, Step{3, 4, 6, 7},
                            Step{3, 4, 300, 7}, Step{3, 2, 300, 7},
                            Step{3, 4, 300, 9}, Step{0, 4, 7, 7},
                            Step{3, 4, 300, 7}}) {
        const auto& c = cases[step.matrix];
        SCOPED_TRACE(std::string(c.name) + " s=" + std::to_string(step.s) +
                     " max_iters=" + std::to_string(step.max_iters) +
                     " seed=" + std::to_string(step.seed));
        const precond::BlockJacobi<double> prec(c.a, oracle_precond());
        const auto nz = static_cast<std::size_t>(c.a.num_rows());
        const auto b = oracle_vector(nz, 30 + step.matrix);
        auto opts = oracle_options(step.s, false);
        opts.max_iters = step.max_iters;
        opts.shadow_seed = step.seed;
        expect_matches_reference(
            c.a, prec, b, std::vector<double>(nz, 0.0), opts,
            [&](std::span<double> x) {
                return idr(c.a, std::span<const double>(b), x, prec, opts,
                           ws);
            });
    }
}

TEST(IdrOracle, ThreadsSharingOneSolver) {
    // Concurrent solves on one Solver: whoever misses the workspace lock
    // runs in a call-local workspace; every solve still matches the
    // reference bitwise. (BlockJacobi::apply stages data in the
    // preconditioner, so each thread applies its own.)
    const auto a = small_tenant();
    const precond::BlockJacobi<double> prec(a, oracle_precond());
    const precond::BlockJacobi<double> prec2(a, oracle_precond());
    const auto nz = static_cast<std::size_t>(a.num_rows());
    const Config config;
    const auto solver = make_solver<double>(config);
    const auto opts = config.idr_options();
    std::vector<std::vector<double>> rhs;
    std::vector<std::vector<double>> expected;
    std::vector<index_type> expected_iters;
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
        rhs.push_back(oracle_vector(nz, 40 + seed));
        std::vector<double> x(nz, 0.0);
        expected_iters.push_back(
            reference::idr_reference<double>(
                a, std::span<const double>(rhs.back()),
                std::span<double>(x), prec, opts)
                .iterations);
        expected.push_back(std::move(x));
    }
    std::vector<int> mismatches(2, 0);
    std::vector<std::thread> threads;
    for (std::size_t tid = 0; tid < 2; ++tid) {
        threads.emplace_back([&, tid] {
            for (int rep = 0; rep < 200; ++rep) {
                std::vector<double> x(nz, 0.0);
                const auto got = solver->solve(
                    a, std::span<const double>(rhs[tid]),
                    std::span<double>(x), tid == 0 ? prec : prec2);
                if (got.iterations != expected_iters[tid] ||
                    !reference::same_bits<double>(x, expected[tid])) {
                    ++mismatches[tid];
                }
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(mismatches, std::vector<int>(2, 0));
}

}  // namespace
}  // namespace vbatch::solvers
