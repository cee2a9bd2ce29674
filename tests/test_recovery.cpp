// Tests for the per-block breakdown recovery pipeline: degenerate-block
// detection across every factorization backend, the boosting -> scalar
// Jacobi -> identity fallback chain, solver behavior under degradation,
// the preconditioner factory, and the exported metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "base/exception.hpp"
#include "blocking/extraction.hpp"
#include "blocking/supervariable.hpp"
#include "core/simd_dispatch.hpp"
#include "obs/metrics.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/config.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"
#include "lu_reference.hpp"

namespace vbatch::precond {
namespace {

/// Three 2x2... blocks: a healthy one, an exactly singular one
/// (duplicate rows), and one whose pivot is ~1e-300 relative to the
/// block scale -- the factors exist but are numerically worthless.
sparse::Csr<double> three_block_matrix() {
    return sparse::Csr<double>::from_triplets(
        6, 6,
        {{0, 0, 4.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0},
         {2, 2, 1.0}, {2, 3, 1.0}, {3, 2, 1.0}, {3, 3, 1.0},
         {4, 4, 1e-300}, {5, 5, 1.0}});
}

core::BatchLayoutPtr three_block_layout() {
    return core::make_layout({2, 2, 2});
}

class RecoveryBackends
    : public ::testing::TestWithParam<BlockJacobiBackend> {};

TEST_P(RecoveryBackends, StatusPerBlock) {
    const auto a = three_block_matrix();
    BlockJacobiOptions opts;
    opts.backend = GetParam();
    opts.layout = three_block_layout();
    const BlockJacobi<double> prec(a, opts);

    ASSERT_EQ(prec.block_status().size(), 3u);
    EXPECT_EQ(prec.block_status()[0], core::BlockStatus::ok);
    EXPECT_EQ(prec.block_status()[1], core::BlockStatus::boosted);
    EXPECT_EQ(prec.block_status()[2], core::BlockStatus::boosted);
    const auto summary = prec.recovery_summary();
    EXPECT_EQ(summary.ok, 1);
    EXPECT_EQ(summary.boosted, 2);
    EXPECT_EQ(summary.fell_back, 0);
    EXPECT_EQ(summary.singular, 0);
    EXPECT_EQ(summary.total(), 3u);

    std::vector<double> r(6, 1.0);
    std::vector<double> z(6, 0.0);
    prec.apply(std::span<const double>(r), std::span<double>(z));
    for (const auto v : z) {
        EXPECT_TRUE(std::isfinite(v));
    }
}

TEST_P(RecoveryBackends, StrictPolicyThrows) {
    const auto a = three_block_matrix();
    BlockJacobiOptions opts;
    opts.backend = GetParam();
    opts.layout = three_block_layout();
    opts.recovery = RecoveryPolicy::strict();
    EXPECT_THROW((BlockJacobi<double>(a, opts)), SingularMatrix);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RecoveryBackends,
    ::testing::Values(BlockJacobiBackend::lu, BlockJacobiBackend::lu_simd,
                      BlockJacobiBackend::gauss_huard,
                      BlockJacobiBackend::gauss_huard_t,
                      BlockJacobiBackend::gje_inversion,
                      BlockJacobiBackend::cholesky),
    [](const auto& info) {
        auto name = backend_name(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(Recovery, BoostedBlockStillPreconditions) {
    // Tridiagonal 6x6 whose middle diagonal block is exactly singular;
    // the full matrix is nonsingular, so the solver must converge with
    // the boosted preconditioner.
    const auto a = sparse::Csr<double>::from_triplets(
        6, 6,
        {{0, 0, 4.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 4.0}, {1, 2, 1.0},
         {2, 1, 1.0}, {2, 2, 1.0}, {2, 3, 1.0},
         {3, 2, 1.0}, {3, 3, 1.0}, {3, 4, 1.0},
         {4, 3, 1.0}, {4, 4, 4.0}, {4, 5, 1.0}, {5, 4, 1.0}, {5, 5, 4.0}});
    BlockJacobiOptions opts;
    opts.layout = three_block_layout();
    const BlockJacobi<double> prec(a, opts);
    EXPECT_EQ(prec.recovery_summary().boosted, 1);

    std::vector<double> b(6, 1.0);
    std::vector<double> x(6, 0.0);
    solvers::IdrOptions so;
    so.rel_tol = 1e-10;
    so.max_iters = 100;
    const auto result = solvers::idr(a, std::span<const double>(b),
                                     std::span<double>(x), prec, so);
    EXPECT_EQ(result.status, solvers::SolveStatus::converged);
    EXPECT_EQ(result.preconditioner.boosted, 1);

    // Residual check against the exact system.
    std::vector<double> ax(6, 0.0);
    a.spmv(std::span<const double>(x), std::span<double>(ax));
    for (std::size_t i = 0; i < ax.size(); ++i) {
        EXPECT_NEAR(ax[i], 1.0, 1e-8);
    }
}

TEST(Recovery, FallbackChainScalarJacobiThenIdentity) {
    // max_boosts = 0 disables boosting, so the singular middle block
    // falls back to scalar Jacobi from its pristine diagonal (2.0), and
    // the all-zero last block degrades to identity.
    const auto a = sparse::Csr<double>::from_triplets(
        6, 6,
        {{0, 0, 2.0}, {1, 1, 2.0},
         {2, 2, 2.0}, {2, 3, 2.0}, {3, 2, 2.0}, {3, 3, 2.0}});
    BlockJacobiOptions opts;
    opts.layout = three_block_layout();
    opts.recovery.max_boosts = 0;
    const BlockJacobi<double> prec(a, opts);

    EXPECT_EQ(prec.block_status()[0], core::BlockStatus::ok);
    EXPECT_EQ(prec.block_status()[1], core::BlockStatus::fell_back);
    EXPECT_EQ(prec.block_status()[2], core::BlockStatus::singular);
    const auto summary = prec.recovery_summary();
    EXPECT_EQ(summary.fell_back, 1);
    EXPECT_EQ(summary.singular, 1);
    EXPECT_EQ(summary.degraded(), 2u);

    std::vector<double> r = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
    std::vector<double> z(6, 0.0);
    prec.apply(std::span<const double>(r), std::span<double>(z));
    // Healthy block: exact inverse. Fallback block: r / diag. Singular
    // block: identity.
    EXPECT_DOUBLE_EQ(z[0], 0.5);
    EXPECT_DOUBLE_EQ(z[1], 1.0);
    EXPECT_DOUBLE_EQ(z[2], 1.5);
    EXPECT_DOUBLE_EQ(z[3], 2.0);
    EXPECT_DOUBLE_EQ(z[4], 5.0);
    EXPECT_DOUBLE_EQ(z[5], 6.0);
}

TEST(Recovery, AllZeroBlockSkipsBoostingEvenWhenAllowed) {
    // Boosting an all-zero block would just factorize tau*I; the
    // pipeline goes straight to the identity instead.
    const auto a = sparse::Csr<double>::from_triplets(
        4, 4, {{0, 0, 3.0}, {1, 1, 3.0}});
    BlockJacobiOptions opts;
    opts.layout = core::make_layout({2, 2});
    const BlockJacobi<double> prec(a, opts);
    EXPECT_EQ(prec.block_status()[1], core::BlockStatus::singular);
    EXPECT_EQ(prec.recovery_summary().singular, 1);
}

TEST(Recovery, BoostOnlyPolicyThrowsWhenBoostsExhausted) {
    // An all-zero block cannot be boosted; Mode::boost must throw
    // instead of silently degrading further.
    const auto a = sparse::Csr<double>::from_triplets(
        4, 4, {{0, 0, 3.0}, {1, 1, 3.0}});
    BlockJacobiOptions opts;
    opts.layout = core::make_layout({2, 2});
    opts.recovery = RecoveryPolicy::boost_only();
    EXPECT_THROW((BlockJacobi<double>(a, opts)), SingularMatrix);
}

/// Block-diagonal matrix of `nb` dense mxm blocks with deterministic
/// entries; blocks where `b % 5 == 3` get duplicate first rows (exactly
/// singular, same pattern).
sparse::Csr<double> block_diagonal_matrix(size_type nb, index_type m) {
    std::vector<sparse::Triplet<double>> trips;
    for (size_type b = 0; b < nb; ++b) {
        const auto r0 = static_cast<index_type>(b) * m;
        const bool singular = b % 5 == 3;
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = 0; j < m; ++j) {
                const index_type src = (singular && i == 1) ? 0 : i;
                double v = static_cast<double>(
                               (src * 7 + j * 13 + static_cast<int>(b) * 3) %
                               11) -
                           5.0;
                if (src == j) {
                    v += 12.0;
                }
                trips.push_back({r0 + i, r0 + j, v});
            }
        }
    }
    return sparse::Csr<double>::from_triplets(
        static_cast<index_type>(nb) * m, static_cast<index_type>(nb) * m,
        trips);
}

TEST(Recovery, BitwiseScalarVsSimdWithBoostedBlocks) {
    // The lane pipeline must stay bitwise identical to the scalar kernels
    // when some blocks go through the boosting path: boosted blocks are
    // refactorized by the scalar kernel and repacked into their group.
    const size_type nb = 20;
    const index_type m = 8;
    const auto a = block_diagonal_matrix(nb, m);
    const auto layout = core::make_uniform_layout(nb, m);
    const auto ref = reference::lu_reference(a, layout);

    std::vector<double> r(static_cast<std::size_t>(nb) * m);
    for (std::size_t k = 0; k < r.size(); ++k) {
        r[k] = 1.0 + 0.25 * static_cast<double>(k % 5);
    }
    for (const auto backend :
         {BlockJacobiBackend::lu, BlockJacobiBackend::lu_simd}) {
        BlockJacobiOptions opts;
        opts.backend = backend;
        opts.layout = layout;
        const BlockJacobi<double> prec(a, opts);
        EXPECT_EQ(prec.recovery_summary().boosted, 4);
        EXPECT_TRUE(reference::matches_lu_reference(
            prec, ref, std::span<const double>(r)))
            << prec.name();
    }
}

TEST(Recovery, PreconditionerDegradedSolveStatus) {
    // A degraded preconditioner plus an unreachable tolerance: the
    // result must say preconditioner_degraded, not plain max_iters.
    const auto a = sparse::Csr<double>::from_triplets(
        6, 6,
        {{0, 0, 4.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 4.0}, {1, 2, 1.0},
         {2, 1, 1.0}, {2, 2, 1.0}, {2, 3, 1.0},
         {3, 2, 1.0}, {3, 3, 1.0}, {3, 4, 1.0},
         {4, 3, 1.0}, {4, 4, 4.0}, {4, 5, 1.0}, {5, 4, 1.0}, {5, 5, 4.0}});
    BlockJacobiOptions opts;
    opts.layout = three_block_layout();
    const BlockJacobi<double> prec(a, opts);
    ASSERT_GT(prec.recovery_summary().degraded(), 0u);

    std::vector<double> b(6, 1.0);
    std::vector<double> x(6, 0.0);
    solvers::IdrOptions so;
    so.rel_tol = 1e-30;
    so.max_iters = 1;
    const auto result = solvers::idr(a, std::span<const double>(b),
                                     std::span<double>(x), prec, so);
    EXPECT_FALSE(result.converged());
    EXPECT_EQ(result.status, solvers::SolveStatus::preconditioner_degraded);
}

TEST(Recovery, SolveStatusToString) {
    using solvers::SolveStatus;
    EXPECT_STREQ(to_string(SolveStatus::converged), "converged");
    EXPECT_STREQ(to_string(SolveStatus::max_iters), "max_iters");
    EXPECT_STREQ(to_string(SolveStatus::breakdown), "breakdown");
    EXPECT_STREQ(to_string(SolveStatus::preconditioner_degraded),
                 "preconditioner_degraded");
    EXPECT_STREQ(core::to_string(core::BlockStatus::boosted), "boosted");
}

TEST(Recovery, MetricsExported) {
    auto& registry = obs::Registry::global();
    const auto before_ok = registry.counter_value("block_jacobi.blocks_ok");
    const auto before_boosted =
        registry.counter_value("block_jacobi.blocks_boosted");
    const auto a = three_block_matrix();
    BlockJacobiOptions opts;
    opts.layout = three_block_layout();
    const BlockJacobi<double> prec(a, opts);
    EXPECT_DOUBLE_EQ(registry.counter_value("block_jacobi.blocks_ok"),
                     before_ok + 1.0);
    EXPECT_DOUBLE_EQ(registry.counter_value("block_jacobi.blocks_boosted"),
                     before_boosted + 2.0);
}

TEST(Recovery, MakeBlocksSingularZeroesValuesKeepsPattern) {
    auto a = sparse::laplacian_2d<double>(8, 8, 2, 1);
    const auto layout = blocking::supervariable_layout(
        a, blocking::BlockingOptions{.max_block_size = 8});
    const std::vector<index_type> cols_before(a.col_idxs().begin(),
                                              a.col_idxs().end());
    const auto made = blocking::make_blocks_singular(a, *layout, 3);
    EXPECT_EQ(made, 3u);
    const std::vector<index_type> cols_after(a.col_idxs().begin(),
                                             a.col_idxs().end());
    EXPECT_EQ(cols_before, cols_after);

    BlockJacobiOptions opts;
    opts.layout = layout;
    const BlockJacobi<double> prec(a, opts);
    // The zeroed blocks carry no information at all -> identity.
    EXPECT_EQ(prec.recovery_summary().singular, 3);
    EXPECT_EQ(prec.recovery_summary().ok,
              static_cast<size_type>(layout->count()) - 3);
}

// --- factory -------------------------------------------------------

TEST(Factory, BuildsEveryBuiltinBackend) {
    const auto a = sparse::laplacian_2d<double>(6, 6, 2, 1);
    for (const auto* backend :
         {"none", "jacobi", "lu", "lu-simd", "gh", "gh-t", "gje",
          "gje-inv", "cholesky"}) {
        Config config;
        config.backend = backend;
        config.max_block_size = 8;
        const auto prec = make_preconditioner<double>(a, config);
        ASSERT_NE(prec, nullptr) << backend;
        std::vector<double> r(static_cast<std::size_t>(a.num_rows()), 1.0);
        std::vector<double> z(r.size(), 0.0);
        prec->apply(std::span<const double>(r), std::span<double>(z));
        EXPECT_TRUE(std::isfinite(z[0])) << backend;
    }
}

TEST(Factory, UnknownBackendThrowsWithRegisteredList) {
    const auto a = sparse::laplacian_2d<double>(4, 4, 1, 1);
    try {
        make_preconditioner<double>(a, {.backend = "ilu"});
        FAIL() << "expected BadParameter";
    } catch (const BadParameter& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("ilu"), std::string::npos);
        EXPECT_NE(what.find("lu-simd"), std::string::npos);
    }
}

TEST(Factory, RegisteredBackendsAndQueries) {
    const auto names = registered_backends();
    for (const auto* required : {"none", "jacobi", "lu", "cholesky"}) {
        EXPECT_TRUE(backend_registered(required)) << required;
        EXPECT_NE(std::find(names.begin(), names.end(), required),
                  names.end());
    }
    EXPECT_FALSE(backend_registered("ilu"));
}

TEST(Factory, CustomBackendRegistration) {
    register_backend<double>(
        "test-identity",
        [](const sparse::Csr<double>&, const Config&) {
            return PreconditionerPtr<double>(
                std::make_unique<IdentityPreconditioner<double>>());
        });
    EXPECT_TRUE(backend_registered("test-identity"));
    const auto a = sparse::laplacian_2d<double>(4, 4, 1, 1);
    const auto prec =
        make_preconditioner<double>(a, {.backend = "test-identity"});
    EXPECT_EQ(prec->name(), "identity");
    // Only the double factory was registered; float must still throw.
    const auto af = sparse::laplacian_2d<float>(4, 4, 1, 1);
    EXPECT_THROW(
        make_preconditioner<float>(af, {.backend = "test-identity"}),
        BadParameter);
}

TEST(Factory, StrictConfigPropagatesToBlockJacobi) {
    auto a = three_block_matrix();
    Config config;
    config.backend = "lu";
    config.layout = three_block_layout();
    config.recovery = RecoveryPolicy::strict();
    EXPECT_THROW(make_preconditioner<double>(a, config), SingularMatrix);
    config.recovery = {};
    const auto prec = make_preconditioner<double>(a, config);
    EXPECT_EQ(prec->recovery_summary().boosted, 2);
}

}  // namespace
}  // namespace vbatch::precond
