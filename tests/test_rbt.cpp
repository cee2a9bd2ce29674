// Tests for the pivoting-free fast path: butterfly scheme and scalar
// transforms (core/rbt.hpp), and the PivotScheme::rbt integration of the
// block-Jacobi lu / lu_simd backends -- solve equivalence against the
// pivoted reference, bitwise agreement with the scalar kernels on every
// ISA, seed determinism, and the degeneracy monitor + pivoted fallback
// under adversarial (graded near-singular) injection. Registered once per
// VBATCH_SIMD level via vbatch_add_simd_matrix_test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "base/exception.hpp"
#include "blas/dense_matrix.hpp"
#include "blas/lapack.hpp"
#include "blocking/extraction.hpp"
#include "blocking/supervariable.hpp"
#include "core/rbt.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "lu_reference.hpp"

namespace vbatch {
namespace {

// --- the pure scheme layer -------------------------------------------------

TEST(RbtScheme, SegmentsPartitionEveryLevel) {
    for (const index_type n : {1, 2, 3, 5, 7, 12, 16, 31, 32}) {
        for (index_type level = 0; level <= core::rbt::max_rbt_depth;
             ++level) {
            std::vector<int> covered(static_cast<std::size_t>(n), 0);
            index_type expected_lo = 0;
            core::rbt::for_each_segment(
                n, level, [&](index_type lo, index_type len) {
                    EXPECT_EQ(lo, expected_lo) << "n=" << n << " level="
                                               << level;
                    EXPECT_GE(len, 1);
                    for (index_type i = lo; i < lo + len; ++i) {
                        ++covered[static_cast<std::size_t>(i)];
                    }
                    expected_lo = lo + len;
                });
            EXPECT_EQ(expected_lo, n);
            for (const int c : covered) {
                EXPECT_EQ(c, 1);
            }
        }
    }
}

TEST(RbtScheme, CoefficientsArePureFunctions) {
    const auto a = core::rbt::rbt_coefficient<double>(42, 3, 0, 1, 5, true);
    const auto b = core::rbt::rbt_coefficient<double>(42, 3, 0, 1, 5, true);
    EXPECT_EQ(a, b);
    // Every coordinate participates in the key.
    EXPECT_NE(a, core::rbt::rbt_coefficient<double>(43, 3, 0, 1, 5, true));
    EXPECT_NE(a, core::rbt::rbt_coefficient<double>(42, 4, 0, 1, 5, true));
    EXPECT_NE(a, core::rbt::rbt_coefficient<double>(42, 3, 1, 1, 5, true));
    EXPECT_NE(a, core::rbt::rbt_coefficient<double>(42, 3, 0, 2, 5, true));
    EXPECT_NE(a, core::rbt::rbt_coefficient<double>(42, 3, 0, 1, 6, true));
    // Coefficients stay close to 1 (e^{rho/10}, |rho| < 1), scaled by
    // 1/sqrt(2) when paired.
    const double f = a * std::sqrt(2.0);
    EXPECT_GT(f, std::exp(-0.1));
    EXPECT_LT(f, std::exp(0.1));
}

// Materialize the side-`side` butterfly of `block` as a dense m x m
// matrix by pushing unit vectors through the scalar vector transforms:
// forward() applies U^T, backward() applies V.
template <typename Apply>
DenseMatrix<double> materialize(index_type m, Apply&& apply) {
    DenseMatrix<double> w(m, m);
    std::vector<double> e(static_cast<std::size_t>(m));
    for (index_type j = 0; j < m; ++j) {
        std::fill(e.begin(), e.end(), 0.0);
        e[static_cast<std::size_t>(j)] = 1.0;
        apply(std::span<double>(e));
        for (index_type i = 0; i < m; ++i) {
            w(i, j) = e[static_cast<std::size_t>(i)];
        }
    }
    return w;
}

TEST(RbtTransforms, Depth1ButterflyHasOrthogonalColumns) {
    // A single butterfly level has exactly orthogonal (not orthonormal)
    // columns; deeper recursions lose this, so the property is only
    // asserted at depth 1.
    const core::RbtTransforms<double> rbt(/*seed=*/7, /*depth=*/1);
    for (const index_type m : {2, 3, 5, 8, 16, 31, 32}) {
        const auto v = materialize(m, [&](std::span<double> x) {
            rbt.backward(/*block=*/11, x);
        });
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = i + 1; j < m; ++j) {
                double dot = 0.0;
                for (index_type k = 0; k < m; ++k) {
                    dot += v(k, i) * v(k, j);
                }
                EXPECT_NEAR(dot, 0.0, 1e-14) << "m=" << m << " (" << i
                                             << "," << j << ")";
            }
        }
    }
}

TEST(RbtTransforms, TransformBlockMatchesMaterializedProduct) {
    // transform_block must equal the dense product U^T A V of the
    // materialized butterflies (up to roundoff; the in-place pass uses a
    // different operation order than the triple loop).
    const core::RbtTransforms<double> rbt(/*seed=*/42, /*depth=*/2);
    for (const index_type m : {1, 2, 3, 6, 7}) {
        const size_type block = 5;
        const auto ut = materialize(m, [&](std::span<double> x) {
            rbt.forward(block, x);
        });
        const auto v = materialize(m, [&](std::span<double> x) {
            rbt.backward(block, x);
        });
        const auto layout = core::make_uniform_layout(1, m);
        core::BatchedMatrices<double> mats(layout);
        auto a = mats.view(0);
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = 0; j < m; ++j) {
                a(i, j) = std::sin(1.0 + 0.7 * i + 1.3 * j);
            }
        }
        DenseMatrix<double> ref(m, m);
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = 0; j < m; ++j) {
                double sum = 0.0;
                for (index_type k = 0; k < m; ++k) {
                    for (index_type l = 0; l < m; ++l) {
                        sum += ut(i, k) * a(k, l) * v(l, j);
                    }
                }
                ref(i, j) = sum;
            }
        }
        rbt.transform_block(block, a);
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = 0; j < m; ++j) {
                EXPECT_NEAR(a(i, j), ref(i, j), 1e-12)
                    << "m=" << m << " (" << i << "," << j << ")";
            }
        }
    }
}

TEST(RbtTransforms, ForwardBackwardRoundTripThroughDenseSolve) {
    // Solving (U^T A V) y = U^T b and returning V y must reproduce the
    // solution of A x = b: the full fast-path algebra on one block.
    const index_type m = 12;
    const core::RbtTransforms<double> rbt(/*seed=*/1, /*depth=*/2);
    const auto layout = core::make_uniform_layout(1, m);
    core::BatchedMatrices<double> mats(layout);
    auto a = mats.view(0);
    DenseMatrix<double> plain(m, m);
    for (index_type i = 0; i < m; ++i) {
        for (index_type j = 0; j < m; ++j) {
            a(i, j) = (i == j ? 4.0 : 0.0) + std::cos(0.9 * i - 0.4 * j);
            plain(i, j) = a(i, j);
        }
    }
    std::vector<double> b(static_cast<std::size_t>(m));
    for (index_type i = 0; i < m; ++i) {
        b[static_cast<std::size_t>(i)] = 1.0 + 0.1 * i;
    }
    std::vector<double> ref = b;
    ASSERT_EQ(lapack::gesv<double>(plain.view(),
                                         std::span<double>(ref)),
              0);

    rbt.transform_block(0, a);
    DenseMatrix<double> transformed(m, m);
    for (index_type i = 0; i < m; ++i) {
        for (index_type j = 0; j < m; ++j) {
            transformed(i, j) = a(i, j);
        }
    }
    std::vector<double> x = b;
    rbt.forward(0, std::span<double>(x));
    ASSERT_EQ(lapack::gesv<double>(transformed.view(),
                                         std::span<double>(x)),
              0);
    rbt.backward(0, std::span<double>(x));
    for (index_type i = 0; i < m; ++i) {
        EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                    ref[static_cast<std::size_t>(i)], 1e-10);
    }
}

TEST(RbtTransforms, DepthIsClampedToSchemeBound) {
    const core::RbtTransforms<double> low(1, 0);
    EXPECT_EQ(low.depth(), 1);
    const core::RbtTransforms<double> high(1, 99);
    EXPECT_EQ(high.depth(), core::rbt::max_rbt_depth);
}

TEST(RbtTransforms, DefaultSeedReadsEnvironment) {
    ASSERT_EQ(setenv("VBATCH_RBT_SEED", "777", 1), 0);
    EXPECT_EQ(core::default_rbt_seed(), 777u);
    ASSERT_EQ(setenv("VBATCH_RBT_SEED", "12abc", 1), 0);
    EXPECT_EQ(core::default_rbt_seed(), 42u);  // trailing garbage -> default
    ASSERT_EQ(unsetenv("VBATCH_RBT_SEED"), 0);
    EXPECT_EQ(core::default_rbt_seed(), 42u);
}

// --- block-Jacobi integration ----------------------------------------------

std::vector<double> rhs(index_type n) {
    std::vector<double> r(static_cast<std::size_t>(n));
    for (index_type i = 0; i < n; ++i) {
        r[static_cast<std::size_t>(i)] =
            std::sin(0.1 * static_cast<double>(i)) + 0.5;
    }
    return r;
}

TEST(BlockJacobiRbt, SolveMatchesPivotedWithinTolerance) {
    const auto a = sparse::laplacian_2d<double>(6, 6, 4);
    const auto n = a.num_rows();
    const auto r = rhs(n);

    precond::BlockJacobiOptions implicit_opts;
    implicit_opts.backend = precond::BlockJacobiBackend::lu;
    implicit_opts.max_block_size = 16;
    precond::BlockJacobi<double> pivoted(a, implicit_opts);
    std::vector<double> z_ref(r.size());
    pivoted.apply(std::span<const double>(r), std::span<double>(z_ref));

    auto rbt_opts = implicit_opts;
    rbt_opts.pivot = precond::PivotScheme::rbt;
    precond::BlockJacobi<double> fast(a, rbt_opts);
    EXPECT_EQ(fast.name(), "block-jacobi(lu+rbt,16)");
    // Benign blocks: nothing leaves the fast path.
    EXPECT_EQ(fast.rbt_fellback(), 0);
    EXPECT_EQ(fast.recovery_summary().ok, fast.num_blocks());
    for (size_type b = 0; b < fast.num_blocks(); ++b) {
        EXPECT_TRUE(fast.rbt_applied(b));
    }

    std::vector<double> z(r.size());
    fast.apply(std::span<const double>(r), std::span<double>(z));
    for (std::size_t i = 0; i < z.size(); ++i) {
        EXPECT_NEAR(z[i], z_ref[i], 1e-9) << "row " << i;
    }
}

TEST(BlockJacobiRbt, SimdBackendMatchesScalarBitwise) {
    // lu and lu-simd on every ISA against the scalar reference: butterfly
    // transform + getrf_nopivot per block, forward / getrs_single_nopivot
    // / backward per solve. The chunk kernels mirror those op for op.
    const auto a = sparse::fem_block_matrix<double>(60, 4, 12, 2, 0.2, 29);
    const auto r = rhs(a.num_rows());
    std::vector<precond::BlockJacobiOptions> all(1);
    all[0].backend = precond::BlockJacobiBackend::lu;
    for (const auto isa : core::available_simd_isas()) {
        precond::BlockJacobiOptions simd;
        simd.backend = precond::BlockJacobiBackend::lu_simd;
        simd.simd = isa;
        all.push_back(simd);
    }
    for (auto opts : all) {
        opts.pivot = precond::PivotScheme::rbt;
        const precond::BlockJacobi<double> prec(a, opts);
        const auto ref = reference::lu_reference(
            a, prec.symbolic()->layout, precond::PivotScheme::rbt,
            opts.rbt_seed);
        EXPECT_TRUE(reference::matches_lu_reference(
            prec, ref, std::span<const double>(r)))
            << prec.name();
    }
}

TEST(BlockJacobiRbt, SeedDeterminismAndVariation) {
    const auto a = sparse::laplacian_2d<double>(8, 8, 4);
    const auto r = rhs(a.num_rows());

    precond::BlockJacobiOptions opts;
    opts.backend = precond::BlockJacobiBackend::lu_simd;
    opts.pivot = precond::PivotScheme::rbt;
    opts.rbt_seed = 1234;
    precond::BlockJacobi<double> first(a, opts);
    precond::BlockJacobi<double> second(a, opts);
    std::vector<double> z1(r.size()), z2(r.size());
    first.apply(std::span<const double>(r), std::span<double>(z1));
    second.apply(std::span<const double>(r), std::span<double>(z2));
    for (size_type b = 0; b < first.factors().count(); ++b) {
        const auto va = first.factors().view(b);
        const auto vb = second.factors().view(b);
        for (index_type c = 0; c < va.cols(); ++c) {
            for (index_type rr = 0; rr < va.rows(); ++rr) {
                ASSERT_EQ(va(rr, c), vb(rr, c));
            }
        }
    }
    EXPECT_EQ(z1, z2);

    // A different seed draws different butterflies (different factor
    // bits) but an equally valid preconditioner.
    opts.rbt_seed = 99;
    precond::BlockJacobi<double> other(a, opts);
    bool any_diff = false;
    for (size_type b = 0; !any_diff && b < first.factors().count(); ++b) {
        const auto va = first.factors().view(b);
        const auto vb = other.factors().view(b);
        for (index_type c = 0; !any_diff && c < va.cols(); ++c) {
            for (index_type rr = 0; rr < va.rows(); ++rr) {
                if (va(rr, c) != vb(rr, c)) {
                    any_diff = true;
                    break;
                }
            }
        }
    }
    EXPECT_TRUE(any_diff);
    std::vector<double> z3(r.size());
    other.apply(std::span<const double>(r), std::span<double>(z3));
    for (std::size_t i = 0; i < z3.size(); ++i) {
        EXPECT_NEAR(z3[i], z1[i], 1e-8);
    }
}

TEST(BlockJacobiRbt, RefreshReproducesBitwise) {
    const auto a = sparse::fem_block_matrix<double>(40, 4, 10, 2, 0.2, 31);
    const auto r = rhs(a.num_rows());
    precond::BlockJacobiOptions opts;
    opts.backend = precond::BlockJacobiBackend::lu_simd;
    opts.pivot = precond::PivotScheme::rbt;
    precond::BlockJacobi<double> prec(a, opts);
    std::vector<double> z1(r.size());
    prec.apply(std::span<const double>(r), std::span<double>(z1));
    const auto fellback = prec.rbt_fellback();

    prec.refresh(a);
    std::vector<double> z2(r.size());
    prec.apply(std::span<const double>(r), std::span<double>(z2));
    EXPECT_EQ(z1, z2);
    EXPECT_EQ(prec.rbt_fellback(), fellback);
}

TEST(BlockJacobiRbt, IllcondInjectionFallsBackToPivotedFactors) {
    auto a = sparse::laplacian_2d<double>(16, 16, 4);
    const auto layout = blocking::supervariable_layout(
        a, blocking::BlockingOptions{.max_block_size = 16});
    const size_type injected =
        blocking::make_blocks_singular(a, *layout, 0);  // none; keep helper hot
    (void)injected;
    const size_type graded =
        blocking::make_blocks_illcond(a, *layout, 4);
    ASSERT_EQ(graded, 4);

    // The pivoted reference keeps the graded blocks (their pivots sit
    // above the implicit-path eps^2 tolerance)...
    precond::BlockJacobiOptions implicit_opts;
    implicit_opts.backend = precond::BlockJacobiBackend::lu;
    implicit_opts.max_block_size = 16;
    implicit_opts.layout = layout;
    precond::BlockJacobi<double> pivoted(a, implicit_opts);
    EXPECT_EQ(pivoted.recovery_summary().ok, pivoted.num_blocks());

    // ...while the fast path's eps-scale monitor must flag them, fall
    // back to pivoted refactorization, and recover every one: zero
    // un-recovered degraded blocks.
    auto rbt_opts = implicit_opts;
    rbt_opts.pivot = precond::PivotScheme::rbt;
    precond::BlockJacobi<double> fast(a, rbt_opts);
    EXPECT_GE(fast.rbt_monitored(), graded);
    EXPECT_GE(fast.rbt_fellback(), graded);
    EXPECT_EQ(fast.rbt_monitored(), fast.rbt_fellback());
    const auto summary = fast.recovery_summary();
    EXPECT_EQ(summary.fell_back, 0);
    EXPECT_EQ(summary.singular, 0);
    EXPECT_EQ(summary.ok + summary.boosted, fast.num_blocks());
    const auto nb = fast.num_blocks();
    for (size_type k = 0; k < graded; ++k) {
        EXPECT_FALSE(fast.rbt_applied(k * nb / graded)) << "block " << k;
    }

    // The recovered blocks hold exactly the pivoted path's factors and
    // solve through the same scalar kernel, so their rows of the
    // application agree bitwise with the pivoted reference; every row is
    // finite.
    const auto r = rhs(a.num_rows());
    std::vector<double> z_ref(r.size()), z(r.size());
    pivoted.apply(std::span<const double>(r), std::span<double>(z_ref));
    fast.apply(std::span<const double>(r), std::span<double>(z));
    for (std::size_t i = 0; i < z.size(); ++i) {
        ASSERT_TRUE(std::isfinite(z[i])) << "row " << i;
    }
    for (size_type k = 0; k < graded; ++k) {
        const auto b = k * nb / graded;
        const auto r0 = fast.layout().row_offset(b);
        const index_type m = fast.layout().size(b);
        for (index_type i = 0; i < m; ++i) {
            ASSERT_EQ(z[r0 + static_cast<std::size_t>(i)],
                      z_ref[r0 + static_cast<std::size_t>(i)])
                << "block " << b << " row " << i;
        }
    }

    // End state is bitwise reproducible across a fresh identical setup.
    precond::BlockJacobi<double> again(a, rbt_opts);
    std::vector<double> z_again(r.size());
    again.apply(std::span<const double>(r), std::span<double>(z_again));
    EXPECT_EQ(z, z_again);
    EXPECT_EQ(again.rbt_fellback(), fast.rbt_fellback());
    // The fallen-back blocks equal the scalar kernels' recovery chain.
    const auto ref = reference::lu_reference(a, layout,
                                             precond::PivotScheme::rbt,
                                             rbt_opts.rbt_seed);
    EXPECT_TRUE(reference::matches_lu_reference(
        fast, ref, std::span<const double>(r)));
}

TEST(BlockJacobiRbt, SingularInjectionDegradesLikePivotedPath) {
    auto a = sparse::laplacian_2d<double>(12, 12, 4);
    const auto layout = blocking::supervariable_layout(
        a, blocking::BlockingOptions{.max_block_size = 16});
    const size_type zeroed = blocking::make_blocks_singular(a, *layout, 2);
    ASSERT_EQ(zeroed, 2);

    precond::BlockJacobiOptions opts;
    opts.backend = precond::BlockJacobiBackend::lu_simd;
    opts.max_block_size = 16;
    opts.layout = layout;
    opts.pivot = precond::PivotScheme::rbt;
    precond::BlockJacobi<double> fast(a, opts);
    const auto summary = fast.recovery_summary();
    EXPECT_EQ(summary.fell_back + summary.singular, zeroed);
    EXPECT_EQ(summary.ok, fast.num_blocks() - zeroed);

    const auto r = rhs(a.num_rows());
    std::vector<double> z(r.size());
    fast.apply(std::span<const double>(r), std::span<double>(z));
    for (const double v : z) {
        EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(BlockJacobiRbt, FloatPathSolvesWithinPrecisionTolerance) {
    const auto a = sparse::laplacian_2d<float>(6, 6, 4);
    const auto n = a.num_rows();
    std::vector<float> r(static_cast<std::size_t>(n));
    for (index_type i = 0; i < n; ++i) {
        r[static_cast<std::size_t>(i)] =
            std::sin(0.1f * static_cast<float>(i)) + 0.5f;
    }
    precond::BlockJacobiOptions opts;
    opts.backend = precond::BlockJacobiBackend::lu_simd;
    opts.max_block_size = 16;
    precond::BlockJacobi<float> pivoted(a, opts);
    opts.pivot = precond::PivotScheme::rbt;
    precond::BlockJacobi<float> fast(a, opts);
    EXPECT_EQ(fast.rbt_fellback(), 0);
    std::vector<float> z_ref(r.size()), z(r.size());
    pivoted.apply(std::span<const float>(r), std::span<float>(z_ref));
    fast.apply(std::span<const float>(r), std::span<float>(z));
    for (std::size_t i = 0; i < z.size(); ++i) {
        EXPECT_NEAR(z[i], z_ref[i], 1e-4f) << "row " << i;
    }
}

TEST(BlockJacobiRbt, RejectsStrictRecoveryAndNonLuBackends) {
    const auto a = sparse::laplacian_2d<double>(4, 4, 4);
    precond::BlockJacobiOptions opts;
    opts.backend = precond::BlockJacobiBackend::lu;
    opts.pivot = precond::PivotScheme::rbt;
    opts.recovery = precond::RecoveryPolicy::strict();
    EXPECT_THROW((precond::BlockJacobi<double>(a, opts)), BadParameter);

    opts.recovery = {};
    opts.backend = precond::BlockJacobiBackend::gauss_huard;
    EXPECT_THROW((precond::BlockJacobi<double>(a, opts)), BadParameter);
}

}  // namespace
}  // namespace vbatch
