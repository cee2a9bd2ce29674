// Tests for the batched Cholesky (the paper's future-work variant).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/dense_matrix.hpp"
#include "blas/lapack.hpp"
#include "core/cholesky.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/scalar_jacobi.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"

namespace vbatch::core {
namespace {

/// Random SPD batch: A = R R^T + n I per block.
BatchedMatrices<double> random_spd(BatchLayoutPtr layout,
                                   std::uint64_t seed) {
    auto batch = BatchedMatrices<double>::random_general(layout, seed);
    for (size_type b = 0; b < batch.count(); ++b) {
        auto v = batch.view(b);
        const index_type m = v.rows();
        DenseMatrix<double> r(m, m);
        for (index_type j = 0; j < m; ++j) {
            for (index_type i = 0; i < m; ++i) {
                r(i, j) = v(i, j);
            }
        }
        auto spd = DenseMatrix<double>::zeros(m, m);
        // spd = r * r^T  (gemm_tn computes A^T B; use transpose of r).
        blas::gemm_tn(1.0, r.view(), r.view(), 0.0, spd.view());
        for (index_type j = 0; j < m; ++j) {
            for (index_type i = 0; i < m; ++i) {
                v(i, j) = spd(i, j) + (i == j ? m : 0.0);
            }
        }
    }
    return batch;
}

class CholSizes : public ::testing::TestWithParam<index_type> {};

TEST_P(CholSizes, FactorReconstructsMatrix) {
    const index_type m = GetParam();
    auto batch = random_spd(make_uniform_layout(8, m), 10 + m);
    auto original = batch.clone();
    ASSERT_TRUE(potrf_batch(batch).ok());
    for (size_type b = 0; b < batch.count(); ++b) {
        const auto l = batch.view(b);
        const auto a = original.view(b);
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = 0; j <= i; ++j) {
                double acc = 0;
                for (index_type k = 0; k <= j; ++k) {
                    acc += l(i, k) * l(j, k);
                }
                EXPECT_NEAR(acc, a(i, j),
                            1e-10 * std::max(1.0, std::abs(a(i, j))))
                    << b << " (" << i << "," << j << ")";
            }
        }
    }
}

TEST_P(CholSizes, SolveMatchesReference) {
    const index_type m = GetParam();
    auto batch = random_spd(make_uniform_layout(6, m), 20 + m);
    auto original = batch.clone();
    ASSERT_TRUE(potrf_batch(batch).ok());
    auto b = BatchedVectors<double>::random(batch.layout_ptr(), 3);
    auto ref = b.clone();
    TrsvOptions opts;
    potrs_batch(batch, b, opts);
    for (size_type i = 0; i < batch.count(); ++i) {
        std::vector<double> r(ref.span(i).begin(), ref.span(i).end());
        ASSERT_EQ(lapack::gesv<double>(original.view(i),
                                       std::span<double>(r)),
                  0);
        for (index_type k = 0; k < m; ++k) {
            EXPECT_NEAR(b.span(i)[static_cast<std::size_t>(k)],
                        r[static_cast<std::size_t>(k)], 1e-8);
        }
    }
}

TEST_P(CholSizes, WarpKernelBitwiseMatchesCpu) {
    const index_type m = GetParam();
    auto a_cpu = random_spd(make_uniform_layout(4, m), 30 + m);
    auto a_simt = a_cpu.clone();
    GetrfOptions seq;
    seq.parallel = false;
    potrf_batch(a_cpu, seq);
    EXPECT_TRUE(potrf_batch_simt(a_simt).status.ok());
    for (size_type b = 0; b < a_cpu.count(); ++b) {
        const auto vc = a_cpu.view(b);
        const auto vs = a_simt.view(b);
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = 0; j <= i; ++j) {
                EXPECT_EQ(vc(i, j), vs(i, j));
            }
        }
    }
    auto b_cpu = BatchedVectors<double>::random(a_cpu.layout_ptr(), 7);
    auto b_simt = b_cpu.clone();
    TrsvOptions opts;
    opts.parallel = false;
    potrs_batch(a_cpu, b_cpu, opts);
    potrs_batch_simt(a_simt, b_simt);
    for (size_type v = 0; v < a_cpu.layout().total_rows(); ++v) {
        EXPECT_EQ(b_cpu.data()[v], b_simt.data()[v]);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 24, 32));

TEST(Cholesky, RejectsIndefiniteBlocks) {
    auto batch = BatchedMatrices<double>(make_uniform_layout(1, 2));
    auto v = batch.view(0);
    v(0, 0) = 1.0;
    v(1, 1) = -1.0;  // indefinite
    try {
        potrf_batch(batch);
        FAIL() << "expected SingularMatrix";
    } catch (const SingularMatrix& e) {
        EXPECT_EQ(e.step(), 2);
    }
}

TEST(Cholesky, CheaperThanLuOnTheWarp) {
    // In the padded warp kernel the trailing-update *issue* count matches
    // LU (inactive lanes still occupy the slot), but Cholesky skips the
    // pivot reductions and permutation stores, touches only the lower
    // triangle in memory, and does half the useful flops.
    const index_type m = 32;
    auto spd = random_spd(make_uniform_layout(4, m), 5);
    auto lu = spd.clone();
    const auto chol_res = potrf_batch_simt(spd);
    BatchedPivots perm(lu.layout_ptr());
    const auto lu_res = getrf_batch_simt(lu, perm);
    EXPECT_LE(chol_res.stats.fp_instructions, lu_res.stats.fp_instructions);
    EXPECT_LT(chol_res.stats.shuffle_instructions,
              lu_res.stats.shuffle_instructions);
    EXPECT_LT(chol_res.stats.misc_instructions,
              lu_res.stats.misc_instructions);
    EXPECT_LT(static_cast<double>(chol_res.stats.load_transactions +
                                  chol_res.stats.store_transactions),
              0.7 * static_cast<double>(lu_res.stats.load_transactions +
                                        lu_res.stats.store_transactions));
    EXPECT_LT(static_cast<double>(chol_res.stats.useful_flops),
              0.7 * static_cast<double>(lu_res.stats.useful_flops));
}

TEST(Cholesky, VariableSizeBatch) {
    auto layout = make_layout({1, 4, 9, 17, 32});
    auto batch = random_spd(layout, 9);
    auto original = batch.clone();
    ASSERT_TRUE(potrf_batch(batch).ok());
    auto b = BatchedVectors<double>::ones(layout);
    potrs_batch(batch, b);
    for (size_type i = 0; i < layout->count(); ++i) {
        const index_type m = layout->size(i);
        std::vector<double> back(static_cast<std::size_t>(m), 0.0);
        blas::gemv(1.0, original.view(i),
                   std::span<const double>(b.span(i)), 0.0,
                   std::span<double>(back));
        for (index_type k = 0; k < m; ++k) {
            EXPECT_NEAR(back[static_cast<std::size_t>(k)], 1.0, 1e-9);
        }
    }
}

TEST(Cholesky, EagerAndLazySolvesAgree) {
    auto batch = random_spd(make_uniform_layout(3, 16), 11);
    ASSERT_TRUE(potrf_batch(batch).ok());
    auto b1 = BatchedVectors<double>::random(batch.layout_ptr(), 2);
    auto b2 = b1.clone();
    TrsvOptions eager, lazy;
    eager.variant = TrsvVariant::eager;
    lazy.variant = TrsvVariant::lazy;
    potrs_batch(batch, b1, eager);
    potrs_batch(batch, b2, lazy);
    for (size_type v = 0; v < batch.layout().total_rows(); ++v) {
        EXPECT_NEAR(b1.data()[v], b2.data()[v],
                    1e-11 * std::max(1.0, std::abs(b1.data()[v])));
    }
}

TEST(CholeskyBlockJacobi, AcceleratesIdrOnSpdProblem) {
    const auto a = sparse::laplacian_2d<double>(24, 24, 4, 3);
    ASSERT_TRUE(a.is_symmetric(1e-12));
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 1.0);

    precond::BlockJacobiOptions copts;
    copts.backend = precond::BlockJacobiBackend::cholesky;
    copts.max_block_size = 16;
    precond::BlockJacobi<double> chol(a, copts);
    std::vector<double> x1(b.size(), 0.0);
    const auto r_chol = solvers::idr(a, std::span<const double>(b),
                                     std::span<double>(x1), chol);
    ASSERT_TRUE(r_chol.converged());

    // Same preconditioner via LU: identical math, so iteration counts are
    // essentially equal; Cholesky just does less setup work.
    precond::BlockJacobiOptions lopts;
    lopts.backend = precond::BlockJacobiBackend::lu;
    lopts.max_block_size = 16;
    precond::BlockJacobi<double> lu(a, lopts);
    std::vector<double> x2(b.size(), 0.0);
    const auto r_lu = solvers::idr(a, std::span<const double>(b),
                                   std::span<double>(x2), lu);
    ASSERT_TRUE(r_lu.converged());
    EXPECT_NEAR(r_chol.iterations, r_lu.iterations, 3);

    // And it beats scalar Jacobi.
    precond::ScalarJacobi<double> jac(a);
    std::vector<double> x3(b.size(), 0.0);
    const auto r_jac = solvers::idr(a, std::span<const double>(b),
                                    std::span<double>(x3), jac);
    EXPECT_LT(r_chol.iterations, r_jac.iterations);
}

TEST(CholeskyBlockJacobi, ThrowsOnIndefiniteBlocksUnderStrictPolicy) {
    // A diagonal block with a negative eigenvalue defeats Cholesky.
    auto a = sparse::Csr<double>::from_triplets(
        4, 4,
        {{0, 0, 2.0}, {1, 1, 2.0}, {2, 2, -1.0}, {2, 3, 0.5},
         {3, 2, 0.5}, {3, 3, 2.0}});
    precond::BlockJacobiOptions opts;
    opts.backend = precond::BlockJacobiBackend::cholesky;
    opts.layout = core::make_layout({1, 1, 2});
    opts.recovery = precond::RecoveryPolicy::strict();
    EXPECT_THROW((precond::BlockJacobi<double>(a, opts)), SingularMatrix);
}

TEST(CholeskyBlockJacobi, IndefiniteBlockBoostsByDefault) {
    auto a = sparse::Csr<double>::from_triplets(
        4, 4,
        {{0, 0, 2.0}, {1, 1, 2.0}, {2, 2, -1.0}, {2, 3, 0.5},
         {3, 2, 0.5}, {3, 3, 2.0}});
    precond::BlockJacobiOptions opts;
    opts.backend = precond::BlockJacobiBackend::cholesky;
    opts.layout = core::make_layout({1, 1, 2});
    const precond::BlockJacobi<double> prec(a, opts);
    const auto summary = prec.recovery_summary();
    EXPECT_EQ(summary.boosted, 1);
    EXPECT_EQ(summary.ok, 2);
    EXPECT_EQ(prec.block_status()[2], core::BlockStatus::boosted);
}

}  // namespace
}  // namespace vbatch::core
