// Edge-case and float-precision coverage across the stack: exact
// guesses, indefinite systems, on-disk I/O, and the float instantiations
// the rest of the suite exercises only lightly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "base/exception.hpp"
#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "core/getrf.hpp"
#include "core/trsv.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/scalar_jacobi.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"

namespace vbatch {
namespace {

TEST(FloatPath, BatchedLuSolvesInSinglePrecision) {
    auto batch = core::BatchedMatrices<float>::random_diagonally_dominant(
        core::make_layout({3, 9, 16, 32}), 4);
    auto original = batch.clone();
    core::BatchedPivots perm(batch.layout_ptr());
    ASSERT_TRUE(core::getrf_batch(batch, perm).ok());
    auto b = core::BatchedVectors<float>::ones(batch.layout_ptr());
    core::getrs_batch(batch, perm, b);
    for (size_type i = 0; i < batch.count(); ++i) {
        const auto m = batch.layout().size(i);
        std::vector<float> back(static_cast<std::size_t>(m), 0.0f);
        blas::gemv(1.0f, original.view(i),
                   std::span<const float>(b.span(i)), 0.0f,
                   std::span<float>(back));
        for (index_type k = 0; k < m; ++k) {
            EXPECT_NEAR(back[static_cast<std::size_t>(k)], 1.0f, 1e-3f);
        }
    }
}

TEST(FloatPath, BlockJacobiIdrConverges) {
    const auto a = sparse::laplacian_2d<float>(16, 16, 2, 7);
    precond::BlockJacobiOptions opts;
    opts.max_block_size = 8;
    precond::BlockJacobi<float> prec(a, opts);
    std::vector<float> b(static_cast<std::size_t>(a.num_rows()), 1.0f);
    std::vector<float> x(b.size(), 0.0f);
    solvers::IdrOptions so;
    so.rel_tol = 1e-4;  // single precision headroom
    const auto r = solvers::idr(a, std::span<const float>(b),
                                std::span<float>(x), prec, so);
    EXPECT_TRUE(r.converged());
}

TEST(Idr, ImmediateConvergenceOnExactGuess) {
    const auto a = sparse::laplacian_2d<double>(6, 6, 1);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> x_ref(n, 2.0);
    std::vector<double> b(n);
    a.spmv(std::span<const double>(x_ref), std::span<double>(b));
    auto x = x_ref;  // exact initial guess
    precond::IdentityPreconditioner<double> prec;
    const auto r = solvers::idr(a, std::span<const double>(b),
                                std::span<double>(x), prec);
    EXPECT_TRUE(r.converged());
    EXPECT_EQ(r.iterations, 0);
}

TEST(Idr, NeverFalselyConvergesOnIndefiniteSystem) {
    // On an indefinite matrix IDR(s) must either converge, exhaust the
    // budget, or flag a breakdown -- never crash or report a false
    // converged state.
    auto a = sparse::Csr<double>::from_triplets(
        2, 2, {{0, 0, 1.0}, {1, 1, -1.0}});
    std::vector<double> b{1.0, 1.0};
    std::vector<double> x(2, 0.0);
    precond::IdentityPreconditioner<double> prec;
    solvers::IdrOptions opts;
    opts.max_iters = 50;
    const auto r = solvers::idr(a, std::span<const double>(b),
                                std::span<double>(x), prec, opts);
    if (r.converged()) {
        std::vector<double> t(2);
        a.spmv(std::span<const double>(x), std::span<double>(t));
        EXPECT_NEAR(t[0], b[0], 1e-6);
        EXPECT_NEAR(t[1], b[1], 1e-6);
    }
}

TEST(MatrixMarket, OnDiskRoundTrip) {
    const auto path =
        (std::filesystem::temp_directory_path() / "vbatch_mm_test.mtx")
            .string();
    const auto a = sparse::random_banded<double>(40, 3, 1.0, 11);
    sparse::write_matrix_market_file(path, a);
    const auto b = sparse::read_matrix_market_file<double>(path);
    ASSERT_EQ(b.nnz(), a.nnz());
    for (index_type i = 0; i < a.num_rows(); i += 7) {
        for (index_type j = 0; j < a.num_cols(); j += 5) {
            EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
        }
    }
    std::filesystem::remove(path);
}

TEST(Idr, LargerShadowSpaceWorks) {
    const auto a = sparse::convection_diffusion_2d<double>(15, 15, 1, 25.0);
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 1.0);
    std::vector<double> x(b.size(), 0.0);
    precond::IdentityPreconditioner<double> prec;
    solvers::IdrOptions opts;
    opts.s = 8;
    const auto r = solvers::idr(a, std::span<const double>(b),
                                std::span<double>(x), prec, opts);
    EXPECT_TRUE(r.converged());
}

TEST(BlockJacobi, SizeOneBlocksEqualScalarJacobi) {
    const auto a = sparse::laplacian_2d<double>(8, 8, 1, 9);
    precond::BlockJacobiOptions opts;
    opts.max_block_size = 1;
    precond::BlockJacobi<double> bj(a, opts);
    precond::ScalarJacobi<double> sj(a);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n, 3.0), z1(n), z2(n);
    bj.apply(std::span<const double>(r), std::span<double>(z1));
    sj.apply(std::span<const double>(r), std::span<double>(z2));
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(z1[i], z2[i], 1e-15);
    }
}

TEST(Getrf, Full32SizeBatchStress) {
    // A larger stress batch at the maximum block size.
    auto batch = core::BatchedMatrices<double>::random_general(
        core::make_uniform_layout(256, 32), 99);
    auto original = batch.clone();
    core::BatchedPivots perm(batch.layout_ptr());
    ASSERT_TRUE(core::getrf_batch(batch, perm).ok());
    auto x = core::BatchedVectors<double>::random(batch.layout_ptr(), 3);
    auto b = core::BatchedVectors<double>(batch.layout_ptr());
    for (size_type i = 0; i < batch.count(); ++i) {
        blas::gemv(1.0, original.view(i),
                   std::span<const double>(x.span(i)), 0.0, b.span(i));
    }
    core::getrs_batch(batch, perm, b);
    double max_err = 0;
    for (size_type i = 0; i < batch.count(); ++i) {
        for (std::size_t k = 0; k < 32; ++k) {
            max_err = std::max(max_err,
                               std::abs(b.span(i)[k] - x.span(i)[k]));
        }
    }
    EXPECT_LT(max_err, 1e-6);  // random 32x32 can be mildly conditioned
}

}  // namespace
}  // namespace vbatch
