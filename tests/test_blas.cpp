// Unit tests for the dense BLAS/LAPACK substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/dense_matrix.hpp"
#include "blas/lapack.hpp"

namespace vbatch {
namespace {

TEST(Blas1, AxpyDotNrm2) {
    std::vector<double> x{1, 2, 3};
    std::vector<double> y{4, 5, 6};
    blas::axpy(2.0, std::span<const double>(x), std::span<double>(y));
    EXPECT_EQ(y[0], 6.0);
    EXPECT_EQ(y[2], 12.0);
    EXPECT_DOUBLE_EQ(blas::dot(std::span<const double>(x),
                               std::span<const double>(x)),
                     14.0);
    EXPECT_DOUBLE_EQ(blas::nrm2(std::span<const double>(x)),
                     std::sqrt(14.0));
}

TEST(Blas1, ScalCopyFill) {
    std::vector<double> x{1, -2, 3};
    blas::scal(-2.0, std::span<double>(x));
    EXPECT_EQ(x[1], 4.0);
    std::vector<double> y(3);
    blas::copy(std::span<const double>(x), std::span<double>(y));
    EXPECT_EQ(y[2], -6.0);
}

TEST(Blas1, DimensionMismatchThrows) {
    std::vector<double> x{1, 2};
    std::vector<double> y{1, 2, 3};
    EXPECT_THROW(
        blas::axpy(1.0, std::span<const double>(x), std::span<double>(y)),
        DimensionMismatch);
}

TEST(Blas2, GemvMatchesManual) {
    DenseMatrix<double> a{{1, 2}, {3, 4}, {5, 6}};
    std::vector<double> x{1, -1};
    std::vector<double> y{10, 10, 10};
    blas::gemv(2.0, a.view(), std::span<const double>(x), 0.5,
               std::span<double>(y));
    EXPECT_DOUBLE_EQ(y[0], 2.0 * (1 - 2) + 5.0);
    EXPECT_DOUBLE_EQ(y[1], 2.0 * (3 - 4) + 5.0);
    EXPECT_DOUBLE_EQ(y[2], 2.0 * (5 - 6) + 5.0);
}

TEST(Blas2, GemvTransposed) {
    DenseMatrix<double> a{{1, 2}, {3, 4}};
    std::vector<double> x{1, 1};
    std::vector<double> y{0, 0};
    blas::gemv_t(1.0, a.view(), std::span<const double>(x), 0.0,
                 std::span<double>(y));
    EXPECT_DOUBLE_EQ(y[0], 4.0);
    EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Blas2, GerRankOneUpdate) {
    auto a = DenseMatrix<double>::zeros(2, 3);
    std::vector<double> x{1, 2};
    std::vector<double> y{3, 4, 5};
    blas::ger(1.0, std::span<const double>(x), std::span<const double>(y),
              a.view());
    EXPECT_DOUBLE_EQ(a(1, 2), 10.0);
    EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
}

TEST(Blas2, TrsvLowerUpper) {
    DenseMatrix<double> l{{1, 0}, {2, 1}};
    std::vector<double> b{3, 8};
    blas::trsv(blas::Uplo::lower, blas::Diag::unit, l.view(),
               std::span<double>(b));
    EXPECT_DOUBLE_EQ(b[0], 3.0);
    EXPECT_DOUBLE_EQ(b[1], 2.0);
    DenseMatrix<double> u{{2, 1}, {0, 4}};
    std::vector<double> c{5, 8};
    blas::trsv(blas::Uplo::upper, blas::Diag::non_unit, u.view(),
               std::span<double>(c));
    EXPECT_DOUBLE_EQ(c[1], 2.0);
    EXPECT_DOUBLE_EQ(c[0], 1.5);
}

TEST(Blas3, GemmSmall) {
    DenseMatrix<double> a{{1, 2}, {3, 4}};
    DenseMatrix<double> b{{5, 6}, {7, 8}};
    auto c = DenseMatrix<double>::zeros(2, 2);
    blas::gemm(1.0, a.view(), b.view(), 0.0, c.view());
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
    auto d = DenseMatrix<double>::zeros(2, 2);
    blas::gemm_tn(1.0, a.view(), b.view(), 0.0, d.view());
    EXPECT_DOUBLE_EQ(d(0, 0), 1 * 5 + 3 * 7);
}

TEST(DenseMatrix, FactoriesAndClone) {
    auto i3 = DenseMatrix<double>::identity(3);
    EXPECT_EQ(i3(1, 1), 1.0);
    EXPECT_EQ(i3(0, 1), 0.0);
    auto r = DenseMatrix<double>::random(4, 4, 11);
    auto r2 = DenseMatrix<double>::random(4, 4, 11);
    EXPECT_EQ(r(2, 3), r2(2, 3));
    auto c = r.clone();
    c(0, 0) += 1.0;
    EXPECT_NE(c(0, 0), r(0, 0));
}

TEST(DenseMatrix, DiagonallyDominantIsDominant) {
    auto a = DenseMatrix<double>::random_diagonally_dominant(8, 3);
    for (index_type i = 0; i < 8; ++i) {
        double off = 0;
        for (index_type j = 0; j < 8; ++j) {
            if (i != j) {
                off += std::abs(a(i, j));
            }
        }
        EXPECT_GT(std::abs(a(i, i)), off);
    }
}

class LapackSizes : public ::testing::TestWithParam<index_type> {};

TEST_P(LapackSizes, GetrfResidualSmall) {
    const index_type n = GetParam();
    auto a = DenseMatrix<double>::random(n, n, 100 + n);
    auto lu = a.clone();
    std::vector<index_type> ipiv(static_cast<std::size_t>(n));
    ASSERT_EQ(lapack::getrf<double>(lu.view(), ipiv), 0);
    const double res = lapack::factorization_residual<double>(
        a.view(), lu.view(), ipiv);
    EXPECT_LT(res, 1e-13 * n);
}

TEST_P(LapackSizes, GesvSolves) {
    const index_type n = GetParam();
    auto a = DenseMatrix<double>::random_diagonally_dominant(n, 200 + n);
    std::vector<double> x_ref(static_cast<std::size_t>(n));
    for (index_type i = 0; i < n; ++i) {
        x_ref[static_cast<std::size_t>(i)] = std::sin(i + 1.0);
    }
    std::vector<double> b(static_cast<std::size_t>(n), 0.0);
    blas::gemv(1.0, a.view(), std::span<const double>(x_ref), 0.0,
               std::span<double>(b));
    ASSERT_EQ(lapack::gesv<double>(a.view(), std::span<double>(b)), 0);
    for (index_type i = 0; i < n; ++i) {
        EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                    x_ref[static_cast<std::size_t>(i)], 1e-10);
    }
}

TEST_P(LapackSizes, InvertProducesInverse) {
    const index_type n = GetParam();
    auto a = DenseMatrix<double>::random_diagonally_dominant(n, 300 + n);
    DenseMatrix<double> inv(n, n);
    ASSERT_EQ(lapack::invert<double>(a.view(), inv.view()), 0);
    auto prod = DenseMatrix<double>::zeros(n, n);
    blas::gemm(1.0, a.view(), inv.view(), 0.0, prod.view());
    for (index_type i = 0; i < n; ++i) {
        for (index_type j = 0; j < n; ++j) {
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-10);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LapackSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 21, 27,
                                           32));

TEST(Lapack, GetrfReportsSingularity) {
    auto a = DenseMatrix<double>::zeros(3, 3);
    a(0, 0) = 1.0;  // rank 1
    std::vector<index_type> ipiv(3);
    EXPECT_GT(lapack::getrf<double>(a.view(), ipiv), 0);
}

TEST(Lapack, PivotingHandlesZeroDiagonal) {
    // Without pivoting this matrix breaks down immediately.
    DenseMatrix<double> a{{0, 1}, {1, 0}};
    std::vector<double> b{2, 3};
    ASSERT_EQ(lapack::gesv<double>(a.view(), std::span<double>(b)), 0);
    EXPECT_DOUBLE_EQ(b[0], 3.0);
    EXPECT_DOUBLE_EQ(b[1], 2.0);
}

TEST(Lapack, ConditionNumberIdentity) {
    auto i4 = DenseMatrix<double>::identity(4);
    EXPECT_NEAR(lapack::condition_number_1<double>(i4.view()), 1.0, 1e-12);
    auto a = DenseMatrix<double>::zeros(2, 2);
    EXPECT_TRUE(std::isinf(lapack::condition_number_1<double>(a.view())));
}

TEST(Lapack, NormInf) {
    DenseMatrix<double> a{{1, -2}, {3, 4}};
    EXPECT_DOUBLE_EQ(lapack::norm_inf<double>(a.view()), 7.0);
}

}  // namespace
}  // namespace vbatch
