// Tests for the preconditioner ecosystem.
#include "base/exception.hpp"
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/dense_matrix.hpp"
#include "blas/lapack.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/preconditioner.hpp"
#include "precond/scalar_jacobi.hpp"
#include "sparse/generators.hpp"
#include "lu_reference.hpp"

namespace vbatch::precond {
namespace {

TEST(Identity, CopiesInput) {
    IdentityPreconditioner<double> prec;
    std::vector<double> r{1, 2, 3};
    std::vector<double> z(3);
    prec.apply(std::span<const double>(r), std::span<double>(z));
    EXPECT_EQ(z[1], 2.0);
    EXPECT_EQ(prec.name(), "identity");
}

TEST(ScalarJacobi, DividesByDiagonal) {
    const auto a = sparse::laplacian_2d<double>(4, 4, 1);
    ScalarJacobi<double> prec(a);
    std::vector<double> r(static_cast<std::size_t>(a.num_rows()), 1.0);
    std::vector<double> z(r.size());
    prec.apply(std::span<const double>(r), std::span<double>(z));
    for (index_type i = 0; i < a.num_rows(); ++i) {
        EXPECT_NEAR(z[static_cast<std::size_t>(i)] * a.at(i, i), 1.0,
                    1e-14);
    }
    EXPECT_EQ(prec.num_blocks(), a.num_rows());
}

TEST(ScalarJacobi, RejectsZeroDiagonal) {
    auto a = sparse::Csr<double>::from_triplets(2, 2,
                                                {{0, 0, 1.0}, {1, 0, 1.0}});
    EXPECT_THROW(ScalarJacobi<double>{a}, BadParameter);
}

class BlockJacobiBackends
    : public ::testing::TestWithParam<BlockJacobiBackend> {};

TEST_P(BlockJacobiBackends, ApplyEqualsDenseBlockSolve) {
    const auto backend = GetParam();
    const auto a = sparse::laplacian_2d<double>(6, 6, 4);
    BlockJacobiOptions opts;
    opts.backend = backend;
    opts.max_block_size = 16;
    BlockJacobi<double> prec(a, opts);

    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) {
        r[i] = std::sin(0.1 * static_cast<double>(i)) + 0.5;
    }
    std::vector<double> z(n);
    prec.apply(std::span<const double>(r), std::span<double>(z));

    // Reference: dense solve of every diagonal block.
    const auto& layout = prec.layout();
    for (size_type b = 0; b < layout.count(); ++b) {
        const auto r0 = static_cast<index_type>(layout.row_offset(b));
        const index_type m = layout.size(b);
        DenseMatrix<double> block(m, m);
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = 0; j < m; ++j) {
                block(i, j) = a.at(r0 + i, r0 + j);
            }
        }
        std::vector<double> ref(r.begin() + r0, r.begin() + r0 + m);
        ASSERT_EQ(lapack::gesv<double>(block.view(), std::span<double>(ref)),
                  0);
        for (index_type i = 0; i < m; ++i) {
            EXPECT_NEAR(z[static_cast<std::size_t>(r0 + i)],
                        ref[static_cast<std::size_t>(i)], 1e-9)
                << backend_name(backend) << " block " << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, BlockJacobiBackends,
                         ::testing::Values(BlockJacobiBackend::lu,
                                           BlockJacobiBackend::lu_simd,
                                           BlockJacobiBackend::gauss_huard,
                                           BlockJacobiBackend::gauss_huard_t,
                                           BlockJacobiBackend::gje_inversion));

/// Both LU keys on every available ISA: lu (the scalar ISA) and lu-simd
/// pinned to each ISA.
std::vector<BlockJacobiOptions> lu_family_options() {
    std::vector<BlockJacobiOptions> all;
    BlockJacobiOptions lu;
    lu.backend = BlockJacobiBackend::lu;
    all.push_back(lu);
    for (const auto isa : core::available_simd_isas()) {
        BlockJacobiOptions simd;
        simd.backend = BlockJacobiBackend::lu_simd;
        simd.simd = isa;
        all.push_back(simd);
    }
    return all;
}

TEST(BlockJacobi, SimdBackendMatchesScalarLuBitwise) {
    // lu and lu-simd are one lane pipeline; on every ISA its factors,
    // pivots and application equal the scalar getrf_implicit /
    // getrs_single run block by block.
    const auto a = sparse::fem_block_matrix<double>(60, 4, 12, 2, 0.2, 29);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) {
        r[i] = std::cos(0.3 * static_cast<double>(i));
    }
    for (const auto& opts : lu_family_options()) {
        const BlockJacobi<double> prec(a, opts);
        const auto ref = reference::lu_reference(a, prec.symbolic()->layout,
                                                 prec.symbolic()->rows);
        EXPECT_TRUE(reference::matches_lu_reference(
            prec, ref, std::span<const double>(r)))
            << prec.name();
        EXPECT_EQ(prec.num_simd_blocks(), prec.num_blocks());
        if (opts.backend == BlockJacobiBackend::lu_simd) {
            EXPECT_EQ(prec.name(),
                      std::string("block-jacobi(lu-simd[") +
                          core::simd_isa_name(opts.simd) + "],32)");
        }
    }
}

// Hand-built layout with every lane-grouping edge at once: singleton
// size classes, a class of lanes + 1 blocks (one full chunk and one
// padded chunk at the widest ISA), size-1 and size-0 blocks. Three
// blocks break down, so full recovery runs and repacks their groups: a
// singular one boosts, a NaN-poisoned one falls back to scalar Jacobi,
// an all-zero one applies as identity.
TEST(BlockJacobi, EdgeLayoutsMatchScalarReferenceBitwise) {
    index_type max_lanes = 1;
    for (const auto isa : core::available_simd_isas()) {
        max_lanes = std::max(max_lanes, core::simd_lanes<double>(isa));
    }
    std::vector<index_type> sizes = {5, 0, 1, 7, 1, 0, 3};
    for (index_type k = 0; k <= max_lanes; ++k) {
        sizes.push_back(4);
        if (k % 3 == 0) {
            sizes.push_back(1);
        }
    }
    sizes.push_back(0);
    sizes.push_back(12);
    const auto layout = core::make_layout(sizes);
    const auto nrows = layout->total_rows();
    // Dense, diagonally weighted blocks with a few off-block couplings;
    // rows 0 and 1 of the 5x5 block 0 are equal (singular, boostable),
    // the 3x3 block 6 holds a NaN off its diagonal.
    const auto entry = [](size_type b, index_type i, index_type j) {
        return i == j ? 3.0 + 0.1 * static_cast<double>(b)
                      : std::sin(1.0 + static_cast<double>(7 * i + 3 * j +
                                                           b));
    };
    std::vector<sparse::Triplet<double>> trips;
    for (size_type b = 0; b < layout->count(); ++b) {
        const auto r0 = static_cast<index_type>(layout->row_offset(b));
        const index_type m = layout->size(b);
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = 0; j < m; ++j) {
                const index_type src = (b == 0 && i == 1) ? 0 : i;
                const double v =
                    (b == 6 && i == 0 && j == 1)
                        ? std::numeric_limits<double>::quiet_NaN()
                        : entry(b, src, j);
                trips.push_back({r0 + i, r0 + j, v});
            }
        }
    }
    for (index_type i = 0; i + 5 < nrows; i += 5) {
        trips.push_back({i, i + 5, 0.25});
    }
    auto a = sparse::Csr<double>::from_triplets(nrows, nrows, trips);
    // Zero the 7x7 block: singular, and with no scale to boost by.
    const auto singular_block = 3;
    ASSERT_EQ(layout->size(singular_block), 7);
    {
        std::vector<double> vals(a.values().begin(), a.values().end());
        const auto r0 =
            static_cast<index_type>(layout->row_offset(singular_block));
        for (index_type i = r0; i < r0 + 7; ++i) {
            const auto row = static_cast<std::size_t>(i);
            for (auto e = a.row_ptrs()[row]; e < a.row_ptrs()[row + 1];
                 ++e) {
                const auto c = a.col_idxs()[static_cast<std::size_t>(e)];
                if (c >= r0 && c < r0 + 7) {
                    vals[static_cast<std::size_t>(e)] = 0.0;
                }
            }
        }
        a.set_values(std::span<const double>(vals));
    }
    std::vector<double> r(static_cast<std::size_t>(nrows));
    for (std::size_t i = 0; i < r.size(); ++i) {
        r[i] = 1.0 + std::cos(0.7 * static_cast<double>(i));
    }
    const auto ref = reference::lu_reference(a, layout);
    EXPECT_EQ(ref.status[0], core::BlockStatus::boosted);
    EXPECT_EQ(ref.status[6], core::BlockStatus::fell_back);
    EXPECT_EQ(ref.status[singular_block], core::BlockStatus::singular);
    for (auto opts : lu_family_options()) {
        opts.layout = layout;
        const BlockJacobi<double> prec(a, opts);
        EXPECT_TRUE(reference::matches_lu_reference(
            prec, ref, std::span<const double>(r)))
            << prec.name();
        EXPECT_EQ(prec.recovery_summary().boosted, 1) << prec.name();
        EXPECT_EQ(prec.recovery_summary().fell_back, 1) << prec.name();
        EXPECT_EQ(prec.recovery_summary().singular, 1) << prec.name();
    }
}

// A strength-aggregated layout: every block owns a row list, so the
// gather plan, the lane gather/scatter of apply and the fallback apply
// all index through it. On every ISA the result equals the scalar
// kernels run on the same row sets, also after recovery degrades two
// blocks (adopting the symbolic, since the degraded values would choose
// another layout).
TEST(BlockJacobi, RowListLayoutMatchesScalarReferenceBitwise) {
    const auto a = sparse::anisotropic_2d<double>(20, 20, 100.0, 2, 11);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) {
        r[i] = 1.0 + std::sin(0.37 * static_cast<double>(i));
    }
    for (auto opts : lu_family_options()) {
        opts.max_block_size = 16;
        const BlockJacobi<double> prec(a, opts);
        const auto& sym = *prec.symbolic();
        ASSERT_EQ(sym.rows.size(), n) << prec.name();
        EXPECT_TRUE(reference::matches_lu_reference(
            prec, reference::lu_reference(a, sym.layout, sym.rows),
            std::span<const double>(r)))
            << prec.name();

        // Block 1 all zero (singular, identity apply), block 4 with a NaN
        // off its diagonal (scalar-Jacobi fallback).
        auto broken = a;
        std::vector<double> vals(a.values().begin(), a.values().end());
        const auto poison = [&](size_type b, bool nan) {
            const auto off = static_cast<std::size_t>(sym.layout->row_offset(b));
            const auto m = static_cast<std::size_t>(sym.layout->size(b));
            const auto first = sym.rows.begin() + static_cast<std::ptrdiff_t>(off);
            const auto last = first + static_cast<std::ptrdiff_t>(m);
            for (std::size_t i = 0; i < m; ++i) {
                const auto row = static_cast<std::size_t>(sym.rows[off + i]);
                for (auto e = a.row_ptrs()[row]; e < a.row_ptrs()[row + 1];
                     ++e) {
                    const auto c = a.col_idxs()[static_cast<std::size_t>(e)];
                    if (std::find(first, last, c) == last) {
                        continue;
                    }
                    if (!nan) {
                        vals[static_cast<std::size_t>(e)] = 0.0;
                    } else if (c != static_cast<index_type>(row)) {
                        vals[static_cast<std::size_t>(e)] =
                            std::numeric_limits<double>::quiet_NaN();
                        return;
                    }
                }
            }
        };
        poison(1, false);
        poison(4, true);
        broken.set_values(std::span<const double>(vals));
        auto adopt = opts;
        adopt.symbolic = prec.symbolic();
        const BlockJacobi<double> degraded(broken, adopt);
        EXPECT_EQ(degraded.recovery_summary().singular, 1) << prec.name();
        EXPECT_EQ(degraded.recovery_summary().fell_back, 1) << prec.name();
        EXPECT_TRUE(reference::matches_lu_reference(
            degraded, reference::lu_reference(broken, sym.layout, sym.rows),
            std::span<const double>(r)))
            << prec.name();
    }
}

// The scalar-path backends solve a row-list block in a local copy; their
// application agrees with the LU one to rounding.
TEST(BlockJacobi, RowListLayoutScalarBackendsAgreeWithLu) {
    const auto a = sparse::anisotropic_2d<double>(40, 40, 100.0, 1, 13);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) {
        r[i] = std::cos(0.21 * static_cast<double>(i));
    }
    BlockJacobiOptions lu;
    lu.backend = BlockJacobiBackend::lu;
    const BlockJacobi<double> ref(a, lu);
    ASSERT_FALSE(ref.symbolic()->rows.empty());
    std::vector<double> want(n);
    ref.apply(std::span<const double>(r), std::span<double>(want));
    for (const auto backend :
         {BlockJacobiBackend::gauss_huard, BlockJacobiBackend::gauss_huard_t,
          BlockJacobiBackend::gje_inversion, BlockJacobiBackend::cholesky}) {
        BlockJacobiOptions opts;
        opts.backend = backend;
        const BlockJacobi<double> prec(a, opts);
        EXPECT_EQ(prec.symbolic()->rows, ref.symbolic()->rows);
        std::vector<double> got(n);
        prec.apply(std::span<const double>(r), std::span<double>(got));
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(got[i], want[i], 1e-12 * (1.0 + std::abs(want[i])))
                << prec.name() << " row " << i;
        }
    }
}

// The fused numeric pass gathers and factorizes each block in place, so
// two tasks owning one block race on its factor storage. Every block
// must have exactly one writer task -- on every ISA, including scalar,
// where lu and lu-simd build 1-lane groups.
TEST(BlockJacobi, SymbolicGivesEveryBlockOneWriterTask) {
    const auto a = sparse::fem_block_matrix<double>(60, 4, 12, 2, 0.2, 29);
    const auto count_writers = [](const BlockJacobiSymbolic& sym) {
        std::vector<int> writers(
            static_cast<std::size_t>(sym.layout->count()), 0);
        for (const auto& task : sym.tasks) {
            if (task.group != BlockJacobiSymbolic::no_group) {
                const auto& g =
                    sym.groups[static_cast<std::size_t>(task.group)];
                const auto lo = static_cast<std::size_t>(task.chunk) *
                                static_cast<std::size_t>(sym.lanes);
                const auto hi = std::min(
                    lo + static_cast<std::size_t>(sym.lanes),
                    g.indices.size());
                for (auto l = lo; l < hi; ++l) {
                    ++writers[static_cast<std::size_t>(g.indices[l])];
                }
            } else {
                for (auto b = task.lo; b < task.hi; ++b) {
                    ++writers[static_cast<std::size_t>(b)];
                }
            }
        }
        return writers;
    };
    BlockJacobiOptions gh_opts;
    gh_opts.backend = BlockJacobiBackend::gauss_huard;
    const auto gh_sym = build_block_jacobi_symbolic(a, gh_opts);
    EXPECT_FALSE(gh_sym->lane_path);
    for (const int w : count_writers(*gh_sym)) {
        ASSERT_EQ(w, 1) << "gh";
    }
    for (const auto& opts : lu_family_options()) {
        const auto sym = build_block_jacobi_symbolic(a, opts);
        const auto isa = core::simd_isa_name(sym->isa);
        EXPECT_TRUE(sym->lane_path);
        EXPECT_FALSE(sym->groups.empty()) << isa;
        const auto writers = count_writers(*sym);
        for (std::size_t b = 0; b < writers.size(); ++b) {
            ASSERT_EQ(writers[b], 1) << isa << " block " << b;
        }
        // A lane-path symbolic is never adopted by a scalar-path
        // backend (nor the reverse), whatever its lane count...
        BlockJacobiOptions adopt = gh_opts;
        adopt.symbolic = sym;
        EXPECT_THROW(BlockJacobi<double>(a, adopt), BadParameter) << isa;
        // ...while lu and lu-simd adopt each other's exactly when they
        // run at the same ISA.
        BlockJacobiOptions adopt_lu;
        adopt_lu.symbolic = sym;
        if (sym->isa == core::SimdIsa::scalar) {
            EXPECT_NO_THROW(BlockJacobi<double>(a, adopt_lu)) << isa;
        } else {
            EXPECT_THROW(BlockJacobi<double>(a, adopt_lu), BadParameter)
                << isa;
        }
    }
    BlockJacobiOptions adopt_scalar;
    adopt_scalar.backend = BlockJacobiBackend::lu_simd;
    adopt_scalar.simd = core::SimdIsa::scalar;
    adopt_scalar.symbolic = gh_sym;
    EXPECT_THROW(BlockJacobi<double>(a, adopt_scalar), BadParameter);
}

TEST(BlockJacobi, BackendsAgreeWithinRounding) {
    const auto a = sparse::fem_block_matrix<double>(40, 4, 12, 2, 0.2, 13);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n, 1.0);
    std::vector<double> z_lu(n), z_gh(n);
    BlockJacobiOptions lu_opts;
    lu_opts.backend = BlockJacobiBackend::lu;
    BlockJacobi<double> lu(a, lu_opts);
    lu.apply(std::span<const double>(r), std::span<double>(z_lu));
    BlockJacobiOptions gh_opts;
    gh_opts.backend = BlockJacobiBackend::gauss_huard;
    BlockJacobi<double> gh(a, gh_opts);
    gh.apply(std::span<const double>(r), std::span<double>(z_gh));
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(z_lu[i], z_gh[i],
                    1e-9 * std::max(1.0, std::abs(z_lu[i])));
    }
}

TEST(BlockJacobi, RespectsBlockSizeBound) {
    const auto a = sparse::laplacian_2d<double>(8, 8, 4);
    for (const index_type bound : {8, 12, 16, 24, 32}) {
        BlockJacobiOptions opts;
        opts.max_block_size = bound;
        BlockJacobi<double> prec(a, opts);
        for (size_type b = 0; b < prec.layout().count(); ++b) {
            EXPECT_LE(prec.layout().size(b), bound);
        }
        EXPECT_EQ(prec.layout().total_rows(), a.num_rows());
    }
}

TEST(BlockJacobi, AcceptsPrecomputedLayout) {
    const auto a = sparse::random_banded<double>(64, 2, 1.0, 3);
    BlockJacobiOptions opts;
    opts.layout = core::make_uniform_layout(8, 8);
    BlockJacobi<double> prec(a, opts);
    EXPECT_EQ(prec.num_blocks(), 8);
    EXPECT_EQ(prec.layout().size(0), 8);
}

TEST(BlockJacobi, SingularBlockThrowsUnderStrictPolicy) {
    // Block {2,3} is [[1,1],[1,1]]: rows identical inside the block,
    // exactly singular.
    const auto a = sparse::Csr<double>::from_triplets(
        4, 4,
        {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {2, 3, 1.0}, {3, 2, 1.0},
         {3, 3, 1.0}});
    BlockJacobiOptions opts;
    opts.layout = core::make_layout({1, 1, 2});
    opts.recovery = RecoveryPolicy::strict();
    EXPECT_THROW((BlockJacobi<double>(a, opts)), SingularMatrix);
}

TEST(BlockJacobi, SingularBlockRecoversByDefault) {
    const auto a = sparse::Csr<double>::from_triplets(
        4, 4,
        {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {2, 3, 1.0}, {3, 2, 1.0},
         {3, 3, 1.0}});
    BlockJacobiOptions opts;
    opts.layout = core::make_layout({1, 1, 2});
    const BlockJacobi<double> precond(a, opts);
    const auto summary = precond.recovery_summary();
    EXPECT_EQ(summary.total(), 3);
    EXPECT_EQ(summary.ok, 2);
    EXPECT_EQ(summary.boosted, 1);
    EXPECT_EQ(precond.block_status()[2], core::BlockStatus::boosted);
    // The boosted preconditioner must produce finite output.
    const std::vector<double> r{1.0, 2.0, 3.0, 4.0};
    std::vector<double> z(4, 0.0);
    precond.apply(r, z);
    for (const auto v : z) {
        EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(BlockJacobi, NameAndSetupTime) {
    const auto a = sparse::laplacian_2d<double>(5, 5, 2);
    BlockJacobiOptions opts;
    opts.backend = BlockJacobiBackend::gauss_huard_t;
    opts.max_block_size = 12;
    BlockJacobi<double> prec(a, opts);
    EXPECT_EQ(prec.name(), "block-jacobi(gh-t,12)");
    EXPECT_GE(prec.setup_seconds(), 0.0);
}

TEST(BlockJacobi, DiagnosticsReportConditioning) {
    const auto a = sparse::laplacian_2d<double>(8, 8, 4);
    BlockJacobiOptions opts;
    opts.max_block_size = 16;
    BlockJacobi<double> prec(a, opts);
    const auto d = prec.diagnostics(a);
    EXPECT_EQ(d.num_blocks, prec.num_blocks());
    EXPECT_GE(d.min_block_size, 1);
    EXPECT_LE(d.max_block_size, 16);
    EXPECT_GT(d.mean_block_size, 0.0);
    EXPECT_GE(d.min_condition, 1.0);
    EXPECT_GE(d.max_condition, d.min_condition);
    EXPECT_GE(d.geomean_condition, d.min_condition * 0.999);
    EXPECT_LE(d.geomean_condition, d.max_condition * 1.001);
    // The diagonal blocks of this well-posed stencil are benign.
    EXPECT_LT(d.max_condition, 1e4);
}

}  // namespace
}  // namespace vbatch::precond
