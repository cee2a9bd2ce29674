// Tests for the strength-aware diagonal-block layout
// (blocking/aggregation.hpp): the captured-coupling share, the greedy
// aggregation, the rule's choice on suite cases, and the row-list gather
// plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "base/exception.hpp"
#include "blocking/aggregation.hpp"
#include "blocking/gather_plan.hpp"
#include "obs/metrics.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"

namespace vbatch::blocking {
namespace {

sparse::Csr<double> suite(const char* name) {
    return sparse::build_suite_matrix(sparse::suite_case_by_name(name));
}

BlockingOptions bound(index_type m) {
    BlockingOptions opts;
    opts.max_block_size = m;
    return opts;
}

/// Every row once, ascending within each block, blocks within the bound.
void expect_valid_layout(const DiagonalBlocks& d, index_type n,
                         index_type max_size) {
    ASSERT_EQ(d.rows.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(d.layout->total_rows(), n);
    std::vector<index_type> sorted = d.rows;
    std::sort(sorted.begin(), sorted.end());
    std::vector<index_type> iota(sorted.size());
    std::iota(iota.begin(), iota.end(), 0);
    EXPECT_EQ(sorted, iota);
    for (size_type b = 0; b < d.layout->count(); ++b) {
        const index_type m = d.layout->size(b);
        EXPECT_GE(m, 1);
        EXPECT_LE(m, max_size);
        const auto first = d.rows.begin() +
                           static_cast<std::ptrdiff_t>(d.layout->row_offset(b));
        EXPECT_TRUE(std::is_sorted(first, first + m));
    }
}

TEST(CapturedCoupling, BlockDiagonalMatrixCapturesEverything) {
    // Two decoupled 2x2 blocks: the matching layout holds all of the
    // off-diagonal mass, the split layout none of it.
    const auto a = sparse::Csr<double>::from_triplets(
        4, 4,
        {{0, 0, 4}, {0, 1, -1}, {1, 0, -2}, {1, 1, 4},
         {2, 2, 4}, {2, 3, -3}, {3, 2, -1}, {3, 3, 4}});
    const core::BatchLayout pairs({2, 2});
    const core::BatchLayout singles({1, 1, 1, 1});
    EXPECT_EQ(captured_coupling<double>(a, pairs), 1.0);
    EXPECT_EQ(captured_coupling<double>(a, singles), 0.0);
    // Through a row list: blocks {0, 2} and {1, 3} capture nothing, the
    // identity list is the contiguous layout.
    const std::vector<index_type> crossed{0, 2, 1, 3};
    const std::vector<index_type> identity{0, 1, 2, 3};
    EXPECT_EQ(captured_coupling<double>(a, pairs, crossed), 0.0);
    EXPECT_EQ(captured_coupling<double>(a, pairs, identity), 1.0);
    // The diagonal never counts: a diagonal matrix has nothing to miss.
    const auto d = sparse::Csr<double>::from_triplets(
        3, 3, {{0, 0, 1}, {1, 1, 2}, {2, 2, 3}});
    EXPECT_EQ(captured_coupling<double>(d, core::BatchLayout({1, 1, 1})),
              1.0);
}

TEST(CapturedCoupling, WeighsValuesNotEntries) {
    // Row 1 couples to row 0 (in its block) with weight 1 and to row 2
    // (outside) with weight 3; by symmetry 2 of 8 units are captured.
    const auto a = sparse::Csr<double>::from_triplets(
        3, 3,
        {{0, 0, 5}, {0, 1, -1}, {1, 0, -1}, {1, 1, 5}, {1, 2, -3},
         {2, 1, -3}, {2, 2, 5}});
    EXPECT_DOUBLE_EQ(
        captured_coupling<double>(a, core::BatchLayout({2, 1})), 0.25);
}

TEST(Aggregation, GroupsAlongTheStrongCouplings) {
    // Anisotropic diffusion, strong direction across the grid lines:
    // the aggregated blocks hold most of the mass the consecutive
    // supervariable blocks miss.
    const auto a = sparse::anisotropic_2d<double>(24, 24, 100.0, 1, 7);
    const auto sv = find_supervariables(a);
    const auto agg = aggregate_supervariables(a, sv, 8);
    expect_valid_layout(agg, a.num_rows(), 8);
    const core::BatchLayout sv_layout(supervariable_blocking(a, bound(8)));
    const double before = captured_coupling<double>(a, sv_layout);
    const double after = captured_coupling<double>(a, *agg.layout, agg.rows);
    EXPECT_LT(before, aggregate_below);
    EXPECT_GT(after, adopt_gain * before);
}

TEST(Aggregation, KeepsSupervariablesWhole) {
    // 4-dof supervariables stay together; one larger than the bound is
    // split into bound-sized pieces first.
    const auto a = sparse::anisotropic_2d<double>(10, 10, 100.0, 4, 3);
    const auto sv = find_supervariables(a);
    ASSERT_TRUE(std::all_of(sv.begin(), sv.end(),
                            [](index_type m) { return m == 4; }));
    const auto agg = aggregate_supervariables(a, sv, 16);
    expect_valid_layout(agg, a.num_rows(), 16);
    for (size_type b = 0; b < agg.layout->count(); ++b) {
        const index_type m = agg.layout->size(b);
        const auto off = static_cast<std::size_t>(agg.layout->row_offset(b));
        EXPECT_EQ(m % 4, 0);
        for (index_type i = 0; i < m; i += 4) {
            const auto r0 = agg.rows[off + static_cast<std::size_t>(i)];
            EXPECT_EQ(r0 % 4, 0);
            for (index_type k = 1; k < 4; ++k) {
                EXPECT_EQ(agg.rows[off + static_cast<std::size_t>(i + k)],
                          r0 + k);
            }
        }
    }
    const std::vector<index_type> big{static_cast<index_type>(a.num_rows())};
    const auto split = aggregate_supervariables(a, big, 16);
    expect_valid_layout(split, a.num_rows(), 16);
}

TEST(LayoutRule, AggregatesTheAnisotropicCase) {
    const auto a = suite("aniso_e10_d1");
    const auto d = choose_diagonal_blocks(a, bound(32));
    ASSERT_TRUE(d.aggregated());
    expect_valid_layout(d, a.num_rows(), 32);
    EXPECT_LT(d.supervariable_coupling, aggregate_below);
    EXPECT_GE(d.captured_coupling, adopt_gain * d.supervariable_coupling);
    EXPECT_NE(layout_hash(*d.layout, d.rows), 0u);
    // A pure function of (pattern, values, bound).
    const auto again = choose_diagonal_blocks(a, bound(32));
    EXPECT_EQ(again.layout->sizes(), d.layout->sizes());
    EXPECT_EQ(again.rows, d.rows);
    EXPECT_EQ(again.captured_coupling, d.captured_coupling);
}

TEST(LayoutRule, KeepsSupervariablesWhereTheyCaptureTheCoupling) {
    for (const char* name : {"lap2d_d1", "fem_d4_s", "circuit_s"}) {
        const auto a = suite(name);
        const auto d = choose_diagonal_blocks(a, bound(32));
        EXPECT_FALSE(d.aggregated()) << name;
        EXPECT_EQ(d.layout->sizes(), supervariable_blocking(a, bound(32)))
            << name;
        EXPECT_EQ(d.captured_coupling, d.supervariable_coupling) << name;
        EXPECT_GE(d.supervariable_coupling, aggregate_below) << name;
        EXPECT_EQ(layout_hash(*d.layout, d.rows), 0u) << name;
    }
    // The small tenant of the service_mixed benchmark workload.
    const auto small = sparse::fem_block_matrix<double>(64, 2, 8, 2, 0.25, 101);
    EXPECT_FALSE(choose_diagonal_blocks(small, bound(32)).aggregated());
}

TEST(LayoutRule, IsotropicValuesOnTheSamePatternKeepSupervariables) {
    // Same pattern, the layout follows the values.
    const auto aniso = sparse::anisotropic_2d<double>(30, 30, 100.0, 1, 5);
    const auto iso = sparse::anisotropic_2d<double>(30, 30, 1.0, 1, 5);
    ASSERT_EQ(aniso.pattern_hash(), iso.pattern_hash());
    EXPECT_TRUE(choose_diagonal_blocks(aniso, bound(32)).aggregated());
    EXPECT_FALSE(choose_diagonal_blocks(iso, bound(32)).aggregated());
}

TEST(LayoutRule, SymbolicBuildRecordsTheChoice) {
    // Every symbolic built on the rule's choice exports it: the two
    // shares as gauges and one count per aggregated layout.
    auto& registry = obs::Registry::global();
    const double before = registry.counter_value("blocking.aggregated_layouts");
    const auto a = suite("aniso_e10_d1");
    const auto d = choose_diagonal_blocks(a, bound(32));
    EXPECT_EQ(registry.counter_value("blocking.aggregated_layouts"), before);
    precond::BlockJacobiOptions opts;
    const auto sym = precond::build_block_jacobi_symbolic(a, opts);
    EXPECT_EQ(sym->rows, d.rows);
    EXPECT_EQ(registry.counter_value("blocking.aggregated_layouts"),
              before + 1.0);
    auto gauges = registry.gauges();
    EXPECT_EQ(gauges.at("blocking.captured_coupling"), d.captured_coupling);
    EXPECT_EQ(gauges.at("blocking.supervariable_coupling"),
              d.supervariable_coupling);
    const auto iso = suite("lap2d_d1");
    (void)precond::build_block_jacobi_symbolic(iso, opts);
    EXPECT_EQ(registry.counter_value("blocking.aggregated_layouts"),
              before + 1.0);
    gauges = registry.gauges();
    EXPECT_EQ(gauges.at("blocking.captured_coupling"),
              gauges.at("blocking.supervariable_coupling"));
}

TEST(GatherPlan, RowListGathersThePermutedPrincipalBlocks) {
    const auto a = sparse::anisotropic_2d<double>(12, 12, 50.0, 2, 9);
    const auto d = choose_diagonal_blocks(a, bound(16));
    ASSERT_TRUE(d.aggregated());
    const auto& layout = d.layout;
    const GatherPlan plan(a, layout, d.rows);
    std::vector<double> block(32 * 32);
    for (size_type b = 0; b < layout->count(); ++b) {
        const index_type m = layout->size(b);
        const auto off = static_cast<std::size_t>(layout->row_offset(b));
        plan.gather_block(a.values(), b, MatrixView<double>(block.data(), m, m));
        for (index_type j = 0; j < m; ++j) {
            for (index_type i = 0; i < m; ++i) {
                EXPECT_EQ(block[static_cast<std::size_t>(j * m + i)],
                          a.at(d.rows[off + static_cast<std::size_t>(i)],
                               d.rows[off + static_cast<std::size_t>(j)]))
                    << "block " << b << " (" << i << ", " << j << ")";
            }
        }
    }
    // Not a permutation: rejected.
    auto bad = d.rows;
    bad[1] = bad[0];
    EXPECT_THROW(GatherPlan(a, layout, bad), BadParameter);
}

}  // namespace
}  // namespace vbatch::blocking
