// Tests for the symbolic/numeric setup split: gather plans vs the
// reference extraction, pattern fingerprinting, BlockJacobi::refresh
// bitwise equality with a fresh setup (scalar and SIMD backends),
// pattern-mismatch rejection, refresh-after-recovery behavior, the new
// SetupPhases breakdown and the plan-reuse counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "base/exception.hpp"
#include "base/random.hpp"
#include "blocking/extraction.hpp"
#include "blocking/gather_plan.hpp"
#include "blocking/supervariable.hpp"
#include "core/simd_dispatch.hpp"
#include "obs/metrics.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "lu_reference.hpp"

namespace vbatch::precond {
namespace {

sparse::Csr<double> test_matrix() {
    return sparse::fem_block_matrix<double>(40, 3, 9, 5.0, 123);
}

/// Same pattern, different values: perturb every stored entry by a
/// value-dependent factor so no entry keeps its old bit pattern.
template <typename T>
std::vector<T> perturbed_values(const sparse::Csr<T>& a, unsigned seed) {
    auto eng = make_engine(seed);
    std::vector<T> v(a.values().begin(), a.values().end());
    for (auto& x : v) {
        x = x * static_cast<T>(uniform(eng, 0.5, 1.5)) +
            static_cast<T>(uniform(eng, -0.25, 0.25));
    }
    return v;
}

template <typename T>
void expect_same_factors(const BlockJacobi<T>& got,
                         const BlockJacobi<T>& want) {
    const auto& layout = want.layout();
    ASSERT_EQ(got.layout().sizes(), layout.sizes());
    const auto nvals = static_cast<std::size_t>(layout.total_values());
    EXPECT_TRUE(std::equal(got.factors().data(),
                           got.factors().data() + nvals,
                           want.factors().data()))
        << "factor values differ";
    for (size_type b = 0; b < layout.count(); ++b) {
        const auto gp = got.pivots().span(b);
        const auto wp = want.pivots().span(b);
        EXPECT_TRUE(std::equal(gp.begin(), gp.end(), wp.begin()))
            << "pivots of block " << b << " differ";
    }
    ASSERT_EQ(got.block_status().size(), want.block_status().size());
    for (std::size_t b = 0; b < want.block_status().size(); ++b) {
        EXPECT_EQ(got.block_status()[b], want.block_status()[b])
            << "status of block " << b;
    }
    const auto gs = got.recovery_summary();
    const auto ws = want.recovery_summary();
    EXPECT_EQ(gs.ok, ws.ok);
    EXPECT_EQ(gs.boosted, ws.boosted);
    EXPECT_EQ(gs.fell_back, ws.fell_back);
    EXPECT_EQ(gs.singular, ws.singular);
    EXPECT_EQ(gs.max_growth, ws.max_growth);
}

// -- gather plan vs reference extraction ------------------------------

TEST(GatherPlan, GatherMatchesExtractionBitwise) {
    const auto a = test_matrix();
    blocking::BlockingOptions bopts;
    bopts.max_block_size = 12;
    const auto layout = blocking::supervariable_layout(a, bopts);
    const blocking::GatherPlan plan(a, layout);
    const auto reference = blocking::extract_diagonal_blocks(a, layout);

    core::BatchedMatrices<double> gathered(layout);
    for (size_type b = 0; b < layout->count(); ++b) {
        plan.gather_block(a.values(), b, gathered.view(b));
    }
    const auto n = static_cast<std::size_t>(layout->total_values());
    EXPECT_TRUE(std::equal(gathered.data(), gathered.data() + n,
                           reference.data()));
}

TEST(GatherPlan, CountsOnlyInBlockEntries) {
    const auto a = test_matrix();
    blocking::BlockingOptions bopts;
    bopts.max_block_size = 8;
    const auto layout = blocking::supervariable_layout(a, bopts);
    const blocking::GatherPlan plan(a, layout);
    size_type total = 0;
    for (size_type b = 0; b < layout->count(); ++b) {
        total += plan.block_entries(b);
    }
    EXPECT_EQ(total, static_cast<size_type>(plan.src().size()));
    EXPECT_LE(total, a.nnz());
    EXPECT_GT(total, 0);
}

TEST(GatherPlan, MatchesDetectsPatternChange) {
    const auto a = test_matrix();
    blocking::BlockingOptions bopts;
    const auto layout = blocking::supervariable_layout(a, bopts);
    const blocking::GatherPlan plan(a, layout);
    EXPECT_TRUE(plan.matches(a));

    // New values, same pattern: still a match.
    auto b = a;
    const auto v2 = perturbed_values(a, 7);
    b.set_values(std::span<const double>(v2));
    EXPECT_TRUE(plan.matches(b));

    // Structural mutation: the fingerprint must reject it.
    auto c = a;
    c.drop_small_entries(1e-3);
    ASSERT_NE(c.nnz(), a.nnz());
    EXPECT_FALSE(plan.matches(c));
}

TEST(GatherPlan, HashSensitiveToStructureNotValues) {
    const auto a = test_matrix();
    const auto h = blocking::csr_pattern_hash(a.row_ptrs(), a.col_idxs());
    auto b = a;
    const auto v2 = perturbed_values(a, 11);
    b.set_values(std::span<const double>(v2));
    EXPECT_EQ(h, blocking::csr_pattern_hash(b.row_ptrs(), b.col_idxs()));
    const auto c = sparse::laplacian_2d<double>(15, 16);
    EXPECT_NE(h, blocking::csr_pattern_hash(c.row_ptrs(), c.col_idxs()));
}

// -- refresh: bitwise equality with a fresh setup ---------------------

class RefreshBackends
    : public ::testing::TestWithParam<BlockJacobiBackend> {};

TEST_P(RefreshBackends, RefreshEqualsFreshSetupBitwise) {
    const auto a = test_matrix();
    BlockJacobiOptions opts;
    opts.backend = GetParam();
    opts.max_block_size = 12;

    BlockJacobi<double> prec(a, opts);
    auto b = a;
    const auto v2 = perturbed_values(a, 42);
    b.set_values(std::span<const double>(v2));
    prec.refresh(b);
    EXPECT_GT(prec.refresh_seconds(), 0.0);

    // Refresh keeps the symbolic (layout included), so the fresh setup
    // adopts it: "refresh == setup" means "same symbolic".
    BlockJacobiOptions fresh_opts = opts;
    fresh_opts.symbolic = prec.symbolic();
    const BlockJacobi<double> fresh(b, fresh_opts);
    expect_same_factors(prec, fresh);
}

TEST_P(RefreshBackends, RefreshIsRepeatable) {
    const auto a = test_matrix();
    BlockJacobiOptions opts;
    opts.backend = GetParam();
    opts.max_block_size = 12;
    BlockJacobi<double> prec(a, opts);

    // Refresh to new values and back: the round trip must reproduce the
    // original factors bit for bit.
    const auto original =
        std::vector<double>(prec.factors().data(),
                            prec.factors().data() +
                                prec.layout().total_values());
    auto b = a;
    const auto v2 = perturbed_values(a, 99);
    b.set_values(std::span<const double>(v2));
    prec.refresh(b);
    prec.refresh(a);
    EXPECT_TRUE(std::equal(original.begin(), original.end(),
                           prec.factors().data()));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RefreshBackends,
    ::testing::Values(BlockJacobiBackend::lu, BlockJacobiBackend::lu_simd,
                      BlockJacobiBackend::gauss_huard,
                      BlockJacobiBackend::gauss_huard_t,
                      BlockJacobiBackend::gje_inversion),
    [](const auto& info) {
        auto name = backend_name(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(Refresh, SimdMatchesScalarAfterRefresh) {
    // After a refresh, lu and lu-simd still equal the scalar kernels run
    // on the new values block by block.
    const auto a = test_matrix();
    auto b = a;
    const auto v2 = perturbed_values(a, 5);
    b.set_values(std::span<const double>(v2));
    const std::vector<double> r(static_cast<std::size_t>(a.num_rows()), 1.0);
    for (const auto backend :
         {BlockJacobiBackend::lu, BlockJacobiBackend::lu_simd}) {
        BlockJacobiOptions opts;
        opts.backend = backend;
        opts.max_block_size = 12;
        BlockJacobi<double> prec(a, opts);
        prec.refresh(b);
        const auto ref = reference::lu_reference(b, prec.symbolic()->layout,
                                                 prec.symbolic()->rows);
        EXPECT_TRUE(reference::matches_lu_reference(
            prec, ref, std::span<const double>(r)))
            << prec.name();
    }
}

TEST(Refresh, FloatBackendBitwise) {
    const auto a = sparse::fem_block_matrix<float>(30, 3, 9, 5.0, 21);
    BlockJacobiOptions opts;
    opts.backend = BlockJacobiBackend::lu_simd;
    opts.max_block_size = 9;
    BlockJacobi<float> prec(a, opts);
    auto b = a;
    const auto v2 = perturbed_values(a, 13);
    b.set_values(std::span<const float>(v2));
    prec.refresh(b);

    BlockJacobiOptions fresh_opts = opts;
    fresh_opts.symbolic = prec.symbolic();
    const BlockJacobi<float> fresh(b, fresh_opts);
    expect_same_factors(prec, fresh);
}

// -- refresh: pattern-mismatch rejection ------------------------------

TEST(Refresh, PatternMismatchThrows) {
    const auto a = test_matrix();
    BlockJacobiOptions opts;
    opts.max_block_size = 12;
    BlockJacobi<double> prec(a, opts);

    // Same dims, different pattern.
    auto b = a;
    b.drop_small_entries(1e-3);
    ASSERT_NE(b.nnz(), a.nnz());
    EXPECT_THROW(prec.refresh(b), BadParameter);

    // Different dims.
    const auto c = sparse::laplacian_2d<double>(10, 10);
    EXPECT_THROW(prec.refresh(c), BadParameter);
}

TEST(Refresh, SetValuesSizeMismatchThrows) {
    auto a = test_matrix();
    std::vector<double> wrong(static_cast<std::size_t>(a.nnz()) + 1, 1.0);
    EXPECT_THROW(a.set_values(std::span<const double>(wrong)),
                 DimensionMismatch);
}

// -- refresh after recovery -------------------------------------------

TEST(Refresh, RecoveryStateRebuiltPerRefresh) {
    // Healthy matrix first; then values that break two blocks; then
    // healthy again. Each refresh must report exactly the state a fresh
    // setup on the same values reports, with no leakage between runs.
    auto a = sparse::laplacian_2d<double>(12, 12);
    blocking::BlockingOptions bopts;
    bopts.max_block_size = 8;
    const auto layout = blocking::supervariable_layout(a, bopts);
    BlockJacobiOptions opts;
    opts.layout = layout;
    opts.backend = BlockJacobiBackend::lu;
    BlockJacobi<double> prec(a, opts);
    EXPECT_EQ(prec.recovery_summary().degraded(), 0);

    auto broken = a;
    blocking::make_blocks_singular(broken, *layout, 2);
    ASSERT_TRUE(prec.gather_plan().matches(broken));
    prec.refresh(broken);
    const BlockJacobi<double> fresh_broken(broken, opts);
    expect_same_factors(prec, fresh_broken);
    EXPECT_GT(prec.recovery_summary().degraded(), 0);

    prec.refresh(a);
    EXPECT_EQ(prec.recovery_summary().degraded(), 0);
    const BlockJacobi<double> fresh_clean(a, opts);
    expect_same_factors(prec, fresh_clean);
}

TEST(Refresh, StrictPolicyRefreshThrowsOnBreakdown) {
    auto a = sparse::laplacian_2d<double>(10, 10);
    blocking::BlockingOptions bopts;
    bopts.max_block_size = 5;
    const auto layout = blocking::supervariable_layout(a, bopts);
    BlockJacobiOptions opts;
    opts.layout = layout;
    opts.recovery = RecoveryPolicy::strict();
    BlockJacobi<double> prec(a, opts);

    auto broken = a;
    blocking::make_blocks_singular(broken, *layout, 1);
    EXPECT_THROW(prec.refresh(broken), SingularMatrix);
}

// -- phases and counters ----------------------------------------------

TEST(SetupPhases, BreakdownCoversNewPhases) {
    const auto a = test_matrix();
    BlockJacobiOptions opts;
    opts.backend = BlockJacobiBackend::lu_simd;
    opts.max_block_size = 12;
    BlockJacobi<double> prec(a, opts);

    const auto& ph = prec.setup_phases();
    EXPECT_GE(ph.blocking_seconds, 0.0);
    EXPECT_GT(ph.plan_seconds, 0.0);
    EXPECT_GT(ph.gather_seconds, 0.0);
    EXPECT_GT(ph.factorize_seconds, 0.0);
    EXPECT_GE(ph.pack_seconds, 0.0);
    EXPECT_GE(ph.recovery_seconds, 0.0);

    const double plan_before = ph.plan_seconds;
    auto b = a;
    const auto v2 = perturbed_values(a, 3);
    b.set_values(std::span<const double>(v2));
    prec.refresh(b);
    // Symbolic timings are construction-time; numeric ones are fresh.
    EXPECT_EQ(prec.setup_phases().plan_seconds, plan_before);
    EXPECT_GT(prec.setup_phases().gather_seconds, 0.0);
}

TEST(SetupPhases, PlanReuseCountersExported) {
    auto& registry = obs::Registry::global();
    registry.clear();
    const auto a = test_matrix();
    BlockJacobiOptions opts;
    opts.max_block_size = 12;
    BlockJacobi<double> prec(a, opts);
    EXPECT_EQ(registry.counter_value("block_jacobi.plan_builds"), 1.0);
    EXPECT_EQ(registry.counter_value("block_jacobi.plan_reuses"), 0.0);

    auto b = a;
    const auto v2 = perturbed_values(a, 17);
    b.set_values(std::span<const double>(v2));
    prec.refresh(b);
    prec.refresh(a);
    EXPECT_EQ(registry.counter_value("block_jacobi.plan_builds"), 1.0);
    EXPECT_EQ(registry.counter_value("block_jacobi.refreshes"), 2.0);
    EXPECT_EQ(registry.counter_value("block_jacobi.plan_reuses"), 2.0);
    EXPECT_GT(registry.counter_value("block_jacobi.gather_seconds"), 0.0);
    EXPECT_GE(registry.counter_value("block_jacobi.pack_seconds"), 0.0);
    registry.clear();
}

}  // namespace
}  // namespace vbatch::precond
