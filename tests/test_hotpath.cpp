// Solver hot-path contracts: fused BLAS-1 kernels are bitwise identical
// to their unfused compositions, chunked reductions are bitwise stable
// under any work distribution, the Csr spmv partition survives structural
// mutation, the BlockJacobi apply performs zero heap allocations, and the
// thread pool's inline/nested fast paths behave.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>
#include <thread>
#include <vector>

#include "base/random.hpp"
#include "base/thread_pool.hpp"
#include "blas/blas1.hpp"
#include "blas/blas1_ref.hpp"
#include "blas/fused.hpp"
#include "precond/block_jacobi.hpp"
#include "solvers/config.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"
#include "lu_reference.hpp"

// ---------------------------------------------------------------------
// Global allocation counter (for the zero-allocation apply test). All
// other tests ignore it; the counter itself never allocates.
// ---------------------------------------------------------------------
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) -
                                      1) /
                                         static_cast<std::size_t>(align) *
                                         static_cast<std::size_t>(align))) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace vbatch {
namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 eng(seed);
    std::vector<double> v(n);
    for (auto& x : v) {
        x = uniform(eng, -1.0, 1.0);
    }
    return v;
}

constexpr std::span<const double> cspan(const std::vector<double>& v) {
    return {v.data(), v.size()};
}

// Sizes straddling the chunk boundary: single-chunk (== textbook serial),
// exactly one chunk, and several chunks with a ragged tail.
const std::size_t kSizes[] = {1, 100, blas::blas1_chunk,
                              3 * blas::blas1_chunk + 17};

// ---------------------------------------------------------------------
// Chunked BLAS-1 vs the serial reference loops
// ---------------------------------------------------------------------

TEST(ChunkedBlas1, MatchesSerialReferenceWithinOneChunk) {
    // n <= blas1_chunk: one chunk IS the serial loop, so results must be
    // bitwise equal to the reference for every op.
    const std::size_t n = blas::blas1_chunk;
    const auto x = random_vec(n, 1);
    auto y1 = random_vec(n, 2);
    auto y2 = y1;
    blas::axpy(0.7, cspan(x), std::span<double>(y1));
    blas::ref::axpy(0.7, cspan(x), std::span<double>(y2));
    EXPECT_EQ(y1, y2);
    EXPECT_EQ(blas::dot(cspan(x), cspan(y1)),
              blas::ref::dot(cspan(x), cspan(y2)));
    EXPECT_EQ(blas::nrm2(cspan(x)), blas::ref::nrm2(cspan(x)));
}

TEST(ChunkedBlas1, DotMatchesManualChunkOrderCombine) {
    // Multi-chunk dot must equal the fixed-order combination of per-chunk
    // serial partials -- the definition of the determinism contract.
    for (const std::size_t n : kSizes) {
        const auto x = random_vec(n, 3);
        const auto y = random_vec(n, 4);
        double expected = 0.0;
        for (std::size_t lo = 0; lo < n; lo += blas::blas1_chunk) {
            const std::size_t hi = std::min(lo + blas::blas1_chunk, n);
            double partial = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                partial += x[i] * y[i];
            }
            expected += partial;
        }
        EXPECT_EQ(blas::dot(cspan(x), cspan(y)), expected) << "n=" << n;
    }
}

TEST(ChunkedBlas1, SweepPartialsMatchPerSlotDots) {
    // blas::sweep_chunks with several reductions per chunk: slot j of the
    // result equals blas::dot of column j, at every chunk count, and an
    // empty sweep yields zeros.
    constexpr std::size_t cols = 5;
    for (const std::size_t n : kSizes) {
        std::vector<std::vector<double>> basis;
        for (std::size_t j = 0; j < cols; ++j) {
            basis.push_back(random_vec(n, 40 + j));
        }
        const auto x = random_vec(n, 39);
        std::vector<double> out(cols, -1.0);
        blas::sweep_chunks(
            n, cols, out.data(),
            [&](std::size_t lo, std::size_t hi, double* part) {
                for (std::size_t j = 0; j < cols; ++j) {
                    double acc = 0.0;
                    for (std::size_t i = lo; i < hi; ++i) {
                        acc += basis[j][i] * x[i];
                    }
                    part[j] = acc;
                }
            });
        for (std::size_t j = 0; j < cols; ++j) {
            EXPECT_EQ(out[j], blas::dot(cspan(basis[j]), cspan(x)))
                << "n=" << n << " col=" << j;
        }
    }
    std::vector<double> out(cols, -1.0);
    blas::sweep_chunks(std::size_t{0}, cols, out.data(),
                       [](std::size_t, std::size_t, double*) {});
    EXPECT_EQ(out, std::vector<double>(cols, 0.0));
}

// ---------------------------------------------------------------------
// Fused kernels vs their unfused compositions (bitwise)
// ---------------------------------------------------------------------

TEST(FusedBlas1, Dot2MatchesTwoDots) {
    for (const std::size_t n : kSizes) {
        const auto s = random_vec(n, 13);
        const auto t = random_vec(n, 14);
        const auto [tt, ts] = blas::fused_dot2(cspan(t), cspan(t), cspan(s));
        EXPECT_EQ(tt, blas::dot(cspan(t), cspan(t))) << "n=" << n;
        EXPECT_EQ(ts, blas::dot(cspan(t), cspan(s))) << "n=" << n;
    }
}

TEST(FusedBlas1, AxpyNorm2MatchesUnfused) {
    for (const std::size_t n : kSizes) {
        const auto x = random_vec(n, 19);
        auto y1 = random_vec(n, 20);
        auto y2 = y1;
        const double norm =
            blas::fused_axpy_norm2(-0.6, cspan(x), std::span<double>(y1));
        blas::axpy(-0.6, cspan(x), std::span<double>(y2));
        EXPECT_EQ(y1, y2) << "n=" << n;
        EXPECT_EQ(norm, blas::nrm2(cspan(y2))) << "n=" << n;
    }
}

TEST(FusedBlas1, SmoothingKernelsMatchUnfused) {
    for (const std::size_t n : kSizes) {
        const auto r = random_vec(n, 21);
        const auto x = random_vec(n, 22);
        auto rs1 = random_vec(n, 23);
        auto xs1 = random_vec(n, 24);
        auto rs2 = rs1;
        auto xs2 = xs1;
        const auto [dd, rd] = blas::fused_smoothing_dots(cspan(rs1),
                                                         cspan(r));
        {
            // Unfused composition with the same chunked reductions.
            std::vector<double> d(n);
            for (std::size_t i = 0; i < n; ++i) {
                d[i] = rs2[i] - r[i];
            }
            EXPECT_EQ(dd, blas::dot(cspan(d), cspan(d))) << "n=" << n;
            EXPECT_EQ(rd, blas::dot(cspan(rs2), cspan(d))) << "n=" << n;
        }
        const double gamma = 0.42;
        const double norm = blas::fused_smooth_update(
            gamma, cspan(r), cspan(x), std::span<double>(rs1),
            std::span<double>(xs1));
        for (std::size_t i = 0; i < n; ++i) {
            rs2[i] -= gamma * (rs2[i] - r[i]);
            xs2[i] -= gamma * (xs2[i] - x[i]);
        }
        EXPECT_EQ(rs1, rs2) << "n=" << n;
        EXPECT_EQ(xs1, xs2) << "n=" << n;
        EXPECT_EQ(norm, blas::nrm2(cspan(rs2))) << "n=" << n;
    }
}

// ---------------------------------------------------------------------
// Csr spmv partition caching and invalidation
// ---------------------------------------------------------------------

TEST(SpmvPartition, CoversAllRowsStrictlyIncreasing) {
    const auto a = sparse::circuit_like<double>(500, 5, 4, 120, 99);
    const auto parts = a.spmv_partition();
    ASSERT_GE(parts.size(), 2u);
    EXPECT_EQ(parts.front(), 0);
    EXPECT_EQ(parts.back(), a.num_rows());
    for (std::size_t p = 0; p + 1 < parts.size(); ++p) {
        EXPECT_LT(parts[p], parts[p + 1]);
    }
}

TEST(SpmvPartition, BalancesSkewedNnz) {
    // Hub rows concentrate the nnz; a row-count split would put all hubs
    // in one part. The nnz-balanced split must keep every part at or
    // under one fair share plus one row's worth of slack.
    const index_type n = 4000;
    const auto a = sparse::circuit_like<double>(n, 4, 8, 600, 7);
    const auto parts = a.spmv_partition();
    if (parts.size() <= 2) {
        GTEST_SKIP() << "single-part pool; nothing to balance";
    }
    index_type max_row = 0;
    for (index_type i = 0; i < n; ++i) {
        max_row = std::max(max_row, a.row_nnz(i));
    }
    const auto nparts = static_cast<size_type>(parts.size()) - 1;
    const size_type fair = a.nnz() / nparts;
    const auto rp = a.row_ptrs();
    for (size_type p = 0; p < nparts; ++p) {
        const size_type part_nnz =
            rp[static_cast<std::size_t>(parts[p + 1])] -
            rp[static_cast<std::size_t>(parts[p])];
        // Guaranteed bound: one fair share (+1 for the floored goals) plus
        // at most one row's worth of boundary slack.
        EXPECT_LE(part_nnz, fair + static_cast<size_type>(max_row) + 1)
            << "part " << p;
    }
}

TEST(SpmvPartition, RebuiltAfterStructuralMutation) {
    // Give most rows a tiny entry so drop_small_entries changes the nnz
    // distribution substantially, then check the partition was rebuilt
    // for the new structure and spmv is correct (no stale partition).
    const index_type n = 3000;
    auto a = sparse::circuit_like<double>(n, 6, 6, 400, 3);
    auto vals = a.values();
    std::mt19937_64 eng(5);
    for (auto& v : vals) {
        if (uniform(eng, 0.0, 1.0) < 0.5) {
            v = 1e-30;
        }
    }
    const auto before_nnz = a.nnz();
    a.drop_small_entries(1e-20);
    ASSERT_LT(a.nnz(), before_nnz);
    const auto parts = a.spmv_partition();
    EXPECT_EQ(parts.front(), 0);
    EXPECT_EQ(parts.back(), n);
    for (std::size_t p = 0; p + 1 < parts.size(); ++p) {
        EXPECT_LT(parts[p], parts[p + 1]);
    }
    // spmv against a straightforward serial reference on the new structure.
    const auto x = random_vec(static_cast<std::size_t>(n), 30);
    std::vector<double> y(static_cast<std::size_t>(n));
    a.spmv(cspan(x), std::span<double>(y));
    const auto rp = a.row_ptrs();
    const auto ci = a.col_idxs();
    const auto va = a.values();
    for (index_type i = 0; i < n; ++i) {
        double acc = 0.0;
        for (auto p = rp[static_cast<std::size_t>(i)];
             p < rp[static_cast<std::size_t>(i) + 1]; ++p) {
            acc += va[static_cast<std::size_t>(p)] *
                   x[static_cast<std::size_t>(ci[static_cast<std::size_t>(p)])];
        }
        ASSERT_EQ(y[static_cast<std::size_t>(i)], acc) << "row " << i;
    }
}

TEST(SpmvPartition, SetValuesKeepsStructureAndPartition) {
    auto a = sparse::circuit_like<double>(600, 5, 3, 90, 12);
    const std::vector<size_type> before(a.spmv_partition().begin(),
                                        a.spmv_partition().end());
    std::vector<double> nv(static_cast<std::size_t>(a.nnz()), 2.5);
    a.set_values(std::span<const double>(nv));
    EXPECT_EQ(a.values()[0], 2.5);
    const std::vector<size_type> after(a.spmv_partition().begin(),
                                       a.spmv_partition().end());
    EXPECT_EQ(before, after);
}

// ---------------------------------------------------------------------
// Zero-allocation BlockJacobi apply
// ---------------------------------------------------------------------

// Pool workers allocate once when they start (thread names). Waiting
// until every worker has parked proves they all started, so nothing
// counted afterwards comes from startup on a loaded host.
void wait_until_workers_parked(const ThreadPool& pool) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (pool.parked_threads() < static_cast<size_type>(pool.size()) - 1 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

TEST(BlockJacobiApply, PerformsNoHeapAllocations) {
    for (const auto backend : {precond::BlockJacobiBackend::lu,
                               precond::BlockJacobiBackend::lu_simd}) {
        const auto a = sparse::laplacian_2d<double>(40, 40);
        precond::BlockJacobiOptions opts;
        opts.backend = backend;
        opts.max_block_size = 12;
        const precond::BlockJacobi<double> prec(a, opts);
        const auto nz = static_cast<std::size_t>(a.num_rows());
        const auto r = random_vec(nz, 31);
        std::vector<double> z(nz);
        // Warm-up: first-use metric counters insert map nodes once.
        prec.apply(cspan(r), std::span<double>(z));
        wait_until_workers_parked(ThreadPool::global());
        const long before = g_allocations.load(std::memory_order_relaxed);
        for (int rep = 0; rep < 10; ++rep) {
            prec.apply(cspan(r), std::span<double>(z));
        }
        const long after = g_allocations.load(std::memory_order_relaxed);
        EXPECT_EQ(after - before, 0)
            << backend_name(backend) << ": apply allocated";
    }

    // The same contract on an explicit 4-thread pool, whatever
    // VBATCH_THREADS sizes the global one: a dispatched parallel_for
    // splits lazily, and splitting must not allocate either.
    ThreadPool pool(4);
    wait_until_workers_parked(pool);
    ThreadPool::set_stats_enabled(true);
    std::vector<double> out(1024);
    const auto body = [&](size_type i) {
        out[static_cast<std::size_t>(i)] =
            std::sqrt(static_cast<double>(i) + 1.0);
    };
    const long before = g_allocations.load(std::memory_order_relaxed);
    for (int rep = 0; rep < 10; ++rep) {
        pool.parallel_for(0, 1024, body, 8);
    }
    const long after = g_allocations.load(std::memory_order_relaxed);
    const auto t = pool.telemetry();
    ThreadPool::set_stats_enabled(false);
    EXPECT_EQ(after - before, 0) << "dispatched parallel_for allocated";
    EXPECT_GT(t.splits, 0);
}

// Every buffer an IDR(s) solve needs is sized before its first
// iteration: a solve capped at 40 iterations allocates exactly as often
// as one capped at 10. And a Solver keeps its workspace: after one
// warm-up solve, a solve of the same size allocates nothing at all.
// 10000 rows span two BLAS-1 chunks, so every sweep takes its parallel
// path.
TEST(IdrSolve, IterationsPerformNoHeapAllocations) {
    const auto a = sparse::laplacian_2d<double>(100, 100);
    precond::BlockJacobiOptions popts;
    popts.max_block_size = 12;
    const precond::BlockJacobi<double> prec(a, popts);
    const auto nz = static_cast<std::size_t>(a.num_rows());
    const std::vector<double> b(nz, 1.0);
    const auto allocations_of = [&](index_type max_iters) {
        solvers::IdrOptions opts;
        opts.s = 4;
        opts.max_iters = max_iters;
        opts.rel_tol = 1e-300;  // run to the cap
        std::vector<double> x(nz, 0.0);
        // Workers still waking from the previous solve may allocate.
        wait_until_workers_parked(ThreadPool::global());
        const long before = g_allocations.load(std::memory_order_relaxed);
        const auto result =
            solvers::idr(a, cspan(b), std::span<double>(x), prec, opts);
        const long after = g_allocations.load(std::memory_order_relaxed);
        EXPECT_EQ(result.iterations, max_iters);
        return after - before;
    };
    allocations_of(10);  // warm-up: first-use metric counters
    const long short_solve = allocations_of(10);
    const long long_solve = allocations_of(40);
    EXPECT_EQ(short_solve, long_solve);

    solvers::Config config;
    config.max_iters = 40;
    config.rel_tol = 1e-300;
    const auto solver = solvers::make_solver<double>(config);
    std::vector<double> x(nz, 0.0);
    (void)solver->solve(a, cspan(b), std::span<double>(x), prec);
    for (int rep = 0; rep < 3; ++rep) {
        std::fill(x.begin(), x.end(), 0.0);
        wait_until_workers_parked(ThreadPool::global());
        const long before = g_allocations.load(std::memory_order_relaxed);
        const auto result =
            solver->solve(a, cspan(b), std::span<double>(x), prec);
        const long after = g_allocations.load(std::memory_order_relaxed);
        EXPECT_EQ(result.iterations, 40);
        EXPECT_EQ(after - before, 0) << "warm Solver::solve allocated";
    }
}

TEST(BlockJacobiApply, SimdPathMatchesScalarBackendBitwise) {
    // Both LU keys apply exactly like the scalar getrs_single run block
    // by block on the same factors.
    const auto a = sparse::circuit_like<double>(900, 5, 4, 60, 21);
    const auto nz = static_cast<std::size_t>(a.num_rows());
    const auto r = random_vec(nz, 32);
    for (const auto backend : {precond::BlockJacobiBackend::lu,
                               precond::BlockJacobiBackend::lu_simd}) {
        precond::BlockJacobiOptions opts;
        opts.backend = backend;
        const precond::BlockJacobi<double> prec(a, opts);
        const auto ref =
            reference::lu_reference(a, prec.symbolic()->layout,
                                    prec.symbolic()->rows);
        EXPECT_TRUE(reference::matches_lu_reference(prec, ref, cspan(r)))
            << prec.name();
        // Applying twice through the persistent workspace must be
        // idempotent.
        std::vector<double> z1(nz), z2(nz);
        prec.apply(cspan(r), std::span<double>(z1));
        prec.apply(cspan(r), std::span<double>(z2));
        EXPECT_EQ(z1, z2) << prec.name();
    }
}

// ---------------------------------------------------------------------
// Thread pool fast paths
// ---------------------------------------------------------------------

TEST(ThreadPoolFastPath, SmallRangeRunsInline) {
    ThreadPool pool(4);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(3);
    pool.parallel_for(
        0, 3, [&](size_type i) {
            seen[static_cast<std::size_t>(i)] = std::this_thread::get_id();
        },
        8);  // n <= grain: must not dispatch
    for (const auto& id : seen) {
        EXPECT_EQ(id, caller);
    }
}

TEST(ThreadPoolFastPath, NestedParallelForDispatchesUnderStealing) {
    // A nested call splits into stealable half-ranges instead of
    // inlining. Every (outer, inner) pair must still run exactly once,
    // with no deadlock between the nested joins, and the body must see
    // in_worker() raised only while it runs.
    ThreadPool pool(4);
    constexpr int outer = 16;
    constexpr int inner = 64;
    std::vector<std::atomic<int>> hits(
        static_cast<std::size_t>(outer * inner));
    pool.parallel_for(
        0, outer,
        [&](size_type i) {
            EXPECT_TRUE(ThreadPool::in_worker());
            pool.parallel_for(
                0, inner,
                [&](size_type j) {
                    hits[static_cast<std::size_t>(i * inner + j)]
                        .fetch_add(1, std::memory_order_relaxed);
                },
                1);
        },
        1);
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
    EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ThreadPoolFastPath, GlobalPoolSolvesAreDeterministicInProcess) {
    // Two identical IDR(4) solves through the full hot path (spmv + fused
    // BLAS-1 + block-Jacobi apply) must agree bitwise.
    const auto a = sparse::circuit_like<double>(2000, 5, 4, 100, 77);
    precond::BlockJacobiOptions popts;
    popts.backend = precond::BlockJacobiBackend::lu_simd;
    const precond::BlockJacobi<double> prec(a, popts);
    const auto nz = static_cast<std::size_t>(a.num_rows());
    const auto b = random_vec(nz, 33);
    std::vector<double> x1(nz, 0.0), x2(nz, 0.0);
    solvers::IdrOptions sopts;
    sopts.max_iters = 60;
    sopts.rel_tol = 1e-10;
    const auto r1 =
        solvers::idr(a, cspan(b), std::span<double>(x1), prec, sopts);
    const auto r2 =
        solvers::idr(a, cspan(b), std::span<double>(x2), prec, sopts);
    EXPECT_EQ(r1.iterations, r2.iterations);
    EXPECT_EQ(x1, x2);
}

}  // namespace
}  // namespace vbatch
