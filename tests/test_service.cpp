// Tests for the multi-tenant solve service: plan-cache sharing
// (one build, many reuses), fingerprint isolation, symbolic sharing
// across backends that build the same one, LRU eviction under a byte
// budget, admission control (reject and block), concurrent request
// storms bitwise equal to serial execution, update_values equivalence
// with a fresh setup, the solver factory, and the thread-safe lazy CSR
// partition these pieces lean on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "base/exception.hpp"
#include "base/random.hpp"
#include "base/thread_pool.hpp"
#include "blocking/gather_plan.hpp"
#include "obs/metrics.hpp"
#include "precond/block_jacobi.hpp"
#include "service/engine.hpp"
#include "service/plan_cache.hpp"
#include "solvers/config.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"

namespace vbatch::service {
namespace {

sparse::Csr<double> test_matrix(std::uint64_t seed = 42) {
    return sparse::fem_block_matrix<double>(30, 3, 8, 2, 0.25, seed);
}

/// Same pattern as `a`, different values (dominance-preserving scaling
/// keeps the blocks factorizable).
std::vector<double> perturbed_values(const sparse::Csr<double>& a,
                                     unsigned seed) {
    auto eng = make_engine(seed);
    std::vector<double> v(a.values().begin(), a.values().end());
    for (auto& x : v) {
        x *= uniform(eng, 0.9, 1.1);
    }
    return v;
}

SessionOptions lu_session(const std::string& backend = "lu") {
    SessionOptions opts;
    opts.precond.backend = backend;
    opts.precond.max_block_size = 12;
    opts.solver.method = "idr";
    opts.solver.rel_tol = 1e-8;
    return opts;
}

// -- plan cache -------------------------------------------------------

TEST(PlanCache, SamePatternBuildsOnceAndShares) {
    obs::Registry::global().clear();
    Engine engine;
    const auto a = test_matrix();
    constexpr int tenants = 8;
    std::vector<SessionPtr<double>> sessions;
    for (int t = 0; t < tenants; ++t) {
        auto m = a;
        m.set_values(perturbed_values(a, 100 + t));
        sessions.push_back(engine.open_session(std::move(m), lu_session()));
        EXPECT_TRUE(sessions.back()->plan_shared());
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.cache.builds, 1u);
    EXPECT_EQ(stats.cache.reuses, static_cast<std::size_t>(tenants - 1));
    EXPECT_EQ(stats.cache.entries, 1u);
    EXPECT_EQ(stats.sessions_opened, static_cast<std::size_t>(tenants));
    // The registry view the benches export: one plan build total, every
    // tenant setup a reuse.
    auto& registry = obs::Registry::global();
    EXPECT_EQ(registry.counter_value("block_jacobi.plan_builds"), 1.0);
    EXPECT_EQ(registry.counter_value("block_jacobi.plan_reuses"),
              static_cast<double>(tenants));
    EXPECT_EQ(registry.counter_value("block_jacobi.setups"),
              static_cast<double>(tenants));
    // All sessions alias one symbolic object.
    const auto* bj0 = dynamic_cast<const precond::BlockJacobi<double>*>(
        &sessions[0]->preconditioner());
    const auto* bj1 = dynamic_cast<const precond::BlockJacobi<double>*>(
        &sessions[1]->preconditioner());
    ASSERT_NE(bj0, nullptr);
    ASSERT_NE(bj1, nullptr);
    EXPECT_EQ(bj0->symbolic().get(), bj1->symbolic().get());
}

TEST(PlanCache, DifferentPatternsStayIsolated) {
    Engine engine;
    auto s1 = engine.open_session(test_matrix(1), lu_session());
    auto s2 = engine.open_session(test_matrix(2), lu_session());
    const auto stats = engine.stats();
    EXPECT_EQ(stats.cache.builds, 2u);
    EXPECT_EQ(stats.cache.reuses, 0u);
    EXPECT_EQ(stats.cache.entries, 2u);
    const auto* bj1 = dynamic_cast<const precond::BlockJacobi<double>*>(
        &s1->preconditioner());
    const auto* bj2 = dynamic_cast<const precond::BlockJacobi<double>*>(
        &s2->preconditioner());
    EXPECT_NE(bj1->symbolic().get(), bj2->symbolic().get());
}

TEST(PlanCache, DifferentBlockBoundIsADifferentPlan) {
    Engine engine;
    const auto a = test_matrix();
    auto opts = lu_session();
    auto s1 = engine.open_session(a, opts);
    opts.precond.max_block_size = 6;
    auto s2 = engine.open_session(a, opts);
    EXPECT_EQ(engine.stats().cache.builds, 2u);
}

TEST(PlanCache, LayoutChoiceJoinsTheKey) {
    // One pattern, two value sets: the anisotropic values choose an
    // aggregated layout, the isotropic ones the supervariable layout, so
    // the pattern gets two plans; equal-valued anisotropic tenants share
    // one, whatever order they arrive in.
    Engine engine;
    const auto aniso = sparse::anisotropic_2d<double>(30, 30, 100.0, 1, 5);
    const auto iso = sparse::anisotropic_2d<double>(30, 30, 1.0, 1, 5);
    ASSERT_EQ(aniso.pattern_hash(), iso.pattern_hash());
    auto opts = lu_session();
    opts.precond.max_block_size = 32;
    const auto key_aniso = PlanCache::key_for(aniso, opts.precond);
    const auto key_iso = PlanCache::key_for(iso, opts.precond);
    EXPECT_NE(key_aniso.layout_hash, 0u);
    EXPECT_EQ(key_iso.layout_hash, 0u);

    auto s1 = engine.open_session(aniso, opts);
    auto s2 = engine.open_session(iso, opts);
    auto s3 = engine.open_session(aniso, opts);
    const auto stats = engine.stats();
    EXPECT_EQ(stats.cache.builds, 2u);
    EXPECT_EQ(stats.cache.reuses, 1u);
    const auto symbolic = [](const SessionPtr<double>& s) {
        return dynamic_cast<const precond::BlockJacobi<double>&>(
                   s->preconditioner())
            .symbolic();
    };
    EXPECT_EQ(symbolic(s1).get(), symbolic(s3).get());
    EXPECT_NE(symbolic(s1).get(), symbolic(s2).get());
    EXPECT_FALSE(symbolic(s1)->rows.empty());
    EXPECT_TRUE(symbolic(s2)->rows.empty());

    // Refresh keeps the symbolic: the isotropic session stays on the
    // supervariable layout after taking anisotropic values.
    const auto before = symbolic(s2);
    s2->update_values(std::vector<double>(aniso.values().begin(),
                                          aniso.values().end()));
    EXPECT_EQ(symbolic(s2).get(), before.get());
    std::vector<double> b(static_cast<std::size_t>(aniso.num_rows()), 1.0);
    std::vector<double> x(b.size(), 0.0);
    EXPECT_TRUE(s2->solve(b, x).result.converged());
}

TEST(PlanCache, FixedLayoutKeysApartFromTheRule) {
    // A layout fixed through config.layout files its plan under its own
    // key, so it never stands in for the rule's supervariable layout.
    Engine engine;
    const auto a = test_matrix();
    auto s1 = engine.open_session(a, lu_session());
    auto fixed = lu_session();
    fixed.precond.layout = core::make_layout(
        std::vector<index_type>(static_cast<std::size_t>(a.num_rows()), 1));
    EXPECT_NE(PlanCache::key_for(a, fixed.precond).layout_hash, 0u);
    auto s2 = engine.open_session(a, fixed);
    auto s3 = engine.open_session(a, lu_session());
    EXPECT_EQ(engine.stats().cache.builds, 2u);
    EXPECT_EQ(engine.stats().cache.reuses, 1u);
    const auto layout = [](const SessionPtr<double>& s) {
        return &dynamic_cast<const precond::BlockJacobi<double>&>(
                    s->preconditioner())
                    .layout();
    };
    EXPECT_EQ(layout(s1), layout(s3));
    EXPECT_EQ(layout(s2)->count(), a.num_rows());
}

TEST(PlanCache, ScalarBackendsShareOneSymbolic) {
    // The scalar-path symbolic (no lane groups) is backend-independent,
    // so "gh" and "gh-t" tenants over one pattern share a single plan;
    // an "lu" tenant runs the lane path and builds its own.
    Engine engine;
    const auto a = test_matrix();
    auto s1 = engine.open_session(a, lu_session("gh"));
    auto s2 = engine.open_session(a, lu_session("gh-t"));
    EXPECT_EQ(engine.stats().cache.builds, 1u);
    EXPECT_EQ(engine.stats().cache.reuses, 1u);
    auto s3 = engine.open_session(a, lu_session("lu"));
    EXPECT_EQ(engine.stats().cache.builds, 2u);
}

TEST(PlanCache, LuSharesThePlanOfScalarIsaLuSimd) {
    // "lu" is the lane path built for the scalar ISA, so it and lu-simd
    // pinned to the scalar ISA build the same symbolic and share it.
    Engine engine;
    const auto a = test_matrix();
    auto simd_opts = lu_session("lu-simd");
    simd_opts.precond.simd = core::SimdIsa::scalar;
    auto s1 = engine.open_session(a, simd_opts);
    auto s2 = engine.open_session(a, lu_session("lu"));
    EXPECT_EQ(engine.stats().cache.builds, 1u);
    EXPECT_EQ(engine.stats().cache.reuses, 1u);
}

TEST(PlanCache, NoSymbolicBackendBypassesTheCache) {
    Engine engine;
    SessionOptions opts;
    opts.precond.backend = "jacobi";
    auto s = engine.open_session(test_matrix(), opts);
    EXPECT_FALSE(s->plan_shared());
    EXPECT_EQ(engine.stats().cache.builds, 0u);
    EXPECT_EQ(engine.stats().cache.entries, 0u);
}

TEST(PlanCache, OptOutAnalyzesPrivately) {
    Engine engine;
    auto opts = lu_session();
    opts.share_symbolic = false;
    auto s1 = engine.open_session(test_matrix(), opts);
    auto s2 = engine.open_session(test_matrix(), opts);
    EXPECT_FALSE(s1->plan_shared());
    EXPECT_EQ(engine.stats().cache.builds, 0u);
}

TEST(PlanCache, LruEvictsUnpinnedEntriesUnderBudget) {
    // One shard, a budget that holds roughly two plans: opening sessions
    // over many distinct patterns and dropping them must keep resident
    // bytes bounded and count evictions.
    const auto probe = PlanCache::key_for(test_matrix(), lu_session().precond);
    PlanCacheOptions copts;
    copts.shards = 1;
    {
        // Measure one symbolic's footprint to size the budget.
        PlanCache probe_cache{PlanCacheOptions{.shards = 1}};
        const auto a = test_matrix(0);
        const auto sym = probe_cache.acquire(a, lu_session().precond);
        ASSERT_NE(sym, nullptr);
        copts.byte_budget = 2 * sym->byte_size() + sym->byte_size() / 2;
    }
    EngineOptions eopts;
    eopts.cache = copts;
    Engine engine(eopts);
    constexpr int patterns = 6;
    for (int p = 0; p < patterns; ++p) {
        auto s = engine.open_session(test_matrix(10 + p), lu_session());
        EXPECT_TRUE(s->plan_shared());
        // Session (and its pin on the symbolic) dies here.
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.cache.builds, static_cast<std::size_t>(patterns));
    EXPECT_GT(stats.cache.evictions, 0u);
    EXPECT_LE(stats.cache.bytes, copts.byte_budget);
    EXPECT_LT(stats.cache.entries, static_cast<std::size_t>(patterns));
    (void)probe;
}

TEST(PlanCache, PinnedEntriesSurviveEviction) {
    PlanCacheOptions copts;
    copts.shards = 1;
    copts.byte_budget = 1;  // nothing fits: evict whatever is unpinned
    PlanCache cache(copts);
    const auto a = test_matrix();
    const auto pinned = cache.acquire(a, lu_session().precond);
    ASSERT_NE(pinned, nullptr);
    // Insert another pattern; the budget forces eviction, but the pinned
    // entry must stay resident while we hold it.
    const auto b = test_matrix(7);
    const auto other = cache.acquire(b, lu_session().precond);
    ASSERT_NE(other, nullptr);
    const auto again = cache.acquire(a, lu_session().precond);
    EXPECT_EQ(again.get(), pinned.get());  // still a cache hit
    EXPECT_GE(cache.stats().reuses, 1u);
}

// -- sessions: numeric path ------------------------------------------

TEST(Session, UpdateValuesMatchesFreshSetupBitwise) {
    Engine engine;
    const auto a = test_matrix();
    const auto v = perturbed_values(a, 9);

    auto session = engine.open_session(a, lu_session());
    session->update_values(v);

    auto fresh_matrix = a;
    fresh_matrix.set_values(v);
    auto fresh = engine.open_session(std::move(fresh_matrix), lu_session());

    std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 1.0);
    std::vector<double> x1(b.size(), 0.0);
    std::vector<double> x2(b.size(), 0.0);
    const auto r1 = session->solve(b, x1);
    const auto r2 = fresh->solve(b, x2);
    EXPECT_EQ(r1.result.iterations, r2.result.iterations);
    EXPECT_EQ(0, std::memcmp(x1.data(), x2.data(),
                             x1.size() * sizeof(double)));
    EXPECT_GT(r1.refresh_seconds, 0.0);
}

TEST(Session, SolveConverges) {
    Engine engine;
    const auto a = test_matrix();
    auto session = engine.open_session(a, lu_session());
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 1.0);
    std::vector<double> x(b.size(), 0.0);
    const auto response = session->solve(b, x);
    ASSERT_TRUE(response.result.converged());
    // Residual check against the session's own matrix.
    std::vector<double> r(b.size());
    session->matrix().spmv(x, r);
    double err = 0.0;
    for (std::size_t i = 0; i < r.size(); ++i) {
        err = std::max(err, std::abs(r[i] - b[i]));
    }
    EXPECT_LT(err, 1e-5);
}

TEST(Session, PerRequestToleranceOverride) {
    Engine engine;
    auto session = engine.open_session(test_matrix(), lu_session());
    const auto run = [&](double rel_tol, index_type max_iters) {
        SolveRequest<double> req;
        req.rhs.assign(static_cast<std::size_t>(session->num_rows()), 1.0);
        req.rel_tol = rel_tol;
        req.max_iters = max_iters;
        const auto response = session->submit(std::move(req)).get();
        EXPECT_TRUE(response.accepted);
        return response.result;
    };
    const auto defaults = run(0.0, 0);
    const auto loose = run(1e-4, 0);
    const auto capped = run(0.0, 2);
    ASSERT_TRUE(defaults.converged());
    EXPECT_LE(defaults.relative_residual(), 1e-8);
    ASSERT_TRUE(loose.converged());
    EXPECT_LE(loose.relative_residual(), 1e-4);
    EXPECT_LT(loose.iterations, defaults.iterations);
    EXPECT_FALSE(capped.converged());
    EXPECT_LE(capped.iterations, 2);
}

// -- async engine: storms, drain, admission --------------------------

TEST(Engine, ConcurrentStormBitwiseEqualsSerial) {
    const auto a = test_matrix();
    constexpr int tenants = 6;
    constexpr int rounds = 3;

    const auto run = [&](bool concurrent) {
        Engine engine;
        std::vector<SessionPtr<double>> sessions;
        for (int t = 0; t < tenants; ++t) {
            auto m = a;
            m.set_values(perturbed_values(a, 50 + t));
            sessions.push_back(
                engine.open_session(std::move(m), lu_session()));
        }
        std::vector<std::vector<double>> xs;
        if (concurrent) {
            std::vector<std::future<SolveResponse<double>>> futures;
            std::vector<std::thread> clients;
            std::mutex order;
            futures.resize(static_cast<std::size_t>(tenants * rounds));
            for (int t = 0; t < tenants; ++t) {
                clients.emplace_back([&, t] {
                    for (int r = 0; r < rounds; ++r) {
                        SolveRequest<double> req;
                        req.rhs.assign(
                            static_cast<std::size_t>(
                                sessions[static_cast<std::size_t>(t)]
                                    ->num_rows()),
                            1.0 + r);
                        auto f = sessions[static_cast<std::size_t>(t)]
                                     ->submit(std::move(req));
                        std::lock_guard<std::mutex> lock(order);
                        futures[static_cast<std::size_t>(t * rounds + r)] =
                            std::move(f);
                    }
                });
            }
            for (auto& c : clients) {
                c.join();
            }
            for (auto& f : futures) {
                auto resp = f.get();
                EXPECT_TRUE(resp.accepted);
                xs.push_back(std::move(resp.x));
            }
        } else {
            for (int t = 0; t < tenants; ++t) {
                for (int r = 0; r < rounds; ++r) {
                    SolveRequest<double> req;
                    req.rhs.assign(
                        static_cast<std::size_t>(
                            sessions[static_cast<std::size_t>(t)]
                                ->num_rows()),
                        1.0 + r);
                    auto resp = sessions[static_cast<std::size_t>(t)]
                                    ->submit(std::move(req))
                                    .get();
                    EXPECT_TRUE(resp.accepted);
                    xs.push_back(std::move(resp.x));
                }
            }
        }
        engine.drain();
        return xs;
    };

    const auto serial = run(false);
    const auto storm = run(true);
    ASSERT_EQ(serial.size(), storm.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].size(), storm[i].size());
        EXPECT_EQ(0, std::memcmp(serial[i].data(), storm[i].data(),
                                 serial[i].size() * sizeof(double)))
            << "request " << i << " diverged under concurrency";
    }
}

/// Occupy every pool worker until released, so queued service jobs
/// cannot start and admission control is observable deterministically.
class WorkerGate {
public:
    explicit WorkerGate(unsigned workers) : spawned_(workers) {
        for (unsigned w = 0; w < workers; ++w) {
            ThreadPool::global().submit([this] {
                std::unique_lock<std::mutex> lock(mutex_);
                ++held_;
                cv_.notify_all();
                cv_.wait(lock, [&] { return released_; });
                ++exited_;
                cv_.notify_all();
            });
        }
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return held_ == workers; });
    }
    /// Destruction must outwait the blockers: they still touch this
    /// object's mutex while waking up.
    ~WorkerGate() {
        release();
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return exited_ == spawned_; });
    }
    void release() {
        std::lock_guard<std::mutex> lock(mutex_);
        released_ = true;
        cv_.notify_all();
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    const unsigned spawned_;
    unsigned held_ = 0;
    unsigned exited_ = 0;
    bool released_ = false;
};

TEST(Engine, AdmissionRejectsWhenQueueFull) {
    const unsigned workers = ThreadPool::global().size() - 1;
    if (workers == 0) {
        GTEST_SKIP() << "no pool workers: submit() runs inline";
    }
    EngineOptions eopts;
    eopts.queue_capacity = 2;
    eopts.admission = Admission::reject;
    Engine engine(eopts);
    auto session = engine.open_session(test_matrix(), lu_session());
    const auto request = [&] {
        SolveRequest<double> req;
        req.rhs.assign(static_cast<std::size_t>(session->num_rows()), 1.0);
        return req;
    };
    std::vector<std::future<SolveResponse<double>>> futures;
    {
        WorkerGate gate(workers);
        for (int i = 0; i < 5; ++i) {
            futures.push_back(session->submit(request()));
        }
        const auto stats = engine.stats();
        EXPECT_EQ(stats.submitted, 2u);
        EXPECT_EQ(stats.rejected, 3u);
        EXPECT_GE(stats.peak_depth, 2u);
        // Rejected futures resolve immediately, accepted ones only after
        // the gate opens.
        EXPECT_FALSE(futures[2].get().accepted);
        gate.release();
    }
    engine.drain();
    EXPECT_TRUE(futures[0].get().accepted);
    EXPECT_TRUE(futures[1].get().accepted);
    EXPECT_FALSE(futures[3].get().accepted);
    EXPECT_FALSE(futures[4].get().accepted);
    const auto stats = engine.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.outstanding, 0u);
}

TEST(Engine, AdmissionBlocksUntilRoom) {
    const unsigned workers = ThreadPool::global().size() - 1;
    if (workers == 0) {
        GTEST_SKIP() << "no pool workers: submit() runs inline";
    }
    EngineOptions eopts;
    eopts.queue_capacity = 1;
    eopts.admission = Admission::block;
    Engine engine(eopts);
    auto session = engine.open_session(test_matrix(), lu_session());
    const auto request = [&] {
        SolveRequest<double> req;
        req.rhs.assign(static_cast<std::size_t>(session->num_rows()), 1.0);
        return req;
    };
    std::atomic<int> accepted{0};
    std::thread client;
    {
        WorkerGate gate(workers);
        auto first = session->submit(request());  // fills the queue
        client = std::thread([&] {
            for (int i = 0; i < 3; ++i) {
                auto f = session->submit(request());  // blocks while full
                if (f.get().accepted) {
                    accepted.fetch_add(1);
                }
            }
        });
        // The client must be parked in admission, not rejected.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_EQ(engine.stats().rejected, 0u);
        gate.release();
        EXPECT_TRUE(first.get().accepted);
    }
    client.join();
    engine.drain();
    EXPECT_EQ(accepted.load(), 3);
    const auto stats = engine.stats();
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.completed, 4u);
}

TEST(Engine, DrainQuiesces) {
    Engine engine;
    auto session = engine.open_session(test_matrix(), lu_session());
    std::vector<std::future<SolveResponse<double>>> futures;
    for (int i = 0; i < 8; ++i) {
        SolveRequest<double> req;
        req.rhs.assign(static_cast<std::size_t>(session->num_rows()),
                       1.0 + i);
        futures.push_back(session->submit(std::move(req)));
    }
    engine.drain();
    EXPECT_EQ(engine.stats().outstanding, 0u);
    for (auto& f : futures) {
        EXPECT_TRUE(f.get().accepted);
    }
}

// -- make_solver ------------------------------------------------------

TEST(MakeSolver, DefaultConfigSolves) {
    const auto a = test_matrix();
    precond::Config pconf;
    pconf.backend = "lu";
    pconf.max_block_size = 12;
    const auto prec = precond::make_preconditioner<double>(a, pconf);
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 1.0);
    solvers::Config config;
    config.rel_tol = 1e-8;
    const auto solver = solvers::make_solver<double>(config);
    std::vector<double> x(b.size(), 0.0);
    EXPECT_TRUE(solver->solve(a, b, x, *prec).converged());
}

TEST(MakeSolver, MatchesDirectCall) {
    const auto a = test_matrix();
    precond::Config pconf;
    pconf.backend = "lu";
    const auto prec = precond::make_preconditioner<double>(a, pconf);
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 1.0);

    solvers::Config config;
    config.method = "idr";
    config.idr_s = 2;
    std::vector<double> x1(b.size(), 0.0);
    const auto r1 = solvers::make_solver<double>(config)->solve(
        a, b, std::span<double>(x1), *prec);

    solvers::IdrOptions opts;
    opts.s = 2;
    std::vector<double> x2(b.size(), 0.0);
    const auto r2 = solvers::idr(a, std::span<const double>(b),
                                 std::span<double>(x2), *prec, opts);
    EXPECT_EQ(r1.iterations, r2.iterations);
    EXPECT_EQ(0, std::memcmp(x1.data(), x2.data(),
                             x1.size() * sizeof(double)));
}

TEST(MakeSolver, UnknownMethodThrows) {
    solvers::Config config;
    config.method = "does-not-exist";
    try {
        (void)solvers::make_solver<double>(config);
        FAIL() << "expected BadParameter";
    } catch (const BadParameter& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("does-not-exist"), std::string::npos);
        EXPECT_NE(msg.find("idr"), std::string::npos);
    }
}

// -- shared infrastructure races --------------------------------------

TEST(CsrPartition, PatternHashMemoizedAndStructural) {
    const auto a = test_matrix();
    const auto h = a.pattern_hash();
    // Matches a from-scratch computation and is stable across calls.
    EXPECT_EQ(h, blocking::csr_pattern_hash(a.row_ptrs(), a.col_idxs()));
    EXPECT_EQ(h, a.pattern_hash());

    // Copies share the structure cache; new values keep the pattern.
    auto b = a;
    EXPECT_EQ(b.pattern_hash(), h);
    b.set_values(std::span<const double>(perturbed_values(b, 7)));
    EXPECT_EQ(b.pattern_hash(), h);

    // A structural mutation must produce a different fingerprint.
    auto c = a;
    c.drop_small_entries(1e30);  // drops everything but the result is
                                 // still a valid (empty-pattern) matrix
    EXPECT_NE(c.pattern_hash(), h);
}

TEST(CsrPartition, ConcurrentPatternHashAgrees) {
    // The fingerprint shares the lazy call_once discipline of the spmv
    // partition; racing first computations must agree (TSan guards it).
    const auto a = test_matrix(5);
    constexpr int threads = 8;
    std::vector<std::uint64_t> hashes(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            hashes[static_cast<std::size_t>(t)] = a.pattern_hash();
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    for (int t = 1; t < threads; ++t) {
        EXPECT_EQ(hashes[0], hashes[static_cast<std::size_t>(t)]);
    }
}

TEST(CsrPartition, ConcurrentLazyInitAgrees) {
    // Regression for the lazy spmv-partition initialization: many
    // threads race the first build on a shared matrix; all must observe
    // the same published boundaries (TSan guards the memory model).
    const auto a = test_matrix();
    constexpr int threads = 8;
    std::vector<std::span<const size_type>> views(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            views[static_cast<std::size_t>(t)] = a.spmv_partition();
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    for (int t = 1; t < threads; ++t) {
        EXPECT_EQ(views[0].data(), views[static_cast<std::size_t>(t)].data());
    }
    ASSERT_GE(views[0].size(), 2u);
    EXPECT_EQ(views[0].front(), size_type{0});
    EXPECT_EQ(views[0].back(),
              static_cast<size_type>(a.num_rows()));
}

TEST(ThreadPoolSharing, ConcurrentExternalParallelLoops) {
    // Two client threads drive pool-parallel spmv on distinct matrices
    // at the same time -- the service's steady-state pattern. Results
    // must match a serial reference.
    const auto a = test_matrix(3);
    const auto b = test_matrix(4);
    const auto reference = [](const sparse::Csr<double>& m) {
        std::vector<double> x(static_cast<std::size_t>(m.num_rows()), 1.0);
        std::vector<double> y(x.size(), 0.0);
        m.spmv(x, y);
        return y;
    };
    const auto ra = reference(a);
    const auto rb = reference(b);
    std::atomic<bool> ok{true};
    constexpr int rounds = 50;
    std::thread ta([&] {
        for (int i = 0; i < rounds; ++i) {
            auto y = reference(a);
            if (y != ra) {
                ok.store(false);
            }
        }
    });
    std::thread tb([&] {
        for (int i = 0; i < rounds; ++i) {
            auto y = reference(b);
            if (y != rb) {
                ok.store(false);
            }
        }
    });
    ta.join();
    tb.join();
    EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace vbatch::service

// One-core machines give the global pool zero workers; submit() then
// runs inline and the admission tests (which need queued jobs to be
// observable) would skip. Force a small pool before it is first built;
// an explicit VBATCH_THREADS from the environment still wins. Every
// assertion in this binary is pool-size-independent by design (async
// jobs inline their nested parallelism).
int main(int argc, char** argv) {
    ::setenv("VBATCH_THREADS", "4", /*overwrite=*/0);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
