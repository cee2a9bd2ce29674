// Multi-tenant solve engine: sessions, shared symbolic plans, async jobs.
//
// The library so far exposes single-shot building blocks: build a
// preconditioner, run a solver. A long-lived host (a simulation server,
// a parameter sweep, an optimizer driving many nearby systems) instead
// holds *sessions*: a matrix whose values keep changing over one fixed
// sparsity pattern, preconditioned once symbolically and refreshed
// numerically per step. The Engine packages that operating mode:
//
//   service::Engine engine;
//   auto session = engine.open_session(std::move(a), options);
//   session->update_values(new_values);   // PR-5 numeric-only refresh
//   auto response = session->solve(b, x); // synchronous
//   auto future = session->submit(req);   // async through the job queue
//   engine.drain();                       // quiesce
//
// Three shared facilities sit under the sessions:
//  * a sharded PlanCache so same-pattern tenants share one symbolic
//    analysis (private numeric factors each; see plan_cache.hpp),
//  * counter-based admission control in front of the global ThreadPool
//    (reject or block when the outstanding-job cap is hit) with
//    backpressure telemetry -- accepted jobs go straight onto the
//    pool's work-stealing deques, with no intermediate hand-off queue,
//  * service.* counters in the metrics registry (cache hits, queue
//    traffic) that flow into bench JSON like every other subsystem.
//
// Threading: Session::solve/update_values/submit are safe to call from
// any thread; one session serializes its own requests through a session
// mutex while distinct sessions proceed in parallel. Async jobs run as
// ThreadPool tasks; a job's nested parallel loops spread across idle
// workers, and each job is deterministic (bitwise-reproducible)
// regardless of how many other tenants run beside it. The Engine must outlive its sessions; a session drains its
// own in-flight jobs on destruction.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "base/macros.hpp"
#include "base/thread_pool.hpp"
#include "base/timer.hpp"
#include "obs/metrics.hpp"
#include "precond/config.hpp"
#include "service/plan_cache.hpp"
#include "solvers/config.hpp"
#include "sparse/csr.hpp"

namespace vbatch::service {

/// What to do with a submission that finds the outstanding-job cap hit.
enum class Admission {
    /// Fail fast: the future resolves immediately with accepted=false.
    reject,
    /// Apply backpressure: the submitting thread waits for room. Do not
    /// combine with submitting from inside pool tasks.
    block,
};

struct EngineOptions {
    PlanCacheOptions cache;
    /// Cap on jobs accepted but not yet completed;
    /// 0 = $VBATCH_SERVICE_QUEUE, default 256.
    std::size_t queue_capacity = 0;
    Admission admission = Admission::reject;
};

/// Point-in-time engine telemetry (monotone counters + current depths).
struct EngineStats {
    PlanCacheStats cache;
    std::size_t sessions_opened = 0;
    std::size_t submitted = 0;  ///< async jobs accepted
    std::size_t rejected = 0;   ///< async jobs refused at admission
    std::size_t completed = 0;  ///< async jobs finished
    std::size_t outstanding = 0;
    std::size_t peak_depth = 0;  ///< high-water outstanding-job count
};

/// One tenant request: optionally swap the matrix values (same pattern),
/// then solve for `rhs`. Owns its data so it can cross threads.
template <typename T>
struct SolveRequest {
    /// New matrix values (empty = solve with the current ones). Must
    /// match the session matrix's nnz.
    std::vector<T> values;
    std::vector<T> rhs;
    /// Per-request overrides; zero = the session defaults.
    double rel_tol = 0.0;
    index_type max_iters = 0;
};

/// Result plus the telemetry of how it got through the engine.
template <typename T>
struct SolveResponse {
    /// False iff admission control refused the job (reject policy); the
    /// rest of the fields are then default-constructed.
    bool accepted = true;
    solvers::SolveResult result;
    std::vector<T> x;
    /// Numeric refresh time spent on this request's values update.
    double refresh_seconds = 0.0;
    /// Time the job sat in the queue before a worker picked it up.
    double queue_seconds = 0.0;
    /// True when this session adopted a cached symbolic plan.
    bool plan_shared = false;
};

struct SessionOptions {
    precond::Config precond;
    solvers::Config solver;
    /// Acquire the symbolic analysis through the engine's shared plan
    /// cache (same-pattern sessions then share one plan). Off = analyze
    /// privately, exactly like a standalone make_preconditioner.
    bool share_symbolic = true;
};

class Engine;

template <typename T>
class Session {
public:
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session() { wait_idle(); }

    /// Swap in new matrix values (same sparsity pattern) and re-run the
    /// numeric-only preconditioner refresh.
    void update_values(std::span<const T> values) {
        std::lock_guard<std::mutex> lock(mutex_);
        update_values_locked(values);
    }

    /// Solve A x = b synchronously on the calling thread. `x` carries
    /// the initial guess in and the solution out.
    SolveResponse<T> solve(std::span<const T> b, std::span<T> x) {
        std::lock_guard<std::mutex> lock(mutex_);
        SolveResponse<T> response;
        response.plan_shared = plan_shared_;
        response.refresh_seconds = last_refresh_seconds_;
        last_refresh_seconds_ = 0.0;
        response.result = solver_->solve(a_, b, x, *prec_);
        return response;
    }

    /// Queue the request through the engine's admission-controlled job
    /// queue. The future resolves with accepted=false when the reject
    /// policy refused it. Requests of one session execute serially in
    /// submission-completion order of the pool; distinct sessions run
    /// concurrently.
    std::future<SolveResponse<T>> submit(SolveRequest<T> request);

    /// Block until every job this session submitted has finished.
    void wait_idle() {
        std::unique_lock<std::mutex> lock(pending_mutex_);
        pending_cv_.wait(lock, [&] { return pending_ == 0; });
    }

    index_type num_rows() const noexcept { return a_.num_rows(); }
    const sparse::Csr<T>& matrix() const noexcept { return a_; }
    const precond::Preconditioner<T>& preconditioner() const noexcept {
        return *prec_;
    }
    /// True when the symbolic plan came out of the engine's cache.
    bool plan_shared() const noexcept { return plan_shared_; }

private:
    friend class Engine;

    Session(Engine& engine, sparse::Csr<T> a, SessionOptions options)
        : engine_(engine),
          a_(std::move(a)),
          options_(std::move(options)),
          plan_shared_(options_.precond.symbolic != nullptr),
          prec_(precond::make_preconditioner<T>(a_, options_.precond)),
          solver_(solvers::make_solver<T>(options_.solver)) {}

    void update_values_locked(std::span<const T> values) {
        Timer timer;
        a_.set_values(values);
        prec_->refresh(a_);
        last_refresh_seconds_ = timer.seconds();
    }

    /// Run one queued request to completion (called from a pool task,
    /// holding the session mutex for the whole request).
    SolveResponse<T> process(const SolveRequest<T>& request) {
        std::lock_guard<std::mutex> lock(mutex_);
        SolveResponse<T> response;
        response.plan_shared = plan_shared_;
        if (!request.values.empty()) {
            update_values_locked(request.values);
            response.refresh_seconds = last_refresh_seconds_;
            last_refresh_seconds_ = 0.0;
        }
        const solvers::Solver<T>* solver = solver_.get();
        solvers::SolverPtr<T> override_solver;
        if (request.rel_tol > 0.0 || request.max_iters > 0) {
            auto config = options_.solver;
            if (request.rel_tol > 0.0) {
                config.rel_tol = request.rel_tol;
            }
            if (request.max_iters > 0) {
                config.max_iters = request.max_iters;
            }
            override_solver = solvers::make_solver<T>(config);
            solver = override_solver.get();
        }
        response.x.assign(request.rhs.size(), T{});
        response.result =
            solver->solve(a_, std::span<const T>(request.rhs),
                          std::span<T>(response.x), *prec_);
        return response;
    }

    Engine& engine_;
    sparse::Csr<T> a_;
    SessionOptions options_;
    bool plan_shared_ = false;
    precond::PreconditionerPtr<T> prec_;
    solvers::SolverPtr<T> solver_;
    /// Serializes update/solve on this session's mutable state.
    std::mutex mutex_;
    double last_refresh_seconds_ = 0.0;
    /// In-flight async jobs of this session (destruction waits on them).
    std::mutex pending_mutex_;
    std::condition_variable pending_cv_;
    std::size_t pending_ = 0;
};

template <typename T>
using SessionPtr = std::unique_ptr<Session<T>>;

class Engine {
public:
    explicit Engine(EngineOptions options = {});
    /// Drains outstanding jobs, then closes the queue.
    ~Engine();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Open a tenant session for `a`. When share_symbolic is on (the
    /// default) and the preconditioner backend has a symbolic phase, the
    /// session adopts the cached plan for `a`'s pattern -- built on this
    /// call iff no same-pattern tenant came before.
    template <typename T>
    SessionPtr<T> open_session(sparse::Csr<T> a,
                               SessionOptions options = {}) {
        if (options.share_symbolic && options.precond.symbolic == nullptr) {
            options.precond.symbolic = cache_.acquire(a, options.precond);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++sessions_opened_;
        }
        obs::Registry::global().add("service.sessions", 1.0);
        return SessionPtr<T>(
            new Session<T>(*this, std::move(a), std::move(options)));
    }

    /// Block until every accepted job has completed.
    void drain();

    EngineStats stats() const;
    PlanCache& plan_cache() noexcept { return cache_; }
    std::size_t queue_capacity() const noexcept { return capacity_; }

private:
    template <typename U>
    friend class Session;

    /// Admission-controlled dispatch. True = accepted (the job went
    /// straight onto the pool and will run exactly once on a worker);
    /// false = rejected by policy.
    bool submit_job(std::function<void()> job);
    void finish_job();

    PlanCache cache_;
    std::size_t capacity_;
    Admission admission_;

    mutable std::mutex mutex_;
    std::condition_variable idle_cv_;
    std::size_t outstanding_ = 0;
    std::size_t sessions_opened_ = 0;
    std::size_t submitted_ = 0;
    std::size_t rejected_ = 0;
    std::size_t completed_ = 0;
    std::size_t peak_depth_ = 0;
};

template <typename T>
std::future<SolveResponse<T>> Session<T>::submit(SolveRequest<T> request) {
    auto promise = std::make_shared<std::promise<SolveResponse<T>>>();
    auto future = promise->get_future();
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        ++pending_;
    }
    Timer queued;
    const bool accepted = engine_.submit_job(
        [this, promise, queued, request = std::move(request)]() mutable {
            const double queue_wait = queued.seconds();
            SolveResponse<T> response = process(request);
            response.queue_seconds = queue_wait;
            promise->set_value(std::move(response));
            std::lock_guard<std::mutex> lock(pending_mutex_);
            if (--pending_ == 0) {
                pending_cv_.notify_all();
            }
        });
    if (!accepted) {
        SolveResponse<T> refused;
        refused.accepted = false;
        promise->set_value(std::move(refused));
        std::lock_guard<std::mutex> lock(pending_mutex_);
        if (--pending_ == 0) {
            pending_cv_.notify_all();
        }
    }
    return future;
}

}  // namespace vbatch::service
