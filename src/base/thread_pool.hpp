// Host scheduler for the batched kernels: a work-stealing thread pool
// behind one parallel_for/submit API.
//
// Every worker owns a pair of Chase-Lev deques (work_deque.hpp);
// external threads lease one for the duration of a root call.
// parallel_for publishes lazily split half-ranges that idle workers
// steal, so a call nested inside a pool task -- every service-layer
// solve -- spreads across idle threads instead of degrading to
// sequential execution. submit() pushes fire-and-forget tasks onto the
// submitting worker's own deque (lock-free) or, from external threads,
// onto a shared injection queue.
//
// Determinism is preserved by construction: the chunk decomposition of
// a parallel_for range is a pure function of (n, grain) -- grain-sized
// chunks at grain-aligned offsets -- and only the chunk->thread
// assignment is dynamic. Every parallel reduction in the tree
// (blas/blas1.hpp, sparse spmv) combines fixed-index per-chunk partials
// in order, so results are bitwise identical across thread counts and
// steal interleavings (proven cross-process by tests/determinism_probe
// fixtures over VBATCH_THREADS).
//
// Design notes (CP.4, CP.3): users submit *tasks* via parallel_for; the
// pool never exposes raw threads. parallel_for bodies must not share
// writable state across distinct indices -- the batched kernels satisfy
// this by construction because every batch entry owns a disjoint slice
// of the storage. Range subtasks carry only (job*, lo, hi), so any
// thread may execute any pending range: a blocked join helps by running
// stolen ranges. Fire-and-forget *function* tasks, in contrast, may
// take locks (a service job holds its session mutex), so they are only
// ever started from a worker's top-level loop, never from inside a
// join -- nesting two same-session jobs on one stack would self-deadlock.
//
// Hot-path properties of parallel_for:
//  - Ranges at or below one grain run inline on the calling thread: no
//    mutex, no wake, no type-erasure allocation. Small per-block solves
//    cost exactly the loop body (plus, when VBATCH_POOL_STATS is armed,
//    one relaxed stat update -- nested inline runs are accounted to the
//    executing participant's slot so vbatch_prof sees nested work).
//  - The callable is passed by FunctionRef, so no std::function is ever
//    constructed, and lazy splits use records inside the job frame, so a
//    dispatched parallel_for never touches the heap either.
//  - A thread that runs out of work (an idle worker, or a joiner whose
//    remaining chunks run elsewhere) spins for a bounded few tens of µs
//    before it parks, so back-to-back kernels of a few µs each do not
//    pay a futex park + wake per call.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/function_ref.hpp"
#include "base/types.hpp"
#include "base/work_deque.hpp"
#include "obs/metrics.hpp"

namespace vbatch {

namespace detail {
// Constant-initialized; flipped by ThreadPool::set_stats_enabled or the
// VBATCH_POOL_STATS env probe. Mirrors the tracer's arming flag: the
// disarmed hot-path cost is one relaxed load + branch.
inline std::atomic<bool> g_pool_stats_on{false};
}  // namespace detail

/// The dormant check: true when pool telemetry is being collected.
inline bool pool_stats_on() noexcept {
    return detail::g_pool_stats_on.load(std::memory_order_relaxed);
}

/// Shared parallel_for grain for loops whose iterations are single batch
/// entries (one tiny factorization or solve each). Small enough to load-
/// balance ragged batches, large enough that the per-chunk dispatch cost
/// is amortized. Every batch-entry loop must pass this grain so the
/// backends split work identically (getrf/trsv/block-Jacobi previously
/// disagreed: the preconditioner used 64 while the kernel drivers fell
/// back to the automatic n/(8*threads) choice).
inline constexpr size_type batch_entry_grain = 64;

class ThreadPool {
public:
    /// Create a pool with `num_threads` workers; 0 means
    /// hardware_concurrency() (at least 1).
    explicit ThreadPool(unsigned num_threads = 0);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool();

    unsigned size() const noexcept {
        return static_cast<unsigned>(workers_.size()) + 1;  // + caller
    }

    /// Run body(i) for every i in [begin, end). Blocks until all
    /// iterations are done. Iterations are distributed in contiguous
    /// chunks of `grain` (0 = choose automatically); the decomposition
    /// into chunks depends only on (n, grain), never on which thread
    /// runs a chunk. The calling thread participates. body must be safe
    /// to invoke concurrently for distinct i.
    ///
    /// Ranges that fit in one grain execute inline on the calling thread
    /// without paying for dispatch. Nested calls dispatch like any other
    /// and their half-ranges are stolen by idle workers.
    template <typename F>
    void parallel_for(size_type begin, size_type end, const F& body,
                      size_type grain = 0) {
        const size_type n = end >= begin ? end - begin
                                         : check_range(begin, end);
        if (n == 0) {
            return;
        }
        if (grain <= 0) {
            // Aim for ~8 chunks per participant to balance load without
            // excessive atomic traffic; never chop finer than a handful
            // of iterations, which would be pure dispatch overhead.
            grain = std::max<size_type>(auto_grain_floor,
                                        n / (8 * size()));
        }
        if (workers_.empty() || n <= grain) {
            if (pool_stats_on()) {
                const auto t0 = std::chrono::steady_clock::now();
                for (size_type i = begin; i < end; ++i) {
                    body(i);
                }
                note_inline_run(std::chrono::steady_clock::now() - t0);
                return;
            }
            for (size_type i = begin; i < end; ++i) {
                body(i);
            }
            return;
        }
        run_stealing(begin, end, FunctionRef<void(size_type)>(body), grain);
    }

    /// Enqueue an independent task for asynchronous execution by one
    /// worker. Returns immediately; there is no per-task completion
    /// handle (callers that need one wrap the task in a promise). Tasks
    /// must not throw. With no workers (size() == 1) the task runs
    /// inline before submit returns. Tasks still queued at destruction
    /// run on the destroying thread, so a submitted task is never lost.
    ///
    /// A submit from a pool worker pushes onto that worker's own deque
    /// (lock-free); external submitters go through the shared injection
    /// queue.
    void submit(std::function<void()> task);

    /// Tasks accepted by submit() but not yet started (diagnostics;
    /// includes per-worker deque contents).
    size_type queued_tasks() const;

    /// Threads currently blocked on the pool's condition variable, i.e.
    /// past their spin phase (diagnostics: an idle pool must drop to
    /// size() - 1 parked workers shortly after its last job).
    size_type parked_threads() const noexcept {
        return sleepers_.load(std::memory_order_relaxed);
    }

    /// The process-wide default pool. Sized by the VBATCH_THREADS
    /// environment variable when set to a positive integer, else to the
    /// hardware. Results of every vbatch parallel kernel are bitwise
    /// independent of the size (deterministic chunked decomposition +
    /// in-order combination), so it only trades latency, never accuracy.
    static ThreadPool& global();

    /// True while the calling thread is executing a parallel_for body or
    /// a submitted task on behalf of this process's pools.
    static bool in_worker() noexcept;

    /// Programmatic switch for busy/idle + steal/split/park collection
    /// (the VBATCH_POOL_STATS environment variable arms the same flag at
    /// startup). Counters accumulate from pool construction; arming
    /// mid-run under-reports utilization for the un-instrumented past.
    static void set_stats_enabled(bool on) noexcept;

    /// Snapshot this pool's utilization telemetry. Busy seconds, steal
    /// and dispatch counts are only collected while stats are armed;
    /// workers/wall_seconds are always valid.
    obs::PoolTelemetry telemetry() const;

private:
    /// Floor for the automatically chosen grain: below this many
    /// iterations per chunk the fetch_add + cache-miss cost of claiming
    /// a chunk rivals the work itself.
    static constexpr size_type auto_grain_floor = 16;

    /// Deque slots available to external (non-worker) threads whose
    /// root parallel_for needs a stealable home for its half-ranges.
    /// Concurrent external callers beyond this fall back to inline
    /// execution (correct, just not accelerated).
    static constexpr std::size_t external_slots = 16;

    struct StealJob;

    /// A stealable half-open range [lo, hi) of `job` (job-relative
    /// indices). Lives in the job's split records, so publishing a range
    /// never allocates.
    struct RangeTask {
        StealJob* job = nullptr;
        size_type lo = 0;
        size_type hi = 0;
    };

    /// Split records per job. Each lazy split exposes a distinct
    /// grain-aligned start, so a job of c chunks needs at most c - 1;
    /// splits only happen when a participant's deque has drained, so a
    /// job on a few dozen threads stays far below this. A job that does
    /// run out stops splitting and finishes the ranges it holds serially
    /// -- the chunk decomposition, and so the bits, are unchanged.
    static constexpr std::size_t max_splits_per_job = 128;

    /// One parallel_for in flight: lives on the root caller's stack for
    /// the duration of the (blocking) call, so range subtasks may refer
    /// to it by pointer. `remaining` counts not-yet-executed iterations;
    /// the thread that retires the last iteration publishes a pool-wide
    /// wake so the root's join can return. A published range always holds
    /// unretired iterations, so the job (and its split records) outlive
    /// every range a thread can claim.
    struct StealJob {
        StealJob(FunctionRef<void(size_type)> b, size_type begin_,
                 size_type grain_, size_type n)
            : body(b), begin(begin_), grain(grain_), remaining(n) {}
        /// Next free split record, or nullptr once all are taken.
        RangeTask* take_split_record() noexcept {
            const std::size_t i =
                used_splits.fetch_add(1, std::memory_order_relaxed);
            return i < max_splits_per_job ? &split_records[i] : nullptr;
        }
        const FunctionRef<void(size_type)> body;
        const size_type begin;
        const size_type grain;
        std::atomic<size_type> remaining;
        std::atomic<std::size_t> used_splits{0};
        std::array<RangeTask, max_splits_per_job> split_records;
    };

    /// A fire-and-forget task node (owning; freed by the executor).
    struct TaskNode {
        std::function<void()> fn;
    };

    /// Per-thread scheduling home: a range deque (parallel_for splits)
    /// and a task deque (worker-submitted function tasks). Workers own
    /// slots [0, workers); external root callers lease slots beyond
    /// that. Cache-line aligned so owner push/pop never false-shares
    /// with a neighbour.
    struct alignas(64) Slot {
        WorkDeque<RangeTask> ranges;
        WorkDeque<TaskNode> tasks;
        std::atomic<bool> leased{false};  // external slots only
    };

    /// Per-participant telemetry slot (slot 0 = external callers /
    /// inline fast path, slot i+1 = worker i). Cache-line sized so
    /// armed recording never bounces lines between participants.
    struct alignas(64) ParticipantStat {
        std::atomic<std::uint64_t> busy_ns{0};
        std::atomic<std::uint64_t> chunks{0};
    };

    [[noreturn]] static size_type check_range(size_type begin,
                                              size_type end);
    void run_stealing(size_type begin, size_type end,
                      FunctionRef<void(size_type)> body, size_type grain);
    void worker_loop(std::size_t stat_slot);
    void run_task(std::function<void()>& task, std::size_t stat_slot);
    void note_inline_run(std::chrono::steady_clock::duration elapsed);
    void run_range(StealJob& job, size_type lo, size_type hi,
                   std::size_t slot, std::size_t stat_slot);
    void execute_range(const RangeTask* task, std::size_t slot,
                       std::size_t stat_slot);
    void join_job(StealJob& job, std::size_t slot, std::size_t stat_slot);
    bool run_one_own_range(std::size_t slot, std::size_t stat_slot);
    /// 1 = ran something, 0 = all observably empty, -1 = contended
    /// (lost a CAS race; do not park, rescan instead).
    int try_steal_range(std::size_t slot, std::size_t stat_slot);
    int try_steal_task(std::size_t slot, std::size_t stat_slot);
    bool run_one_injected_task(std::size_t stat_slot);
    void drain_leftover_ranges(std::size_t slot, std::size_t stat_slot);
    std::size_t acquire_external_slot();
    void publish_wake();
    bool park(std::uint64_t seen_epoch);  // false = shutting down

    std::vector<std::thread> workers_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool shutdown_ = false;                   // guarded by mutex_
    std::atomic<bool> shutdown_flag_{false};  // lock-free mirror
    std::deque<std::unique_ptr<TaskNode>> tasks_;  // guarded by mutex_
    /// Bumped on every publish (task, split, completion, shutdown);
    /// parked threads re-scan when it moves. The epoch is read before
    /// scanning and re-checked under mutex_ before sleeping, which
    /// closes the publish/park race without a lock on the publish fast
    /// path when nobody sleeps.
    std::atomic<std::uint64_t> wake_epoch_{0};
    std::atomic<int> sleepers_{0};

    std::unique_ptr<Slot[]> slots_;  // workers_.size() + external_slots
    std::size_t num_slots_ = 0;

    // -- telemetry (relaxed atomics; written only while armed) --------
    std::unique_ptr<ParticipantStat[]> stats_;  // size() slots
    std::atomic<std::uint64_t> dispatches_{0};
    std::atomic<std::uint64_t> inline_runs_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> steal_fails_{0};
    std::atomic<std::uint64_t> splits_{0};
    std::atomic<std::uint64_t> parks_{0};
    std::atomic<std::uint64_t> spin_wakes_{0};
    std::chrono::steady_clock::time_point epoch_;
    bool is_global_source_ = false;  // set once for the global pool
};

}  // namespace vbatch
