#include "base/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "base/macros.hpp"
#include "obs/trace.hpp"

namespace vbatch {

namespace {

/// Set while the current thread runs a parallel_for body or a submitted
/// task (worker or participating caller); feeds in_worker().
thread_local bool t_in_parallel_body = false;

/// Set while an enclosing run_range/run_task is already charging
/// this thread's wall time to a participant stat slot; nested units then
/// skip busy_ns (their time is inside the enclosing measurement) but
/// still count their chunks.
thread_local bool t_busy_timed = false;

/// The calling thread's scheduling home on a particular pool: its deque
/// slot and telemetry slot. Workers bind permanently in worker_loop;
/// external threads bind for the duration of a root stealing
/// parallel_for via a leased slot. Saved/restored around cross-pool
/// calls, so a worker of pool A doing a root parallel_for on pool B
/// binds to B only for that call.
struct Binding {
    const void* pool = nullptr;
    std::size_t slot = 0;
    std::size_t stat_slot = 0;
};
thread_local Binding t_binding;

/// Per-thread xorshift state for randomized steal-victim selection
/// (decorrelates thieves so they do not all hammer slot 0).
thread_local std::uint64_t t_rng_state = 0;

std::uint64_t next_rng(std::size_t seed_hint) {
    if (t_rng_state == 0) {
        t_rng_state = 0x9e3779b97f4a7c15ull ^
                      (static_cast<std::uint64_t>(seed_hint) + 1);
    }
    std::uint64_t x = t_rng_state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t_rng_state = x;
    return x;
}

/// VBATCH_THREADS: positive integer = exact pool size for the global
/// pool; unset/invalid = hardware_concurrency().
unsigned env_thread_count() {
    const char* env = std::getenv("VBATCH_THREADS");
    if (env == nullptr || env[0] == '\0') {
        return 0;
    }
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed <= 0 || parsed > 1024) {
        return 0;
    }
    return static_cast<unsigned>(parsed);
}

/// Arms telemetry at startup when VBATCH_POOL_STATS is set (mirrors the
/// tracer's env probe).
struct PoolStatsEnvProbe {
    PoolStatsEnvProbe() {
        const char* v = std::getenv("VBATCH_POOL_STATS");
        if (v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0')) {
            detail::g_pool_stats_on.store(true, std::memory_order_relaxed);
        }
    }
};
const PoolStatsEnvProbe pool_stats_env_probe{};

std::uint64_t to_ns(std::chrono::steady_clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// How long a thread that ran out of work spins before it parks on cv_.
/// One park plus the publisher's futex wake costs a few tens of µs end
/// to end, so a wait that resolves within about one such round trip is
/// cheaper spun than slept; past that, the thread releases the CPU.
constexpr std::chrono::microseconds spin_before_park{50};

/// Spin-wait hint: lets the sibling hyperthread run and saves power.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/// Spin until done() holds or spin_before_park has elapsed; true when
/// done() held. The second half of the budget yields the core on every
/// round, so on an oversubscribed host (more pool threads than cores,
/// ctest -j) the spinner does not starve the thread doing the work.
template <typename Done>
bool spin_until(const Done& done) {
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    const auto tail = start + spin_before_park / 2;
    const auto deadline = start + spin_before_park;
    for (;;) {
        for (int i = 0; i < 16; ++i) {
            if (done()) {
                return true;
            }
            cpu_relax();
        }
        const auto now = clock::now();
        if (now >= deadline) {
            return done();
        }
        if (now >= tail) {
            std::this_thread::yield();
        }
    }
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads)
    : epoch_(std::chrono::steady_clock::now()) {
    if (num_threads == 0) {
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    stats_ = std::make_unique<ParticipantStat[]>(num_threads);
    const std::size_t num_workers = num_threads - 1;
    num_slots_ = num_workers + external_slots;
    slots_ = std::make_unique<Slot[]>(num_slots_);
    // The calling thread always participates, so spawn one fewer worker.
    workers_.reserve(num_workers);
    for (unsigned i = 0; i + 1 < num_threads; ++i) {
        workers_.emplace_back([this, i] {
            obs::set_thread_name("vbatch-worker-" + std::to_string(i + 1));
            worker_loop(i + 1);
        });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
        shutdown_flag_.store(true, std::memory_order_release);
    }
    wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
    cv_.notify_all();
    for (auto& w : workers_) {
        w.join();
    }
    // Workers bail out on shutdown even with tasks still queued; honor
    // the submit() contract (no task is ever lost) by draining the
    // leftovers here, single-threaded: first the injection queue, then
    // every per-worker task deque (safe now that all other threads are
    // joined).
    while (!tasks_.empty()) {
        auto node = std::move(tasks_.front());
        tasks_.pop_front();
        run_task(node->fn, 0);
    }
    for (std::size_t s = 0; s < num_slots_; ++s) {
        while (TaskNode* node = slots_[s].tasks.pop()) {
            run_task(node->fn, 0);
            delete node;
        }
        // Range records live in their (stack-held, joined) job and
        // cannot legitimately outlive it; drop any stragglers unread.
        while (slots_[s].ranges.pop() != nullptr) {
        }
    }
    if (is_global_source_) {
        obs::Registry::global().set_pool_telemetry_source(nullptr);
    }
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool(env_thread_count());
    // Expose the global pool to the metrics registry exactly once so
    // bench JSON embeds pool utilization without obs/ linking base/.
    static const bool registered = [] {
        pool.is_global_source_ = true;
        obs::Registry::global().set_pool_telemetry_source(
            +[]() { return ThreadPool::global().telemetry(); });
        return true;
    }();
    (void)registered;
    return pool;
}

bool ThreadPool::in_worker() noexcept { return t_in_parallel_body; }

void ThreadPool::set_stats_enabled(bool on) noexcept {
    detail::g_pool_stats_on.store(on, std::memory_order_relaxed);
}

size_type ThreadPool::check_range(size_type begin, size_type end) {
    (void)begin;
    (void)end;
    VBATCH_ENSURE(false, "empty or reversed range");
    std::abort();  // unreachable; ENSURE throws
}

// ---------------------------------------------------------------------
// Wake protocol
// ---------------------------------------------------------------------

void ThreadPool::publish_wake() {
    wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
    // A thread still in its spin phase is not in sleepers_: it watches
    // the epoch directly, so the bump above is all it needs and the
    // common publish (every waiter spinning) costs no syscall.
    // Dekker-style handshake with park()/join_job(): a sleeper first
    // increments sleepers_ (seq_cst), then re-reads the epoch before
    // blocking. If we read sleepers_ == 0 here, the sleeper's increment
    // is later in the seq_cst order than our epoch bump, so its re-read
    // sees the new epoch and it never blocks. If we read > 0, the
    // notify below (taken after the mutex, so ordered with the
    // sleeper's predicate check) wakes it.
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
        { std::lock_guard<std::mutex> lock(mutex_); }
        cv_.notify_all();
    }
}

bool ThreadPool::park(std::uint64_t seen_epoch) {
    if (pool_stats_on()) {
        parks_.fetch_add(1, std::memory_order_relaxed);
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
            return shutdown_ || !tasks_.empty() ||
                   wake_epoch_.load(std::memory_order_seq_cst) !=
                       seen_epoch;
        });
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return !shutdown_flag_.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------
// Range execution, stealing and joins
// ---------------------------------------------------------------------

void ThreadPool::run_range(StealJob& job, size_type lo, size_type hi,
                           std::size_t slot, std::size_t stat_slot) {
    const size_type grain = job.grain;
    const bool was_in_body = t_in_parallel_body;
    t_in_parallel_body = true;
    const bool stats = pool_stats_on();
    const bool timer = stats && !t_busy_timed;
    if (timer) {
        t_busy_timed = true;
    }
    const auto t0 = timer ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    std::uint64_t chunks = 0;
    while (lo < hi) {
        if (hi - lo > grain && slots_[slot].ranges.empty()) {
            // Lazy binary split: our deque being empty means thieves (or
            // our own progress) consumed everything stealable, so expose
            // the upper half. The midpoint is grain-aligned relative to
            // the job origin, so every executed chunk is exactly
            // [origin + m*grain, min(origin + (m+1)*grain, n)) for some m,
            // however the range was split or stolen -- the determinism
            // invariant.
            if (RangeTask* split = job.take_split_record()) {
                const size_type nchunks = (hi - lo + grain - 1) / grain;
                const size_type mid = lo + (nchunks / 2) * grain;
                *split = RangeTask{&job, mid, hi};
                slots_[slot].ranges.push(split);
                if (stats) {
                    splits_.fetch_add(1, std::memory_order_relaxed);
                }
                publish_wake();
                hi = mid;
                continue;
            }
        }
        const size_type chunk_hi = std::min(lo + grain, hi);
        for (size_type k = lo; k < chunk_hi; ++k) {
            job.body(job.begin + k);
        }
        const size_type done = chunk_hi - lo;
        lo = chunk_hi;
        ++chunks;
        if (job.remaining.fetch_sub(done, std::memory_order_acq_rel) ==
            done) {
            // Last iterations of the whole job just retired: wake the
            // root's join. Only pool-owned state is touched from here
            // on -- the joiner may already be destroying the job.
            publish_wake();
        }
    }
    t_in_parallel_body = was_in_body;
    if (stats) {
        if (timer) {
            t_busy_timed = false;
            stats_[stat_slot].busy_ns.fetch_add(
                to_ns(std::chrono::steady_clock::now() - t0),
                std::memory_order_relaxed);
        }
        stats_[stat_slot].chunks.fetch_add(chunks,
                                           std::memory_order_relaxed);
    }
}

void ThreadPool::execute_range(const RangeTask* task, std::size_t slot,
                               std::size_t stat_slot) {
    run_range(*task->job, task->lo, task->hi, slot, stat_slot);
}

bool ThreadPool::run_one_own_range(std::size_t slot,
                                   std::size_t stat_slot) {
    RangeTask* task = slots_[slot].ranges.pop();
    if (task == nullptr) {
        return false;
    }
    execute_range(task, slot, stat_slot);
    return true;
}

int ThreadPool::try_steal_range(std::size_t slot, std::size_t stat_slot) {
    bool contended = false;
    const std::size_t n = num_slots_;
    const std::size_t start =
        static_cast<std::size_t>(next_rng(slot) % n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t victim = (start + k) % n;
        if (victim == slot) {
            continue;
        }
        RangeTask* task = nullptr;
        switch (slots_[victim].ranges.steal(&task)) {
        case StealResult::got:
            if (pool_stats_on()) {
                steals_.fetch_add(1, std::memory_order_relaxed);
            }
            execute_range(task, slot, stat_slot);
            return 1;
        case StealResult::abort:
            contended = true;
            if (pool_stats_on()) {
                steal_fails_.fetch_add(1, std::memory_order_relaxed);
            }
            break;
        case StealResult::empty:
            break;
        }
    }
    return contended ? -1 : 0;
}

int ThreadPool::try_steal_task(std::size_t slot, std::size_t stat_slot) {
    bool contended = false;
    const std::size_t n = num_slots_;
    const std::size_t start =
        static_cast<std::size_t>(next_rng(slot) % n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t victim = (start + k) % n;
        if (victim == slot) {
            continue;
        }
        TaskNode* node = nullptr;
        switch (slots_[victim].tasks.steal(&node)) {
        case StealResult::got:
            if (pool_stats_on()) {
                steals_.fetch_add(1, std::memory_order_relaxed);
            }
            run_task(node->fn, stat_slot);
            delete node;
            return 1;
        case StealResult::abort:
            contended = true;
            if (pool_stats_on()) {
                steal_fails_.fetch_add(1, std::memory_order_relaxed);
            }
            break;
        case StealResult::empty:
            break;
        }
    }
    return contended ? -1 : 0;
}

bool ThreadPool::run_one_injected_task(std::size_t stat_slot) {
    std::unique_ptr<TaskNode> node;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (tasks_.empty()) {
            return false;
        }
        node = std::move(tasks_.front());
        tasks_.pop_front();
    }
    run_task(node->fn, stat_slot);
    return true;
}

void ThreadPool::join_job(StealJob& job, std::size_t slot,
                          std::size_t stat_slot) {
    // Help until every iteration of `job` has retired. A joiner only
    // ever executes *range* tasks -- running a stolen function task here
    // could re-enter a lock the enclosing task already holds (e.g. two
    // same-session service jobs nested on one stack).
    for (;;) {
        if (job.remaining.load(std::memory_order_acquire) == 0) {
            return;
        }
        const std::uint64_t e0 =
            wake_epoch_.load(std::memory_order_seq_cst);
        if (run_one_own_range(slot, stat_slot)) {
            continue;
        }
        const int stole = try_steal_range(slot, stat_slot);
        if (stole != 0) {
            continue;  // ran something, or contended: rescan
        }
        // Clean all-empty sweep: the unfinished iterations are inside
        // other threads' run_range calls. They will either split (epoch
        // bump) or retire the last iteration (epoch bump), so waiting
        // on the epoch cannot miss the completion. The chunks in flight
        // are usually a few µs from done: spin first, park only if
        // they are not.
        if (spin_until([&] {
                return job.remaining.load(std::memory_order_acquire) == 0 ||
                       wake_epoch_.load(std::memory_order_acquire) != e0;
            })) {
            continue;
        }
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] {
                return wake_epoch_.load(std::memory_order_seq_cst) !=
                           e0 ||
                       job.remaining.load(std::memory_order_relaxed) ==
                           0;
            });
        }
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
}

std::size_t ThreadPool::acquire_external_slot() {
    for (std::size_t s = workers_.size(); s < num_slots_; ++s) {
        bool expected = false;
        if (slots_[s].leased.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
            return s;
        }
    }
    return num_slots_;  // all leased: caller falls back to inline
}

void ThreadPool::drain_leftover_ranges(std::size_t slot,
                                       std::size_t stat_slot) {
    // An exiting external joiner may hold ranges of *other* jobs it
    // split while helping. Its slot becomes owner-less on release, and
    // a stranded range would only move if some thread happened to sweep
    // past -- so execute them now. (Invariant: a non-empty deque always
    // has an active owner or an imminent thief.)
    while (run_one_own_range(slot, stat_slot)) {
    }
}

void ThreadPool::run_stealing(size_type begin, size_type end,
                              FunctionRef<void(size_type)> body,
                              size_type grain) {
    const size_type n = end - begin;
    std::size_t slot;
    std::size_t stat_slot;
    const Binding saved = t_binding;
    bool leased = false;
    if (t_binding.pool == this) {
        slot = t_binding.slot;
        stat_slot = t_binding.stat_slot;
    } else {
        slot = acquire_external_slot();
        if (slot == num_slots_) {
            // Every external slot is leased by a concurrent caller: run
            // inline. Correct (just not accelerated), and counted so
            // vbatch_prof shows the pressure.
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
        stat_slot = 0;
        t_binding = Binding{this, slot, stat_slot};
        leased = true;
    }
    StealJob job(body, begin, grain, n);
    run_range(job, 0, n, slot, stat_slot);
    join_job(job, slot, stat_slot);
    if (leased) {
        drain_leftover_ranges(slot, stat_slot);
        t_binding = saved;
        slots_[slot].leased.store(false, std::memory_order_release);
    }
    if (pool_stats_on()) {
        dispatches_.fetch_add(1, std::memory_order_relaxed);
    }
}

// ---------------------------------------------------------------------
// Tasks, telemetry and the worker loop
// ---------------------------------------------------------------------

void ThreadPool::note_inline_run(
    std::chrono::steady_clock::duration elapsed) {
    // Nested inline runs land on whatever participant is executing
    // (worker stat slots via the thread binding), not blindly on slot 0
    // -- that blindness was the old undercount that made nested work
    // invisible to vbatch_prof. busy_ns is skipped when an enclosing
    // unit is already charging this thread's time.
    const std::size_t s =
        t_binding.pool == this ? t_binding.stat_slot : 0;
    if (!t_busy_timed) {
        stats_[s].busy_ns.fetch_add(to_ns(elapsed),
                                    std::memory_order_relaxed);
    }
    stats_[s].chunks.fetch_add(1, std::memory_order_relaxed);
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::run_task(std::function<void()>& task,
                          std::size_t stat_slot) {
    // Tasks execute with the worker flag raised (in_worker()); nested
    // parallel_for calls dispatch normally.
    const bool was_in_body = t_in_parallel_body;
    t_in_parallel_body = true;
    const bool stats = pool_stats_on();
    const bool timer = stats && !t_busy_timed;
    if (timer) {
        t_busy_timed = true;
    }
    const auto t0 = timer ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    task();
    t_in_parallel_body = was_in_body;
    if (stats) {
        if (timer) {
            t_busy_timed = false;
            stats_[stat_slot].busy_ns.fetch_add(
                to_ns(std::chrono::steady_clock::now() - t0),
                std::memory_order_relaxed);
        }
        stats_[stat_slot].chunks.fetch_add(1, std::memory_order_relaxed);
    }
}

void ThreadPool::submit(std::function<void()> task) {
    VBATCH_ENSURE(task != nullptr, "null task submitted");
    if (workers_.empty()) {
        // No workers (size() == 1): run inline rather than queueing a
        // task nobody would drain before destruction.
        run_task(task, 0);
        return;
    }
    if (t_binding.pool == this && t_binding.slot < workers_.size()) {
        // Worker-side submit: lock-free push onto our own task deque.
        // (External threads use the injection queue below -- a leased
        // slot's deque loses its owner when the lease ends, so function
        // tasks never live there.)
        slots_[t_binding.slot].tasks.push(
            new TaskNode{std::move(task)});
        publish_wake();
        return;
    }
    bool queued = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!shutdown_) {
            tasks_.push_back(
                std::make_unique<TaskNode>(TaskNode{std::move(task)}));
            queued = true;
        }
    }
    if (queued) {
        publish_wake();
        return;
    }
    // Destructor already triggered: run inline rather than dropping.
    run_task(task, 0);
}

size_type ThreadPool::queued_tasks() const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_type n = static_cast<size_type>(tasks_.size());
    for (std::size_t s = 0; s < num_slots_; ++s) {
        n += slots_[s].tasks.approx_size();
    }
    return n;
}

void ThreadPool::worker_loop(std::size_t stat_slot) {
    const std::size_t slot = stat_slot - 1;
    t_binding = Binding{this, slot, stat_slot};
    // Priority: cache-hot own ranges, stolen ranges, own tasks, stolen
    // tasks, the injection queue -- and park only after a sweep that
    // saw everything empty with no steal contention.
    for (;;) {
        if (shutdown_flag_.load(std::memory_order_acquire)) {
            return;
        }
        const std::uint64_t e0 =
            wake_epoch_.load(std::memory_order_seq_cst);
        bool contended = false;
        bool progress = run_one_own_range(slot, stat_slot);
        if (!progress) {
            const int r = try_steal_range(slot, stat_slot);
            progress = r == 1;
            contended = r == -1;
        }
        if (!progress) {
            if (TaskNode* node = slots_[slot].tasks.pop()) {
                run_task(node->fn, stat_slot);
                delete node;
                progress = true;
            }
        }
        if (!progress) {
            const int r = try_steal_task(slot, stat_slot);
            progress = r == 1;
            contended = contended || r == -1;
        }
        if (!progress) {
            progress = run_one_injected_task(stat_slot);
        }
        if (progress || contended) {
            continue;
        }
        // Clean empty sweep. In a solver loop the next kernel is
        // usually published within µs: spin on the epoch first, and
        // park only when nothing arrives within spin_before_park.
        if (spin_until([&] {
                return wake_epoch_.load(std::memory_order_acquire) != e0 ||
                       shutdown_flag_.load(std::memory_order_acquire);
            })) {
            if (pool_stats_on()) {
                spin_wakes_.fetch_add(1, std::memory_order_relaxed);
            }
            continue;
        }
        if (!park(e0)) {
            return;
        }
    }
}

obs::PoolTelemetry ThreadPool::telemetry() const {
    obs::PoolTelemetry t;
    t.workers = size();
    t.armed = pool_stats_on();
    t.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
    double busy = 0.0;
    for (unsigned slot = 0; slot < size(); ++slot) {
        busy += static_cast<double>(
                    stats_[slot].busy_ns.load(std::memory_order_relaxed)) *
                1e-9;
    }
    t.busy_seconds = busy;
    const double capacity = t.wall_seconds * static_cast<double>(t.workers);
    t.idle_seconds = std::max(0.0, capacity - busy);
    t.utilization = capacity > 0.0 ? busy / capacity : 0.0;
    t.dispatches = static_cast<size_type>(
        dispatches_.load(std::memory_order_relaxed));
    t.inline_runs = static_cast<size_type>(
        inline_runs_.load(std::memory_order_relaxed));
    t.steals =
        static_cast<size_type>(steals_.load(std::memory_order_relaxed));
    t.steal_fails = static_cast<size_type>(
        steal_fails_.load(std::memory_order_relaxed));
    t.splits =
        static_cast<size_type>(splits_.load(std::memory_order_relaxed));
    t.parks =
        static_cast<size_type>(parks_.load(std::memory_order_relaxed));
    t.spin_wakes = static_cast<size_type>(
        spin_wakes_.load(std::memory_order_relaxed));
    return t;
}

}  // namespace vbatch
