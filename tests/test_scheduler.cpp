// Work-stealing scheduler tests: the Chase-Lev deque's exactly-once
// contract under a multi-thief storm (the TSan target of the CI
// sanitizer job), pool teardown with work still queued, nested
// parallel_for storms, external root callers, telemetry and parking.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.hpp"
#include "base/types.hpp"
#include "base/work_deque.hpp"

namespace {

using vbatch::size_type;
using vbatch::StealResult;
using vbatch::ThreadPool;
using vbatch::WorkDeque;

struct Item {
    std::atomic<int> taken{0};
};

TEST(WorkDeque, OwnerLifoThiefFifo) {
    WorkDeque<Item> dq;
    std::vector<Item> items(3);
    for (auto& item : items) {
        dq.push(&item);
    }
    EXPECT_EQ(dq.approx_size(), 3);
    // Owner pops the most recently pushed...
    EXPECT_EQ(dq.pop(), &items[2]);
    // ...while a thief takes the oldest.
    Item* stolen = nullptr;
    EXPECT_EQ(dq.steal(&stolen), StealResult::got);
    EXPECT_EQ(stolen, &items[0]);
    EXPECT_EQ(dq.pop(), &items[1]);
    EXPECT_EQ(dq.pop(), nullptr);
    EXPECT_EQ(dq.steal(&stolen), StealResult::empty);
    EXPECT_TRUE(dq.empty());
}

TEST(WorkDeque, GrowsPastInitialCapacity) {
    WorkDeque<Item> dq(8);
    const std::size_t n = 1000;
    std::vector<Item> items(n);
    for (auto& item : items) {
        dq.push(&item);
    }
    EXPECT_GE(dq.capacity(), n);
    EXPECT_EQ(dq.approx_size(), static_cast<size_type>(n));
    // LIFO drain returns every item exactly once, newest first.
    for (std::size_t i = n; i-- > 0;) {
        EXPECT_EQ(dq.pop(), &items[i]);
    }
    EXPECT_EQ(dq.pop(), nullptr);
}

// The TSan centerpiece: one owner interleaving push/pop against a storm
// of thieves, with the ring forced to grow under load (tiny initial
// capacity). Every item must be taken exactly once, by whoever.
TEST(WorkDeque, StressOwnerVsThiefStorm) {
    constexpr std::size_t num_items = 20000;
    constexpr int num_thieves = 4;
    WorkDeque<Item> dq(8);
    std::vector<Item> items(num_items);
    std::atomic<bool> done{false};
    std::atomic<std::size_t> taken_total{0};

    const auto take = [&](Item* item) {
        ASSERT_NE(item, nullptr);
        EXPECT_EQ(item->taken.fetch_add(1, std::memory_order_relaxed), 0);
        taken_total.fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> thieves;
    thieves.reserve(num_thieves);
    for (int t = 0; t < num_thieves; ++t) {
        thieves.emplace_back([&] {
            while (!done.load(std::memory_order_acquire)) {
                Item* item = nullptr;
                if (dq.steal(&item) == StealResult::got) {
                    take(item);
                }
            }
        });
    }

    // Owner: bursts of pushes interleaved with pops, so the deque cycles
    // through empty, one-element (the pop/steal race window), and
    // grow-triggering states.
    std::size_t pushed = 0;
    while (pushed < num_items) {
        const std::size_t burst = 1 + pushed % 7;
        for (std::size_t k = 0; k < burst && pushed < num_items; ++k) {
            dq.push(&items[pushed++]);
        }
        if (pushed % 3 != 0) {
            if (Item* item = dq.pop()) {
                take(item);
            }
        }
    }
    while (Item* item = dq.pop()) {
        take(item);
    }
    // Items the thieves grabbed between our last pop and now are already
    // counted; wait for the tally to close before stopping them.
    while (taken_total.load(std::memory_order_acquire) < num_items) {
        std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    for (auto& t : thieves) {
        t.join();
    }

    EXPECT_EQ(taken_total.load(), num_items);
    for (auto& item : items) {
        EXPECT_EQ(item.taken.load(), 1);
    }
}

// Destroying a pool with tasks still queued must run every task exactly
// once (the submit() never-lost contract), both those in the injection
// queue (external submits) and those sitting in per-worker deques
// because workers submitted them.
TEST(Scheduler, TeardownRunsQueuedTasks) {
    constexpr int num_tasks = 64;
    std::vector<std::atomic<int>> ran(num_tasks);
    {
        ThreadPool pool(4);
        for (int i = 0; i < num_tasks; ++i) {
            pool.submit([&ran, &pool, i] {
                ran[static_cast<std::size_t>(i)].fetch_add(
                    1, std::memory_order_relaxed);
                // Worker-side resubmission exercises the own-deque push
                // path.
                if (i % 8 == 0) {
                    pool.submit([] {});
                }
            });
        }
    }  // ~ThreadPool drains whatever has not run yet
    for (int i = 0; i < num_tasks; ++i) {
        EXPECT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
            << "task " << i;
    }
}

// Many tasks, each running a nested parallel_for, all on a small pool:
// the deadlock-prone shape (joins inside workers stealing from each
// other). Every (task, index) pair must execute exactly once.
TEST(Scheduler, NestedParallelForStorm) {
    constexpr int num_tasks = 24;
    constexpr int range = 512;
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(
        static_cast<std::size_t>(num_tasks * range));
    std::atomic<int> tasks_done{0};
    for (int t = 0; t < num_tasks; ++t) {
        pool.submit([&, t] {
            pool.parallel_for(
                0, range,
                [&](size_type i) {
                    hits[static_cast<std::size_t>(t * range + i)].fetch_add(
                        1, std::memory_order_relaxed);
                },
                16);
            tasks_done.fetch_add(1, std::memory_order_release);
        });
    }
    while (tasks_done.load(std::memory_order_acquire) < num_tasks) {
        std::this_thread::yield();
    }
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

// External (non-worker) threads doing root parallel_for concurrently
// exercise the leased external deque slots and their exit-drain path.
TEST(Scheduler, ConcurrentExternalRootCalls) {
    constexpr int num_clients = 6;
    constexpr int range = 1024;
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(
        static_cast<std::size_t>(num_clients * range));
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (int c = 0; c < num_clients; ++c) {
        clients.emplace_back([&, c] {
            pool.parallel_for(
                0, range,
                [&](size_type i) {
                    hits[static_cast<std::size_t>(c * range + i)].fetch_add(
                        1, std::memory_order_relaxed);
                },
                8);
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

// Steal/split/park counters flow into PoolTelemetry when armed.
TEST(Scheduler, TelemetryCountsStealActivity) {
    ThreadPool::set_stats_enabled(true);
    ThreadPool pool(4);
    std::atomic<std::int64_t> sum{0};
    for (int rep = 0; rep < 8; ++rep) {
        pool.parallel_for(
            0, 4096,
            [&](size_type i) {
                sum.fetch_add(i % 3, std::memory_order_relaxed);
            },
            16);
    }
    const auto t = pool.telemetry();
    ThreadPool::set_stats_enabled(false);
    EXPECT_TRUE(t.armed);
    EXPECT_EQ(t.workers, 4);
    EXPECT_EQ(t.dispatches, 8);
    // Lazy splitting must have exposed work; on a loaded 1-core CI
    // machine thieves may or may not win races, so only splits are a
    // hard guarantee (the root splits as soon as its deque drains).
    EXPECT_GT(t.splits, 0);
    EXPECT_GE(t.steals, 0);
    EXPECT_GE(t.steal_fails, 0);
    EXPECT_GE(t.parks, 0);
}

// The spin before parking is bounded: after a parallel_for and a sleep
// far longer than the spin bound (tens of µs), every worker has parked
// and released its CPU. The poll only absorbs a descheduled worker on
// an oversubscribed host.
TEST(Scheduler, IdleWorkersParkAfterSpinning) {
    ThreadPool::set_stats_enabled(true);
    ThreadPool pool(4);
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(
        0, 4096,
        [&](size_type i) { sum.fetch_add(i, std::memory_order_relaxed); },
        16);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (pool.parked_threads() < 3 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const auto t = pool.telemetry();
    ThreadPool::set_stats_enabled(false);
    EXPECT_EQ(sum.load(), std::int64_t{4096} * 4095 / 2);
    EXPECT_EQ(pool.parked_threads(), 3);
    EXPECT_GE(t.parks, 3);
}

// Nested inline runs (n <= grain inside a participating thread) must
// show up in inline_runs and the busy accounting instead of vanishing
// from vbatch_prof's utilization table.
TEST(Scheduler, NestedInlineRunsAreAccounted) {
    ThreadPool::set_stats_enabled(true);
    ThreadPool pool(2);
    const auto before = pool.telemetry();
    std::atomic<int> total{0};
    pool.parallel_for(
        0, 4,
        [&](size_type) {
            // Nested call, n <= grain: the inline fast path inside a
            // participating thread.
            pool.parallel_for(
                0, 2,
                [&](size_type) {
                    total.fetch_add(1, std::memory_order_relaxed);
                },
                8);
        },
        1);
    const auto after = pool.telemetry();
    ThreadPool::set_stats_enabled(false);
    EXPECT_EQ(total.load(), 8);
    EXPECT_GE(after.inline_runs - before.inline_runs, 4);
    EXPECT_GT(after.busy_seconds, 0.0);
}

}  // namespace
