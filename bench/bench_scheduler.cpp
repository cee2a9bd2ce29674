// Scheduler study: the work-stealing pool on the three axes it targets.
//
//   submit    fire-and-forget task throughput, fanned out from an
//             external thread (the injection queue) and from inside a
//             worker (the lock-free own-deque push).
//   nested    a parallel_for nested inside a pool task, against the
//             same lanes run as a plain sequential loop in a pool task.
//             The *overlap* series uses timed-wait bodies, so it
//             measures scheduler concurrency itself and transfers
//             across machines (including single-core CI runners); the
//             compute series is recorded for trajectory but is
//             hardware-bound and not gated.
//   service   mixed multi-tenant traffic through service::Engine;
//             p50/p95/p99 request latency.
//
// Only the nested overlap ratio goes into the committed baseline; the
// absolute submit and latency series stay artifact-only (the service
// tail is guarded end to end by perfbench's service_mixed p99s).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "base/statistics.hpp"
#include "base/thread_pool.hpp"
#include "base/timer.hpp"
#include "bench_common.hpp"
#include "obs/bench_report.hpp"
#include "service/engine.hpp"
#include "sparse/generators.hpp"

namespace vb = vbatch;

namespace {

/// Busy-wait for `target` to reach `want` (sub-millisecond completion
/// latencies would drown in a condvar round-trip).
void spin_until(const std::atomic<int>& target, int want) {
    while (target.load(std::memory_order_acquire) < want) {
        std::this_thread::yield();
    }
}

std::vector<double> tenant_values(const vb::sparse::Csr<double>& a,
                                  std::size_t tenant) {
    std::vector<double> v(a.values().begin(), a.values().end());
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] *= 1.0 + 1e-3 * static_cast<double>((i + 3 * tenant) % 7);
    }
    return v;
}

}  // namespace

int main() {
    const bool quick = vb::bench::quick_mode();
    auto& pool = vb::ThreadPool::global();
    const auto threads = pool.size();

    vb::obs::BenchReport report("scheduler");
    report.config("quick", quick);
    report.config("threads", static_cast<vb::size_type>(threads));

    // -- Scenario 1: task-submit throughput ----------------------------
    const int num_tasks = quick ? 4000 : 40000;
    const int reps = quick ? 3 : 5;
    report.config("submit_tasks", static_cast<vb::size_type>(num_tasks));

    vb::bench::print_header("Submit throughput | no-op tasks");
    std::printf("%16s %16s\n", "external (t/s)", "from-worker (t/s)");

    const auto submit_rate = [&](bool from_worker) {
        double best = 0.0;
        for (int r = 0; r < reps; ++r) {
            std::atomic<int> ran{0};
            const auto fan_out = [&] {
                for (int i = 0; i < num_tasks; ++i) {
                    pool.submit([&ran] {
                        ran.fetch_add(1, std::memory_order_release);
                    });
                }
            };
            vb::Timer timer;
            if (from_worker) {
                pool.submit(fan_out);
            } else {
                fan_out();
            }
            spin_until(ran, num_tasks);
            best = std::max(best,
                            static_cast<double>(num_tasks) / timer.seconds());
        }
        return best;
    };

    const double external = submit_rate(false);
    const double from_worker = submit_rate(true);
    std::printf("%16.0f %16.0f\n", external, from_worker);
    report.series("submit_throughput/external", "tasks",
                  {{static_cast<double>(num_tasks), external}}, "tasks/s");
    report.series("submit_throughput/from_worker", "tasks",
                  {{static_cast<double>(num_tasks), from_worker}},
                  "tasks/s");

    // -- Scenario 2: nested parallel_for inside a pool task ------------
    // Overlap series: each lane waits a fixed interval, so wall time
    // divides by however many lanes the scheduler actually overlaps --
    // a pure concurrency probe, independent of core count. The inline
    // reference runs the lanes as a plain loop inside one pool task
    // (wall = lanes * interval); the nested parallel_for spreads them
    // over idle workers (wall ~ interval).
    const int lanes = 8;
    const auto lane_wait = std::chrono::milliseconds(2);
    const int nested_reps = quick ? 5 : 9;
    report.config("nested_lanes", static_cast<vb::size_type>(lanes));

    const auto lane = [&](vb::size_type i, bool compute,
                          std::atomic<std::uint64_t>& sink) {
        if (compute) {
            // FNV-ish churn, sized so one lane takes on the order of the
            // wait interval.
            std::uint64_t h =
                1469598103934665603ull + static_cast<std::uint64_t>(i);
            for (int k = 0; k < 400000; ++k) {
                h = (h ^ static_cast<std::uint64_t>(k)) * 1099511628211ull;
            }
            sink.fetch_add(h, std::memory_order_relaxed);
        } else {
            const auto t0 = std::chrono::steady_clock::now();
            while (std::chrono::steady_clock::now() - t0 < lane_wait) {
                std::this_thread::yield();
            }
        }
    };

    const auto nested_wall = [&](bool nested, bool compute) {
        double best = 1e300;
        for (int r = 0; r < nested_reps; ++r) {
            std::atomic<int> done{0};
            std::atomic<std::uint64_t> sink{0};
            vb::Timer timer;
            pool.submit([&] {
                if (nested) {
                    pool.parallel_for(
                        0, lanes,
                        [&](vb::size_type i) { lane(i, compute, sink); },
                        1);
                } else {
                    for (vb::size_type i = 0; i < lanes; ++i) {
                        lane(i, compute, sink);
                    }
                }
                done.fetch_add(1, std::memory_order_release);
            });
            spin_until(done, 1);
            best = std::min(best, timer.seconds());
        }
        return best;
    };

    vb::bench::print_header("Nested parallel_for | inside a pool task");
    std::printf("%10s %14s %14s\n", "series", "inline (s)", "nested (s)");
    const double overlap_inline = nested_wall(false, false);
    const double overlap_nested = nested_wall(true, false);
    const double compute_inline = nested_wall(false, true);
    const double compute_nested = nested_wall(true, true);
    const double overlap_speedup = overlap_inline / overlap_nested;
    const double compute_speedup = compute_inline / compute_nested;
    std::printf("%10s %14.6f %14.6f  (%.2fx)\n", "overlap", overlap_inline,
                overlap_nested, overlap_speedup);
    std::printf("%10s %14.6f %14.6f  (%.2fx)\n", "compute", compute_inline,
                compute_nested, compute_speedup);

    report.series("nested_wall/overlap_inline", "lanes",
                  {{static_cast<double>(lanes), overlap_inline}}, "seconds");
    report.series("nested_wall/overlap_nested", "lanes",
                  {{static_cast<double>(lanes), overlap_nested}}, "seconds");
    // The gated headline: nested work must actually reach idle workers.
    report.series("nested_speedup/overlap_vs_inline", "lanes",
                  {{static_cast<double>(lanes), overlap_speedup}}, "x");
    // Hardware-bound (== 1 on a single-core machine): artifact only.
    report.series("nested_speedup/compute_vs_inline", "lanes",
                  {{static_cast<double>(lanes), compute_speedup}}, "x");
    report.config("overlap_speedup", overlap_speedup);

    // -- Scenario 3: service mixed traffic -----------------------------
    const auto pattern = vb::sparse::fem_block_matrix<double>(
        quick ? 24 : 64, 2, 8, 2, 0.25, /*seed=*/101);
    const int num_tenants = 3;
    const int clients = 2;
    const int requests_per_client = quick ? 8 : 32;
    report.config("tenants", static_cast<vb::size_type>(num_tenants));
    report.config("clients", static_cast<vb::size_type>(clients));
    report.config("requests_per_client",
                  static_cast<vb::size_type>(requests_per_client));

    vb::service::SessionOptions soptions;
    soptions.precond.backend = "lu";
    soptions.precond.max_block_size = 16;
    soptions.solver.method = "idr";
    soptions.solver.rel_tol = 1e-6;
    soptions.solver.max_iters = 2000;

    vb::service::Engine engine;
    std::vector<vb::service::SessionPtr<double>> sessions;
    for (int t = 0; t < num_tenants; ++t) {
        auto a = pattern;
        a.set_values(std::span<const double>(
            tenant_values(pattern, static_cast<std::size_t>(t))));
        sessions.push_back(engine.open_session(std::move(a), soptions));
    }

    vb::bench::print_header("Service traffic | p50/p95/p99");
    std::printf("%12s %12s %12s\n", "p50 (s)", "p95 (s)", "p99 (s)");

    const auto traffic_percentiles = [&] {
        std::vector<std::vector<double>> latencies(
            static_cast<std::size_t>(clients));
        std::vector<std::thread> drivers;
        for (int c = 0; c < clients; ++c) {
            drivers.emplace_back([&, c] {
                auto& lat = latencies[static_cast<std::size_t>(c)];
                for (int r = 0; r < requests_per_client; ++r) {
                    auto& session =
                        *sessions[static_cast<std::size_t>(c + r) %
                                  sessions.size()];
                    vb::service::SolveRequest<double> request;
                    if (r % 3 == 0) {
                        request.values = tenant_values(
                            session.matrix(),
                            static_cast<std::size_t>(c + r));
                    }
                    request.rhs.assign(
                        static_cast<std::size_t>(session.num_rows()), 1.0);
                    vb::Timer t;
                    auto response =
                        session.submit(std::move(request)).get();
                    if (response.accepted) {
                        lat.push_back(t.seconds());
                    }
                }
            });
        }
        for (auto& d : drivers) {
            d.join();
        }
        engine.drain();
        std::vector<double> all;
        for (auto& lat : latencies) {
            all.insert(all.end(), lat.begin(), lat.end());
        }
        return vb::summarize(std::move(all));
    };

    // Warm once (plans resident, pool pages touched), then measure.
    (void)traffic_percentiles();
    const auto latency = traffic_percentiles();
    std::printf("%12.6f %12.6f %12.6f\n", latency.p50, latency.p95,
                latency.p99);
    report.series("service_latency", "percentile",
                  {{50.0, latency.p50},
                   {95.0, latency.p95},
                   {99.0, latency.p99}},
                  "seconds");

    if (overlap_speedup < 1.5) {
        std::printf("WARNING: nested overlap speedup %.2fx below the 1.5x "
                    "target\n",
                    overlap_speedup);
    }

    report.write_if_enabled();
    return 0;
}
