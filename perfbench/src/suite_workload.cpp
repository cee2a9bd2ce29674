// The Fig. 9 workloads: on every matrix of the workload's list, a cold
// setup, one solve with an all-ones right-hand side, then a fixed number
// of seeded same-pattern value updates, each followed by refresh and a
// solve (the time-stepping / Newton use). One walk over the list is a
// pass; a run makes a fixed number of passes and reports, for every
// figure, the median over passes of what one whole pass measured.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "base/thread_pool.hpp"
#include "core/flops.hpp"
#include "obs/metrics.hpp"
#include "precond/config.hpp"
#include "solvers/config.hpp"
#include "sparse/suite.hpp"

#include "common.hpp"

namespace perfbench {

namespace {

struct Case {
    std::string name;
    Csr base;
    /// Value sets of the updates, in order (seeded, same pattern).
    std::vector<std::vector<double>> updates;
};

/// What one pass measured, per matrix and per update in list order.
struct Pass {
    double wall = 0.0;
    long long iterations = 0;
    /// Iteration count of every solve, in protocol order.
    std::vector<vb::index_type> fingerprint;
    std::vector<double> setup;    ///< per matrix: cold setup
    std::vector<double> cold;     ///< per matrix: cold setup + first solve
    std::vector<double> refresh;  ///< per update: refresh
    std::vector<double> step;     ///< per update: refresh + solve
};

/// Per-layer totals of the traced passes.
struct Layers {
    double symbolic = 0.0, supervariable = 0.0, plan = 0.0;
    double blocks = 0.0, rows = 0.0;
    double numeric = 0.0, gather = 0.0, factorize = 0.0, pack = 0.0;
    double recovery = 0.0, lane_blocks = 0.0, degraded = 0.0;
    double getrf_flops = 0.0;
    double refresh = 0.0;
    double apply = 0.0, apply_calls = 0.0, apply_bytes = 0.0;
    double solve = 0.0, solves = 0.0, iterations = 0.0;
    double spmv = 0.0, precond = 0.0, blas1 = 0.0, orth = 0.0;
    double spmv_bytes = 0.0, spmv_seconds = 0.0;
    double spans = 0.0;  ///< summed duration of the top-level call spans
    double busy_frac = 0.0, steals = 0.0, parks = 0.0;
};

class SuiteRunner {
public:
    explicit SuiteRunner(std::vector<Case> cases)
        : cases_(std::move(cases)),
          precond_(precond_config()),
          solver_(vb::solvers::make_solver<double>(solver_config(false))),
          traced_solver_(
              vb::solvers::make_solver<double>(solver_config(true))) {}

    /// The protocol on one matrix, untimed (pool and solver warm-up).
    void warm_up(const Case& c) {
        Report scratch;
        Pass pass;
        run_case(c, pass, scratch, nullptr, nullptr);
    }

    Pass run_pass(Report& report, SpanLog* log, Layers* layers) {
        Pass pass;
        const auto t0 = Clock::now();
        for (const auto& c : cases_) {
            run_case(c, pass, report, log, layers);
        }
        pass.wall = seconds_since(t0);
        return pass;
    }

    const std::vector<Case>& cases() const { return cases_; }

private:
    /// Time `f`, add it to the top-level span total and, when tracing,
    /// log it as a span.
    template <typename F>
    double timed(const char* name, SpanLog* log, Layers* layers, F&& f) {
        const auto t0 = Clock::now();
        f();
        const auto t1 = Clock::now();
        const double s = seconds_between(t0, t1);
        if (log != nullptr) {
            log->add(name, t0, t1);
            layers->spans += s;
        }
        return s;
    }

    /// One solve from a zero initial guess plus its correctness check.
    double solve(const Csr& a, const std::vector<double>& b,
                 const vb::precond::Preconditioner<double>& prec,
                 Pass& pass, Report& report, SpanLog* log, Layers* layers,
                 TimedPreconditioner* timed_prec) {
        std::vector<double> x(b.size(), 0.0);
        vb::solvers::SolveResult result;
        double seconds = 0.0;
        if (log == nullptr) {
            const auto t0 = Clock::now();
            result = solver_->solve(a, b, x, prec);
            seconds = seconds_since(t0);
        } else {
            const auto t0 = Clock::now();
            const auto id = log->begin("solvers.solve");
            timed_prec->set_parent(id);
            result = traced_solver_->solve(a, b, x, prec);
            log->end(id);
            seconds = seconds_since(t0);
            layers->spans += seconds;
            layers->solve += seconds;
            layers->solves += 1.0;
            layers->iterations += static_cast<double>(result.iterations);
            layers->spmv += result.phase_seconds.spmv;
            layers->precond += result.phase_seconds.precond;
            layers->blas1 += result.phase_seconds.blas1;
            layers->orth += result.phase_seconds.orth;
        }
        double residual = 0.0;
        timed("bench.check", log, layers, [&] {
            residual = true_relative_residual(a, b, x);
        });
        const bool ok = solve_ok(result, residual);
        report.operation(ok);
        if (result.converged() && !ok) {
            report.wrong_answer();
        }
        pass.iterations += result.iterations;
        pass.fingerprint.push_back(result.iterations);
        return seconds;
    }

    void run_case(const Case& c, Pass& pass, Report& report, SpanLog* log,
                  Layers* layers) {
        Csr a;
        timed("bench.copy", log, layers, [&] { a = fresh_copy(c.base); });
        const std::vector<double> b(static_cast<std::size_t>(a.num_rows()),
                                    1.0);

        vb::precond::PreconditionerPtr<double> prec;
        TimedPreconditioner* timed_prec = nullptr;
        double setup = 0.0;
        if (log == nullptr) {
            const auto t0 = Clock::now();
            prec = vb::precond::make_preconditioner<double>(a, precond_);
            setup = seconds_since(t0);
        } else {
            // Traced: the symbolic and numeric layers as separate calls,
            // the numeric one adopting the symbolic result.
            auto config = precond_;
            setup += timed("precond.make_symbolic", log, layers, [&] {
                config.symbolic =
                    vb::precond::make_symbolic<double>(a, precond_);
            });
            vb::precond::PreconditionerPtr<double> inner;
            const double numeric =
                timed("precond.make_preconditioner", log, layers, [&] {
                    inner = vb::precond::make_preconditioner<double>(a,
                                                                     config);
                });
            setup += numeric;
            auto wrapper =
                std::make_unique<TimedPreconditioner>(std::move(inner), log);
            timed_prec = wrapper.get();
            record_setup_layers(*wrapper, a, setup - numeric, numeric,
                                *layers);
            prec = std::move(wrapper);
        }
        const double first = solve(a, b, *prec, pass, report, log, layers,
                                   timed_prec);
        pass.setup.push_back(setup);
        pass.cold.push_back(setup + first);

        for (const auto& values : c.updates) {
            timed("bench.set_values", log, layers,
                  [&] { a.set_values(values); });
            double refresh = 0.0;
            if (log == nullptr) {
                const auto t0 = Clock::now();
                prec->refresh(a);
                refresh = seconds_since(t0);
            } else {
                timed_prec->set_parent(-1);
                const double before = timed_prec->refresh_seconds();
                const auto t0 = Clock::now();
                prec->refresh(a);
                refresh = seconds_since(t0);
                layers->spans += refresh;
                layers->refresh += timed_prec->refresh_seconds() - before;
            }
            const double s =
                solve(a, b, *prec, pass, report, log, layers, timed_prec);
            pass.refresh.push_back(refresh);
            pass.step.push_back(refresh + s);
        }
        if (timed_prec != nullptr) {
            layers->apply += timed_prec->apply_seconds();
            layers->apply_calls +=
                static_cast<double>(timed_prec->apply_calls());
            layers->apply_bytes += timed_prec->apply_bytes_total();
        }
    }

    static void record_setup_layers(const TimedPreconditioner& prec,
                                    const Csr& a, double symbolic,
                                    double numeric, Layers& layers) {
        layers.symbolic += symbolic;
        layers.numeric += numeric;
        const auto* bj = prec.block_jacobi();
        if (bj == nullptr) {
            return;
        }
        const auto& sym = *bj->symbolic();
        layers.supervariable += sym.blocking_seconds;
        layers.plan += sym.plan_seconds;
        const auto& layout = bj->layout();
        layers.blocks += static_cast<double>(layout.count());
        layers.rows += static_cast<double>(a.num_rows());
        for (const auto m : layout.sizes()) {
            layers.getrf_flops += vb::core::getrf_flops(m);
        }
        const auto& phases = bj->setup_phases();
        layers.gather += phases.gather_seconds;
        layers.factorize += phases.factorize_seconds;
        layers.pack += phases.pack_seconds;
        layers.recovery += phases.recovery_seconds;
        layers.lane_blocks += static_cast<double>(bj->num_simd_blocks());
        layers.degraded +=
            static_cast<double>(bj->recovery_summary().degraded());
    }

    std::vector<Case> cases_;
    vb::precond::Config precond_;
    vb::solvers::SolverPtr<double> solver_;
    vb::solvers::SolverPtr<double> traced_solver_;
};

std::vector<Case> build_cases(const vb::obs::JsonValue& workload,
                              std::uint64_t seed) {
    const auto names = json_strings(workload, "matrices");
    const auto updates =
        static_cast<int>(json_number(workload, "updates_per_matrix"));
    std::vector<Case> cases;
    std::uint64_t stream = 0;
    for (const auto& name : names) {
        Case c{name,
               vb::sparse::build_suite_matrix(
                   vb::sparse::suite_case_by_name(name)),
               {}};
        for (int u = 0; u < updates; ++u) {
            // One independent stream per (seed, matrix, update).
            c.updates.push_back(perturbed_values(
                c.base, kUpdateScale,
                seed * 0x9E3779B97F4A7C15ULL + (++stream)));
        }
        cases.push_back(std::move(c));
    }
    return cases;
}

/// Mismatching entries between two passes' iteration fingerprints.
long long fingerprint_mismatches(const Pass& a, const Pass& b) {
    long long n = 0;
    for (std::size_t i = 0; i < a.fingerprint.size(); ++i) {
        n += a.fingerprint[i] != b.fingerprint.at(i) ? 1 : 0;
    }
    return n;
}

/// Per-matrix iteration counts and their FNV-1a hash, one line each, so
/// two runs of the same code and seed can be compared exactly.
void print_fingerprint(const Report& report, const std::string& workload,
                       std::uint64_t seed, const std::vector<Case>& cases,
                       const Pass& pass) {
    std::uint64_t hash = 1469598103934665603ULL;
    std::size_t k = 0;
    for (const auto& c : cases) {
        std::string line = "iterations ";
        line += c.name;
        line += ":";
        for (std::size_t u = 0; u <= c.updates.size(); ++u, ++k) {
            const auto it = pass.fingerprint.at(k);
            line += ' ';
            line += std::to_string(it);
            hash = (hash ^ static_cast<std::uint64_t>(it)) * 1099511628211ULL;
        }
        report.note(line);
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "fingerprint %s seed=%llu: %016llx",
                  workload.c_str(), static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(hash));
    report.note(buf);
}

template <typename F>
std::vector<double> each(const std::vector<Pass>& passes, F&& f) {
    std::vector<double> out;
    for (const auto& p : passes) {
        out.push_back(f(p));
    }
    return out;
}

double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) {
        s += x;
    }
    return s;
}

void report_end_to_end(Report& report, const std::vector<Pass>& passes) {
    // Every figure is the median over passes of one whole pass's value.
    const auto over_passes = [&](auto&& f) {
        return median(each(passes, f));
    };
    report.metric("tts_s",
                  over_passes([](const Pass& p) { return sum(p.cold); }));
    report.metric("setup_s",
                  over_passes([](const Pass& p) { return sum(p.setup); }));
    report.metric("step_s",
                  over_passes([](const Pass& p) { return sum(p.step); }));
    report.metric("refresh_s",
                  over_passes([](const Pass& p) { return sum(p.refresh); }));
    report.metric("iterations", over_passes([](const Pass& p) {
                      return static_cast<double>(p.iterations);
                  }));
    // No arrival process here: "light" is a one-off caller's cold setup +
    // first solve per matrix, "busy" a time-stepping caller's refresh +
    // solve per update issued back to back, and the rate that caller's
    // steps per second; percentiles are over the matrices (updates) of a
    // pass.
    report.metric("p50_ms_light", over_passes([](const Pass& p) {
                      return percentile(p.cold, 50.0) * 1e3;
                  }));
    report.metric("p99_ms_light", over_passes([](const Pass& p) {
                      return percentile(p.cold, 99.0) * 1e3;
                  }));
    report.metric("p50_ms_busy", over_passes([](const Pass& p) {
                      return percentile(p.step, 50.0) * 1e3;
                  }));
    report.metric("p99_ms_busy", over_passes([](const Pass& p) {
                      return percentile(p.step, 99.0) * 1e3;
                  }));
    report.metric("max_rate_rps", over_passes([](const Pass& p) {
                      return static_cast<double>(p.step.size()) / sum(p.step);
                  }));
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "samples: %zu passes of %zu cold solves and %zu steps",
                  passes.size(), passes.front().cold.size(),
                  passes.front().step.size());
    report.note(buf);
}

void report_layers(Report& report, const Layers& l, double passes,
                   double traced_wall, double overhead) {
    const auto per = [&](double total) { return total / passes; };
    report.metric("blocking.symbolic_s", per(l.symbolic));
    report.metric("blocking.supervariable_busy_s", per(l.supervariable));
    report.metric("blocking.plan_busy_s", per(l.plan));
    report.metric("blocking.blocks", per(l.blocks));
    report.metric("blocking.mean_block_size",
                  l.blocks > 0.0 ? l.rows / l.blocks : 0.0);
    report.metric("precond.numeric_s", per(l.numeric));
    report.metric("precond.gather_busy_s", per(l.gather));
    report.metric("precond.factorize_busy_s", per(l.factorize));
    report.metric("precond.pack_busy_s", per(l.pack));
    report.metric("precond.recovery_s", per(l.recovery));
    report.metric("precond.lane_block_frac",
                  l.blocks > 0.0 ? l.lane_blocks / l.blocks : 0.0);
    report.metric("precond.degraded_blocks", per(l.degraded));
    report.metric("precond.refresh_s", per(l.refresh));
    report.metric("precond.apply_s", per(l.apply));
    report.metric("precond.apply_calls", per(l.apply_calls));
    report.metric("precond.apply_us",
                  l.apply_calls > 0.0 ? l.apply / l.apply_calls * 1e6 : 0.0);
    report.metric("precond.apply_gbs_computed",
                  l.apply > 0.0 ? l.apply_bytes / l.apply * 1e-9 : 0.0);
    report.metric("core.getrf_gflops_busy",
                  l.factorize > 0.0 ? l.getrf_flops / l.factorize * 1e-9
                                    : 0.0);
    report.metric("solvers.solve_s", per(l.solve));
    report.metric("solvers.iterations", per(l.iterations));
    report.metric("solvers.iter_us",
                  l.iterations > 0.0 ? l.solve / l.iterations * 1e6 : 0.0);
    report.metric("solvers.spmv_s", per(l.spmv));
    report.metric("solvers.precond_s", per(l.precond));
    report.metric("solvers.blas1_s", per(l.blas1));
    report.metric("solvers.orth_s", per(l.orth));
    report.metric("solvers.unattributed_s",
                  per(l.solve - l.spmv - l.precond - l.blas1 - l.orth));
    report.metric("sparse.spmv_gbs_computed",
                  l.spmv_seconds > 0.0 ? l.spmv_bytes / l.spmv_seconds * 1e-9
                                       : 0.0);
    report.metric("base.pool.busy_frac", l.busy_frac / passes);
    report.metric("base.pool.steals", per(l.steals));
    report.metric("base.pool.parks", per(l.parks));
    report.metric("base.pool.parks_per_request",
                  l.solves > 0.0 ? l.parks / l.solves : 0.0);
    report.metric("trace.unattributed_s", per(traced_wall - l.spans));
    report.metric("trace.unattributed_frac",
                  traced_wall > 0.0 ? (traced_wall - l.spans) / traced_wall
                                    : 0.0);
    report.metric("trace.overhead_frac", overhead);
}

/// Duration of one pass on a 4-core x86-64 virtual machine (see
/// pass_count).
double nominal_pass_seconds(const std::string& workload) {
    if (workload == "fig9_low_iter") {
        return 0.8;
    }
    if (workload == "fig9_high_iter") {
        return 3.2;
    }
    throw std::runtime_error("no nominal pass duration for workload '" +
                             workload + "'");
}

}  // namespace

void run_suite_workload(const Args& args, const vb::obs::JsonValue& workload,
                        Report& report) {
    SuiteRunner runner(build_cases(workload, args.seed));
    const std::size_t passes =
        pass_count(args.seconds, nominal_pass_seconds(args.workload));
    runner.warm_up(runner.cases().front());

    // The traced run alternates untraced and traced passes, so its
    // overhead is measured against the untraced ones of the same process.
    std::vector<Pass> plain, traced;
    Layers layers;
    SpanLog log;
    auto& registry = vb::obs::Registry::global();
    auto& pool = vb::ThreadPool::global();
    for (std::size_t i = 0; i < passes; ++i) {
        if (args.trace && i % 2 == 1) {
            const auto traffic_before = registry.traffic();
            vb::ThreadPool::set_stats_enabled(true);
            const auto pool_before = pool.telemetry();
            traced.push_back(runner.run_pass(report, &log, &layers));
            const auto d = pool_delta(pool_before, pool.telemetry());
            vb::ThreadPool::set_stats_enabled(false);
            layers.busy_frac += d.busy_frac;
            layers.steals += d.steals;
            layers.parks += d.parks;
            const auto traffic_after = registry.traffic();
            const auto spmv = traffic_after.find("solver.spmv");
            if (spmv != traffic_after.end()) {
                const auto before = traffic_before.find("solver.spmv");
                const bool had = before != traffic_before.end();
                layers.spmv_bytes +=
                    spmv->second.bytes - (had ? before->second.bytes : 0.0);
                layers.spmv_seconds += spmv->second.seconds -
                                       (had ? before->second.seconds : 0.0);
            }
        } else {
            plain.push_back(runner.run_pass(report, nullptr, nullptr));
        }
    }

    // Every pass repeats the same inputs, so every pass must take the same
    // iteration counts; a difference is a determinism defect, reported.
    const Pass& reference = plain.front();
    long long mismatches = 0;
    for (const auto* set : {&plain, &traced}) {
        for (const auto& p : *set) {
            mismatches += fingerprint_mismatches(reference, p);
        }
    }
    print_fingerprint(report, args.workload, args.seed, runner.cases(),
                      reference);
    report.note("determinism: " + std::to_string(mismatches) +
                " iteration-count mismatches across " +
                std::to_string(plain.size() + traced.size()) + " passes");

    if (!args.trace) {
        report_end_to_end(report, plain);
        return;
    }
    const double traced_wall =
        [&] {
            double w = 0.0;
            for (const auto& p : traced) {
                w += p.wall;
            }
            return w;
        }();
    const double overhead =
        median(each(traced, [](const Pass& p) { return p.wall; })) /
            median(each(plain, [](const Pass& p) { return p.wall; })) -
        1.0;
    report_layers(report, layers, static_cast<double>(traced.size()),
                  traced_wall, overhead);
    report.metric("determinism.iteration_mismatches",
                  static_cast<double>(mismatches));
    if (!args.trace_out.empty()) {
        log.write(args.trace_out);
    }
}

}  // namespace perfbench
