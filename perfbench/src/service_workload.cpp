// The service workload: one service::Engine serving many small
// same-pattern tenants and a few suite-sized same-pattern tenants.
//
// Onboarding (repeated, medians reported): open every tenant session in
// a fresh engine, solve once, then one value update + solve per tenant.
// Traffic: open-loop Poisson arrivals from one seeded generator thread
// (this one) at each rate of a fixed ladder. A request is due at its
// arrival time; its latency runs from then until a waiter thread blocked
// on its future wakes, so a stall that delays later requests is counted
// against them. There is a waiter for every request a step lets be
// outstanding, so a slow request never holds up the timing of the ones
// behind it.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>

#include "base/thread_pool.hpp"
#include "core/flops.hpp"
#include "service/engine.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"

#include "common.hpp"

namespace perfbench {

namespace {

using Engine = vb::service::Engine;
using Session = vb::service::Session<double>;
using Request = vb::service::SolveRequest<double>;
using Response = vb::service::SolveResponse<double>;

struct Tenant {
    /// Variant 0 holds the values the session opens with; variants
    /// 1.. are the value sets requests may carry. Each is a full matrix
    /// so answers can be checked against exactly what was solved.
    std::vector<Csr> variants;
    double weight = 0.0;  ///< share of requests addressed to this tenant
};

/// How the generator and waiters saw one request.
struct Sample {
    double late = 0.0;     ///< generator lateness: submit start - due
    double latency = 0.0;  ///< completion - due (penalized when failed)
    double queue = 0.0, refresh = 0.0, solve = 0.0;
    bool carried_values = false;
    bool ok = false;
    bool wrong = false;  ///< converged, but the answer fails the check
    vb::solvers::PhaseSeconds phases;
    vb::index_type iterations = 0;
};

struct Step {
    double rate = 0.0;
    double wall = 0.0;  ///< first due to last completion
    /// The generator stopped early because the backlog kept growing.
    bool backlogged = false;
    std::vector<Sample> samples;
};

/// The rates of the ladder and the latency limit (workloads.json).
struct Traffic {
    std::vector<double> rates;
    double busy_rate = 0.0;
    double p99_limit_ms = 0.0;
};

/// A step offers rate * kStepSeconds requests, and at least
/// kMinRequestsPerStep so its p99 has ten samples beyond it. Steps at the
/// light and busy rates, whose percentiles are end-to-end metrics, last
/// kLatencyStepSeconds: a host stall of a few ms then delays under 1% of
/// a busy step's requests, as it does at the light rate.
constexpr double kStepSeconds = 0.5;
constexpr double kLatencyStepSeconds = 1.0;
constexpr std::size_t kMinRequestsPerStep = 1000;
/// Steps per ladder pass at the light and busy rates, whose percentiles
/// are end-to-end metrics (one at every other rate).
constexpr std::size_t kLatencyStepsPerPass = 2;
/// Share of requests that carry new values (the refresh path).
constexpr double kValuesShare = 1.0 / 3.0;
/// Value sets per tenant besides its opening values; requests that carry
/// values pick one of them.
constexpr int kValueVariants = 3;
/// Outstanding requests at which a step is stopped as backlogged, and the
/// number of waiter threads. It is below the engine's default admission
/// cap of 256, so a growing backlog ends the step instead of turning into
/// rejections.
constexpr std::size_t kMaxOutstanding = 128;
/// A rate whose median generator lateness exceeds this share of its p50
/// latency offered less load than it says: it is invalid rather than
/// fast. (The lateness p99 is reported; on a virtual machine it reflects
/// host stalls of a few ms that delay a handful of arrivals without
/// lowering the offered load.)
constexpr double kLateInvalidShare = 0.5;
/// Share of the offered rate a rate must carry (completed / offered) to
/// count as having no growing backlog.
constexpr double kMinCarriedShare = 0.9;
/// Duration of one ladder pass (a step at every rate and the repeated
/// light and busy steps, each after an onboarding) on a 4-core x86-64
/// virtual machine (see pass_count).
constexpr double kNominalPassSeconds = 8.0;
/// Onboardings of the traced run, each checked against the first for
/// equal iteration counts.
constexpr int kTracedOnboardings = 9;

Csr tenant_pattern(const vb::obs::JsonValue& kind) {
    if (kind.find("suite_case") != nullptr) {
        return vb::sparse::build_suite_matrix(vb::sparse::suite_case_by_name(
            json_string(kind, "suite_case")));
    }
    const auto p = json_numbers(kind, "fem_block");
    if (p.size() != 6) {
        throw std::runtime_error(
            "workloads.json: fem_block takes [blocks, min, max, neighbors, "
            "coupling, seed]");
    }
    return vb::sparse::fem_block_matrix<double>(
        static_cast<vb::index_type>(p[0]), static_cast<vb::index_type>(p[1]),
        static_cast<vb::index_type>(p[2]), static_cast<vb::index_type>(p[3]),
        p[4], static_cast<std::uint64_t>(p[5]));
}

std::vector<Tenant> build_tenants(const vb::obs::JsonValue& workload,
                                  std::uint64_t seed) {
    const auto* kinds = workload.find("tenants");
    if (kinds == nullptr || !kinds->is_array()) {
        throw std::runtime_error("workloads.json: 'tenants' must be a list");
    }
    std::vector<Tenant> tenants;
    std::uint64_t stream = 0;
    const auto next_seed = [&] {
        return seed * 0x9E3779B97F4A7C15ULL + 0x5851F42D4C957F2DULL *
                                                  (++stream);
    };
    for (const auto& kind : kinds->items) {
        const Csr pattern = tenant_pattern(kind);
        const auto count = static_cast<int>(json_number(kind, "count"));
        const double weight = json_number(kind, "request_share") / count;
        for (int t = 0; t < count; ++t) {
            Tenant tenant;
            tenant.weight = weight;
            Csr first = fresh_copy(pattern);
            first.set_values(
                perturbed_values(pattern, kUpdateScale, next_seed()));
            for (int v = 0; v < kValueVariants; ++v) {
                Csr m = fresh_copy(first);
                m.set_values(perturbed_values(first, kUpdateScale,
                                              next_seed()));
                tenant.variants.push_back(std::move(m));
            }
            tenant.variants.insert(tenant.variants.begin(), std::move(first));
            tenants.push_back(std::move(tenant));
        }
    }
    return tenants;
}

/// Sessions of one engine plus what onboarding measured.
struct Onboarding {
    std::unique_ptr<Engine> engine;
    std::vector<vb::service::SessionPtr<double>> sessions;
    double setup = 0.0;        ///< open every session
    double first_solve = 0.0;  ///< first solve of every session
    double step = 0.0;         ///< update + solve of every session
    double refresh = 0.0;      ///< the update part of `step`
    long long iterations = 0;
    std::vector<vb::index_type> fingerprint;
    std::vector<double> open_seconds;  ///< per tenant
};

class ServiceRunner {
public:
    ServiceRunner(std::vector<Tenant> tenants, Traffic traffic)
        : tenants_(std::move(tenants)), traffic_(std::move(traffic)) {}

    /// Open every tenant in a fresh engine. `precond` selects the
    /// backend key the sessions use (the traced run wraps the shared
    /// backend under another key).
    Onboarding open(const vb::precond::Config& precond,
                    bool collect_phase_times) const {
        Onboarding o;
        o.engine = std::make_unique<Engine>();
        std::vector<Csr> mats;
        for (const auto& t : tenants_) {
            mats.push_back(fresh_copy(t.variants[0]));
        }
        vb::service::SessionOptions options;
        options.precond = precond;
        options.solver = solver_config(collect_phase_times);
        const bool wrapped = precond.backend != kBackend;
        const auto t0 = Clock::now();
        for (auto& m : mats) {
            auto session_options = options;
            if (wrapped) {
                // What open_session does for a backend with a symbolic
                // phase, done here because the wrapper key has none.
                session_options.precond.symbolic =
                    o.engine->plan_cache().acquire(m, precond_config());
            }
            const auto t1 = Clock::now();
            o.sessions.push_back(
                o.engine->open_session(std::move(m), session_options));
            o.open_seconds.push_back(seconds_since(t1));
        }
        o.setup = seconds_since(t0);
        return o;
    }

    /// Solve once on every session, then one value update + solve each.
    void exercise(Onboarding& o, Report& report) const {
        for (std::size_t i = 0; i < o.sessions.size(); ++i) {
            o.first_solve += solve_checked(*o.sessions[i],
                                           tenants_[i].variants[0], o, report);
        }
        for (std::size_t i = 0; i < o.sessions.size(); ++i) {
            auto& s = *o.sessions[i];
            const auto& next = tenants_[i].variants[1];
            const auto t0 = Clock::now();
            s.update_values(next.values());
            const double refresh = seconds_since(t0);
            o.refresh += refresh;
            o.step += refresh + solve_checked(s, next, o, report);
        }
    }

    const std::vector<Tenant>& tenants() const { return tenants_; }
    const Traffic& traffic() const { return traffic_; }

    /// One open-loop step at `rate` with requests drawn from `rng`.
    Step run_step(const Onboarding& o, double rate, std::mt19937_64& rng,
                  SpanLog* log) const {
        const double seconds =
            rate <= traffic_.busy_rate ? kLatencyStepSeconds : kStepSeconds;
        const auto n = std::max(kMinRequestsPerStep,
                                static_cast<std::size_t>(rate * seconds));
        std::vector<double> weights;
        for (const auto& t : tenants_) {
            weights.push_back(t.weight);
        }
        std::discrete_distribution<std::size_t> pick(weights.begin(),
                                                     weights.end());
        std::exponential_distribution<double> gap(rate);
        std::bernoulli_distribution carries(kValuesShare);

        struct Planned {
            double due = 0.0;  ///< seconds after the step start
            std::size_t tenant = 0;
            int variant = -1;  ///< value set carried (-1 = none)
        };
        std::vector<Planned> plan(n);
        double due = 0.0;
        for (auto& p : plan) {
            due += gap(rng);
            p.due = due;
            p.tenant = pick(rng);
            if (carries(rng)) {
                std::uniform_int_distribution<int> v(
                    1, static_cast<int>(tenants_[p.tenant].variants.size()) -
                           1);
                p.variant = v(rng);
            }
        }
        // The generator builds each request before waiting for its due
        // time, so only the submit call sits between due and submission.
        const auto make_request = [&](const Planned& p) {
            const auto& t = tenants_[p.tenant];
            Request request;
            request.rhs.assign(static_cast<std::size_t>(t.variants[0].num_rows()),
                               1.0);
            if (p.variant >= 0) {
                const auto values =
                    t.variants[static_cast<std::size_t>(p.variant)].values();
                request.values.assign(values.begin(), values.end());
            }
            return request;
        };

        std::vector<std::future<Response>> futures(n);
        std::vector<Clock::time_point> done(n);
        std::vector<Response> responses(n);
        std::mutex mutex;
        std::condition_variable cv;
        // Guarded by `mutex`: requests submitted, handed to a waiter, and
        // the step's final size (shrinks when the step stops early).
        std::size_t published = 0, taken = 0, total = n;
        std::atomic<std::size_t> completed{0};
        std::vector<std::thread> waiters;
        // Ends the step at what was published and joins every waiter,
        // also when the generator leaves by an exception.
        const auto finish = [&](std::vector<std::thread>* threads) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                total = published;
            }
            cv.notify_all();
            for (auto& w : *threads) {
                w.join();
            }
        };
        std::unique_ptr<std::vector<std::thread>, decltype(finish)> joiner(
            &waiters, finish);
        for (std::size_t w = 0; w < kMaxOutstanding; ++w) {
            waiters.emplace_back([&] {
                for (;;) {
                    std::size_t i = 0;
                    {
                        std::unique_lock<std::mutex> lock(mutex);
                        cv.wait(lock, [&] {
                            return taken < published || taken == total;
                        });
                        if (taken == total) {
                            return;
                        }
                        i = taken++;
                        if (taken == total) {
                            cv.notify_all();  // the rest of the waiters exit
                        }
                    }
                    futures[i].wait();
                    done[i] = Clock::now();
                    responses[i] = futures[i].get();
                    completed.fetch_add(1, std::memory_order_relaxed);
                }
            });
        }

        std::vector<Sample> samples(n);
        std::vector<Clock::time_point> due_at(n);
        bool backlogged = false;
        const auto start = Clock::now() + std::chrono::milliseconds(2);
        for (std::size_t i = 0; i < n; ++i) {
            // At most kMaxOutstanding requests are outstanding, so each
            // has a waiter blocked on it.
            if (i - completed.load(std::memory_order_relaxed) >=
                kMaxOutstanding) {
                backlogged = true;
                break;
            }
            due_at[i] = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(plan[i].due));
            Request request = make_request(plan[i]);
            // Sleep, never spin: a spinning generator takes a core from
            // the pool's workers, and the host's preemption of a fully
            // busy machine then stalls requests for milliseconds. A
            // sleeper wakes some 10 us late, which the latency from due
            // time includes.
            std::this_thread::sleep_until(due_at[i]);
            const auto submit = Clock::now();
            samples[i].late = seconds_between(due_at[i], submit);
            samples[i].carried_values = plan[i].variant >= 0;
            futures[i] =
                o.sessions[plan[i].tenant]->submit(std::move(request));
            if (log != nullptr) {
                log->add("service.submit", submit, Clock::now(), -1,
                         static_cast<std::int64_t>(i));
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                ++published;
            }
            cv.notify_one();
        }
        joiner.reset();

        const std::size_t issued = published;
        samples.resize(issued);
        Step step;
        step.rate = rate;
        step.backlogged = backlogged;
        const auto last =
            *std::max_element(done.begin(), done.begin() + issued);
        step.wall = seconds_between(start, last);
        // A failed request counts as missing any latency limit.
        const double penalty =
            std::max(step.wall, 10.0 * traffic_.p99_limit_ms * 1e-3);
        for (std::size_t i = 0; i < issued; ++i) {
            auto& s = samples[i];
            const auto& r = responses[i];
            if (log != nullptr) {
                log->add("service.request", due_at[i], done[i], -1,
                         static_cast<std::int64_t>(i));
            }
            s.ok = r.accepted && check(plan[i].tenant, plan[i].variant, r);
            s.wrong = r.accepted && r.result.converged() && !s.ok;
            s.latency = s.ok ? seconds_between(due_at[i], done[i]) : penalty;
            s.queue = r.queue_seconds;
            s.refresh = r.refresh_seconds;
            s.solve = r.result.solve_seconds;
            s.phases = r.result.phase_seconds;
            s.iterations = r.result.iterations;
        }
        step.samples = std::move(samples);
        return step;
    }

private:
    /// Converged, and the true residual is within the slack against the
    /// matrix the request carried -- or, for a request without values,
    /// against one of the value sets its session can hold.
    bool check(std::size_t tenant, int variant, const Response& r) const {
        if (!r.result.converged()) {
            return false;
        }
        const std::vector<double> b(r.x.size(), 1.0);
        const auto& t = tenants_[tenant];
        const auto passes = [&](const Csr& a) {
            return solve_ok(r.result, true_relative_residual(a, b, r.x));
        };
        return variant >= 0
                   ? passes(t.variants[static_cast<std::size_t>(variant)])
                   : std::any_of(t.variants.begin(), t.variants.end(),
                                 passes);
    }

    double solve_checked(Session& s, const Csr& a, Onboarding& o,
                         Report& report) const {
        const std::vector<double> b(static_cast<std::size_t>(a.num_rows()),
                                    1.0);
        std::vector<double> x(b.size(), 0.0);
        const auto t0 = Clock::now();
        const auto response = s.solve(b, x);
        const double seconds = seconds_since(t0);
        const bool ok =
            solve_ok(response.result, true_relative_residual(a, b, x));
        report.operation(ok);
        if (response.result.converged() && !ok) {
            report.wrong_answer();
        }
        o.iterations += response.result.iterations;
        o.fingerprint.push_back(response.result.iterations);
        return seconds;
    }

    std::vector<Tenant> tenants_;
    Traffic traffic_;
};

Traffic read_traffic(const vb::obs::JsonValue& w) {
    Traffic t;
    t.rates = json_numbers(w, "rates_rps");
    t.busy_rate = json_number(w, "busy_rate_rps");
    t.p99_limit_ms = json_number(w, "p99_limit_ms");
    if (t.rates.empty() || !std::is_sorted(t.rates.begin(), t.rates.end()) ||
        std::find(t.rates.begin(), t.rates.end(), t.busy_rate) ==
            t.rates.end()) {
        throw std::runtime_error(
            "workloads.json: rates_rps must be ascending and hold "
            "busy_rate_rps");
    }
    return t;
}

/// One ladder rate over every step run at it (a fixed number per run):
/// the median step's latency percentiles, the lowest step p99, and the
/// majority verdict on backlog.
struct RateStats {
    double rate = 0.0;
    std::size_t requests = 0;
    bool backlogged = false;  ///< most steps were stopped as backlogged
    double p50_ms = 0.0, p99_ms = 0.0, late_p50_ms = 0.0, late_p99_ms = 0.0;
    /// Lowest step p99. A stall of a shared host delays every request due
    /// during it, about 1% of a step's requests per stall of a few ms, so
    /// a step that meets one reads its p99 off the stall, not the engine.
    /// Such stalls come in spells that can cover most steps of a run.
    double best_p99_ms = 0.0;
    double carried = 0.0;  ///< completed / offered
    bool valid = false;    ///< generator kept to its schedule
    bool meets = false;    ///< valid, no backlog, p99 within the limit
};

RateStats rate_stats(const std::vector<Step>& steps, const Traffic& t) {
    RateStats r;
    r.rate = steps.at(0).rate;
    std::vector<double> p50, p99, late;
    double wall = 0.0;
    std::size_t backlogged = 0;
    for (const auto& step : steps) {
        std::vector<double> latency;
        for (const auto& s : step.samples) {
            latency.push_back(s.latency * 1e3);
            late.push_back(s.late * 1e3);
        }
        p50.push_back(percentile(latency, 50.0));
        p99.push_back(percentile(latency, 99.0));
        r.requests += latency.size();
        wall += step.wall;
        backlogged += step.backlogged ? 1 : 0;
    }
    r.p50_ms = median(p50);
    r.p99_ms = median(p99);
    r.best_p99_ms = *std::min_element(p99.begin(), p99.end());
    r.late_p50_ms = percentile(late, 50.0);
    r.late_p99_ms = percentile(late, 99.0);
    r.carried = static_cast<double>(r.requests) / wall / r.rate;
    r.backlogged = 2 * backlogged > steps.size();
    r.valid = r.late_p50_ms <= kLateInvalidShare * r.p50_ms;
    r.meets = r.valid && !r.backlogged && r.carried >= kMinCarriedShare &&
              r.p99_ms <= t.p99_limit_ms;
    return r;
}

/// Highest rate meeting the p99 limit without a growing backlog. Between
/// the last ladder rate that meets it and the next one the crossing is
/// interpolated linearly in p99, so the figure moves smoothly instead of
/// jumping a whole ladder step; a next rate that fails despite a p99
/// within the limit (backlog, invalid generator) enters as p99 = 2 *
/// limit. Below the ladder the lowest rate is scaled by limit / p99.
double max_rate(const std::vector<RateStats>& rates, double limit_ms) {
    std::size_t k = 0;
    while (k < rates.size() && rates[k].meets) {
        ++k;
    }
    if (k == 0) {
        return rates[0].rate * std::min(1.0, limit_ms / rates[0].p99_ms);
    }
    const auto& lo = rates[k - 1];
    if (k == rates.size()) {
        return lo.rate;
    }
    const auto& hi = rates[k];
    const double hi_p99 = hi.p99_ms > limit_ms ? hi.p99_ms : 2.0 * limit_ms;
    const double f = (limit_ms - lo.p99_ms) / (hi_p99 - lo.p99_ms);
    return lo.rate + f * (hi.rate - lo.rate);
}

void print_rate(const Report& report, const RateStats& r) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "rate %7.0f/s: %5zu requests  p50 %8.3f ms  p99 %8.3f ms "
                  "(best %.3f)  generator late p50 %.3f p99 %.3f ms  "
                  "carried %.3f  %s%s%s",
                  r.rate, r.requests, r.p50_ms, r.p99_ms, r.best_p99_ms,
                  r.late_p50_ms, r.late_p99_ms, r.carried,
                  r.valid ? "valid" : "INVALID (generator late)",
                  r.backlogged ? ", backlogged" : "",
                  r.meets ? ", meets limit" : "");
    report.note(buf);
}

void count_requests(Report& report, const Step& step) {
    for (const auto& s : step.samples) {
        report.operation(s.ok);
        if (s.wrong) {
            report.wrong_answer();
        }
    }
}

/// Wrapped sessions of the traced run, in creation (= tenant) order.
std::vector<TimedPreconditioner*>& wrappers() {
    static std::vector<TimedPreconditioner*> list;
    return list;
}

constexpr const char* wrapped_backend = "perfbench-timed";

void register_wrapper() {
    vb::precond::register_backend<double>(
        wrapped_backend,
        [](const Csr& a, const vb::precond::Config& config) {
            auto inner_config = config;
            inner_config.backend = kBackend;
            auto timed = std::make_unique<TimedPreconditioner>(
                vb::precond::make_preconditioner<double>(a, inner_config),
                nullptr);
            wrappers().push_back(timed.get());
            return vb::precond::PreconditionerPtr<double>(std::move(timed));
        });
}

/// The traced run: per-layer metrics of onboarding and of `passes`
/// ladder passes through wrapped sessions, each preceded by plain steps
/// on the plain engine `plain` at the rates up to the busy one. The
/// overhead is the median over passes of the change in summed p50
/// latency over those rates.
void traced_run(const ServiceRunner& runner, const Onboarding& plain,
                std::size_t passes, std::mt19937_64& rng, SpanLog& log,
                Report& report) {
    const auto& traffic = runner.traffic();

    // Symbolic layer: once per distinct tenant pattern.
    double symbolic = 0.0, supervariable = 0.0, plan = 0.0;
    std::vector<std::uint64_t> seen;
    for (const auto& t : runner.tenants()) {
        const Csr a = fresh_copy(t.variants[0]);
        if (std::find(seen.begin(), seen.end(), a.pattern_hash()) !=
            seen.end()) {
            continue;
        }
        seen.push_back(a.pattern_hash());
        const auto t0 = Clock::now();
        const auto sym =
            vb::precond::make_symbolic<double>(a, precond_config());
        const auto t1 = Clock::now();
        log.add("precond.make_symbolic", t0, t1);
        symbolic += seconds_between(t0, t1);
        supervariable += sym->blocking_seconds;
        plan += sym->plan_seconds;
    }
    report.metric("blocking.symbolic_s", symbolic);
    report.metric("blocking.supervariable_busy_s", supervariable);
    report.metric("blocking.plan_busy_s", plan);

    register_wrapper();
    auto config = precond_config();
    config.backend = wrapped_backend;
    Onboarding o = runner.open(config, true);
    double blocks = 0.0, rows = 0.0, lane = 0.0, degraded = 0.0;
    double gather = 0.0, factorize = 0.0, pack = 0.0, recovery = 0.0;
    double flops = 0.0, numeric = 0.0;
    for (std::size_t i = 0; i < wrappers().size(); ++i) {
        numeric += o.open_seconds.at(i);
        const auto* bj = wrappers()[i]->block_jacobi();
        if (bj == nullptr) {
            continue;
        }
        blocks += static_cast<double>(bj->layout().count());
        rows += static_cast<double>(bj->layout().total_rows());
        lane += static_cast<double>(bj->num_simd_blocks());
        degraded += static_cast<double>(bj->recovery_summary().degraded());
        const auto& ph = bj->setup_phases();
        gather += ph.gather_seconds;
        factorize += ph.factorize_seconds;
        pack += ph.pack_seconds;
        recovery += ph.recovery_seconds;
        for (const auto m : bj->layout().sizes()) {
            flops += vb::core::getrf_flops(m);
        }
    }
    const auto cache = o.engine->stats().cache;
    report.metric("blocking.blocks", blocks);
    report.metric("blocking.mean_block_size", blocks > 0 ? rows / blocks : 0);
    report.metric("precond.numeric_s", numeric);
    report.metric("precond.gather_busy_s", gather);
    report.metric("precond.factorize_busy_s", factorize);
    report.metric("precond.pack_busy_s", pack);
    report.metric("precond.recovery_s", recovery);
    report.metric("precond.lane_block_frac", blocks > 0 ? lane / blocks : 0);
    report.metric("precond.degraded_blocks", degraded);
    report.metric("core.getrf_gflops_busy",
                  factorize > 0.0 ? flops / factorize * 1e-9 : 0.0);
    report.metric("service.plan_hit_ratio",
                  static_cast<double>(cache.reuses) /
                      static_cast<double>(cache.builds + cache.reuses));
    runner.exercise(o, report);

    auto& registry = vb::obs::Registry::global();
    auto& pool = vb::ThreadPool::global();
    double apply0 = 0.0, calls0 = 0.0, bytes0 = 0.0, refresh0 = 0.0;
    for (const auto* w : wrappers()) {
        apply0 += w->apply_seconds();
        calls0 += static_cast<double>(w->apply_calls());
        bytes0 += w->apply_bytes_total();
        refresh0 += w->refresh_seconds();
    }
    const auto stats0 = o.engine->stats();
    const auto traffic0 = registry.traffic();
    std::vector<Step> steps;
    std::vector<double> overhead;
    PoolDelta d;
    for (std::size_t pass = 0; pass < passes; ++pass) {
        double plain_p50 = 0.0, traced_p50 = 0.0;
        for (const double rate : traffic.rates) {
            if (rate <= traffic.busy_rate) {
                const Step step = runner.run_step(plain, rate, rng, nullptr);
                count_requests(report, step);
                plain_p50 += rate_stats({step}, traffic).p50_ms;
            }
        }
        vb::ThreadPool::set_stats_enabled(true);
        const auto pool0 = pool.telemetry();
        for (const double rate : traffic.rates) {
            steps.push_back(runner.run_step(o, rate, rng, &log));
            count_requests(report, steps.back());
            const auto stats = rate_stats({steps.back()}, traffic);
            print_rate(report, stats);
            if (rate <= traffic.busy_rate) {
                traced_p50 += stats.p50_ms;
            }
        }
        const auto pool_pass = pool_delta(pool0, pool.telemetry());
        vb::ThreadPool::set_stats_enabled(false);
        d.busy_frac += pool_pass.busy_frac;
        d.steals += pool_pass.steals;
        d.parks += pool_pass.parks;
        overhead.push_back(traced_p50 / plain_p50 - 1.0);
    }
    const auto traffic1 = registry.traffic();
    const auto stats1 = o.engine->stats();
    double apply = -apply0, calls = -calls0, bytes = -bytes0,
           refresh = -refresh0;
    for (const auto* w : wrappers()) {
        apply += w->apply_seconds();
        calls += static_cast<double>(w->apply_calls());
        bytes += w->apply_bytes_total();
        refresh += w->refresh_seconds();
    }

    double requests = 0.0, solve = 0.0, iterations = 0.0, residual = 0.0,
           latency = 0.0;
    vb::solvers::PhaseSeconds phases;
    for (const auto& step : steps) {
        for (const auto& s : step.samples) {
            requests += 1.0;
            solve += s.solve;
            iterations += static_cast<double>(s.iterations);
            phases.spmv += s.phases.spmv;
            phases.precond += s.phases.precond;
            phases.blas1 += s.phases.blas1;
            phases.orth += s.phases.orth;
            if (s.ok) {
                residual += s.latency - s.late - s.queue - s.refresh - s.solve;
                latency += s.latency;
            }
        }
    }
    // Totals are reported per traced ladder pass.
    const auto per = [&](double total) {
        return total / static_cast<double>(passes);
    };
    report.metric("precond.refresh_s", per(refresh));
    report.metric("precond.apply_s", per(apply));
    report.metric("precond.apply_calls", per(calls));
    report.metric("precond.apply_us", calls > 0 ? apply / calls * 1e6 : 0);
    report.metric("precond.apply_gbs_computed",
                  apply > 0 ? bytes / apply * 1e-9 : 0);
    report.metric("solvers.solve_s", per(solve));
    report.metric("solvers.iterations", per(iterations));
    report.metric("solvers.iter_us",
                  iterations > 0 ? solve / iterations * 1e6 : 0);
    report.metric("solvers.spmv_s", per(phases.spmv));
    report.metric("solvers.precond_s", per(phases.precond));
    report.metric("solvers.blas1_s", per(phases.blas1));
    report.metric("solvers.orth_s", per(phases.orth));
    report.metric("solvers.unattributed_s", per(solve - phases.total()));
    const auto spmv1 = traffic1.find("solver.spmv");
    if (spmv1 != traffic1.end()) {
        const auto spmv0 = traffic0.find("solver.spmv");
        const bool had = spmv0 != traffic0.end();
        const double b = spmv1->second.bytes - (had ? spmv0->second.bytes : 0);
        const double t =
            spmv1->second.seconds - (had ? spmv0->second.seconds : 0);
        report.metric("sparse.spmv_gbs_computed", t > 0 ? b / t * 1e-9 : 0);
    }

    // Request-level breakdown at the busy rate.
    std::vector<Sample> busy;
    for (const auto& step : steps) {
        if (step.rate == traffic.busy_rate) {
            busy.insert(busy.end(), step.samples.begin(), step.samples.end());
        }
    }
    std::vector<double> queue, refresh_ms, solve_ms, residual_ms, late;
    for (const auto& s : busy) {
        queue.push_back(s.queue * 1e3);
        solve_ms.push_back(s.solve * 1e3);
        late.push_back(s.late * 1e3);
        if (s.carried_values) {
            refresh_ms.push_back(s.refresh * 1e3);
        }
        if (s.ok) {
            residual_ms.push_back(
                (s.latency - s.late - s.queue - s.refresh - s.solve) * 1e3);
        }
    }
    report.metric("service.queue_ms_p50", percentile(queue, 50));
    report.metric("service.queue_ms_p99", percentile(queue, 99));
    report.metric("service.refresh_ms_p50", percentile(refresh_ms, 50));
    report.metric("service.solve_ms_p50", percentile(solve_ms, 50));
    report.metric("service.solve_ms_p99", percentile(solve_ms, 99));
    report.metric("service.residual_ms_p99", percentile(residual_ms, 99));
    report.metric("service.gen_late_ms_p99", percentile(late, 99));
    report.metric("service.rejected",
                  per(static_cast<double>(stats1.rejected - stats0.rejected)));
    report.metric("service.peak_depth", static_cast<double>(stats1.peak_depth));
    report.metric("base.pool.busy_frac", per(d.busy_frac));
    report.metric("base.pool.steals", per(d.steals));
    report.metric("base.pool.parks", per(d.parks));
    report.metric("base.pool.parks_per_request", d.parks / requests);
    // Per request, the part of its latency that neither the generator's
    // lateness nor the engine's own queue/refresh/solve timers cover.
    report.metric("trace.unattributed_s", residual / requests);
    report.metric("trace.unattributed_frac",
                  latency > 0 ? residual / latency : 0);
    report.metric("trace.overhead_frac", median(overhead));
}

}  // namespace

void run_service_workload(const Args& args,
                          const vb::obs::JsonValue& workload,
                          Report& report) {
    const ServiceRunner runner(build_tenants(workload, args.seed),
                               read_traffic(workload));
    const auto& traffic = runner.traffic();
    const std::size_t passes = pass_count(args.seconds, kNominalPassSeconds);
    // The generator sleeps until each arrival; a 1 ns timer slack keeps
    // the kernel from rounding those wake-ups by its default 50 us.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

    // Onboarding in fresh engines: the first engine serves the traffic,
    // and the plain run repeats onboarding before every ladder step, so
    // its repetitions are spread over the whole run rather than taken
    // during one stretch of it.
    std::vector<double> setup, tts, step, refresh, iterations;
    long long mismatches = 0;
    std::vector<vb::index_type> reference;
    const auto onboard = [&] {
        Onboarding o = runner.open(precond_config(), false);
        runner.exercise(o, report);
        setup.push_back(o.setup);
        tts.push_back(o.setup + o.first_solve);
        step.push_back(o.step);
        refresh.push_back(o.refresh);
        iterations.push_back(static_cast<double>(o.iterations));
        if (reference.empty()) {
            reference = o.fingerprint;
        }
        for (std::size_t i = 0; i < reference.size(); ++i) {
            mismatches += reference[i] != o.fingerprint.at(i) ? 1 : 0;
        }
        return o;
    };
    const auto note_determinism = [&] {
        report.note("determinism: " + std::to_string(mismatches) +
                    " iteration-count mismatches across " +
                    std::to_string(setup.size()) + " onboardings");
    };
    Onboarding o = onboard();

    std::mt19937_64 rng(args.seed ^ 0xA0761D6478BD642FULL);
    if (args.trace) {
        for (int r = 1; r < kTracedOnboardings; ++r) {
            onboard();
        }
        note_determinism();
        SpanLog log;
        report.metric("determinism.iteration_mismatches",
                      static_cast<double>(mismatches));
        traced_run(runner, o, std::max<std::size_t>(1, passes / 2), rng, log,
                   report);
        if (!args.trace_out.empty()) {
            log.write(args.trace_out);
        }
        return;
    }

    // A pass climbs the ladder, then repeats the light and busy rates.
    std::vector<std::size_t> order(traffic.rates.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t visit = 1; visit < kLatencyStepsPerPass; ++visit) {
        for (std::size_t k = 0; traffic.rates[k] <= traffic.busy_rate; ++k) {
            order.push_back(k);
        }
    }
    std::vector<std::vector<Step>> by_rate(traffic.rates.size());
    for (std::size_t pass = 0; pass < passes; ++pass) {
        for (const std::size_t k : order) {
            onboard();
            by_rate[k].push_back(runner.run_step(o, traffic.rates[k], rng,
                                                 nullptr));
            count_requests(report, by_rate[k].back());
        }
    }
    note_determinism();
    std::vector<RateStats> stats;
    for (const auto& steps : by_rate) {
        stats.push_back(rate_stats(steps, traffic));
        print_rate(report, stats.back());
    }
    const auto busy = static_cast<std::size_t>(
        std::find(traffic.rates.begin(), traffic.rates.end(),
                  traffic.busy_rate) -
        traffic.rates.begin());
    report.metric("tts_s", median(tts));
    report.metric("setup_s", median(setup));
    report.metric("step_s", median(step));
    report.metric("refresh_s", median(refresh));
    report.metric("iterations", median(iterations));
    report.metric("p50_ms_light", stats.front().p50_ms);
    report.metric("p99_ms_light", stats.front().best_p99_ms);
    report.metric("p50_ms_busy", stats[busy].p50_ms);
    report.metric("p99_ms_busy", stats[busy].best_p99_ms);
    report.metric("max_rate_rps", max_rate(stats, traffic.p99_limit_ms));
}

}  // namespace perfbench
