#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "base/statistics.hpp"

namespace perfbench {

namespace {

[[noreturn]] void usage(const std::string& why) {
    throw std::runtime_error(
        why +
        "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--trace-out <file>]");
}

const vb::obs::JsonValue& member(const vb::obs::JsonValue& v,
                                 const char* key) {
    const auto* m = v.find(key);
    if (m == nullptr) {
        throw std::runtime_error(std::string("workloads.json: missing '") +
                                 key + "'");
    }
    return *m;
}

[[noreturn]] void mistyped(const char* key, const char* what) {
    throw std::runtime_error(std::string("workloads.json: '") + key +
                             "' must be " + what);
}

}  // namespace

Args parse_args(int argc, char** argv) {
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + key);
        }
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                args.workload = value;
                have_workload = true;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1") {
                    usage("--trace takes 0 or 1");
                }
                args.trace = value == "1";
            } else if (key == "--trace-out") {
                args.trace_out = value;
            } else {
                usage("unknown argument " + key);
            }
        } catch (const std::logic_error&) {
            usage("malformed value for " + key + ": " + value);
        }
    }
    if (!have_workload) {
        usage("--workload is required");
    }
    if (!(args.seconds > 0.0)) {
        usage("--seconds must be positive");
    }
    return args;
}

vb::precond::Config precond_config() {
    vb::precond::Config c;
    c.backend = kBackend;
    c.max_block_size = kMaxBlockSize;
    return c;
}

vb::solvers::Config solver_config(bool collect_phase_times) {
    vb::solvers::Config c;
    c.method = kSolver;
    c.rel_tol = kRelTol;
    c.max_iters = kMaxIters;
    c.collect_phase_times = collect_phase_times;
    return c;
}

vb::obs::JsonValue load_workload(const std::string& name) {
    std::ifstream in(kWorkloadsPath);
    if (!in) {
        throw std::runtime_error(std::string("cannot read ") +
                                 kWorkloadsPath);
    }
    std::stringstream text;
    text << in.rdbuf();
    const auto root = vb::obs::parse_json(text.str());
    const auto* entry = member(root, "workloads").find(name);
    if (entry == nullptr || !entry->is_object()) {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    return *entry;
}

double json_number(const vb::obs::JsonValue& v, const char* key) {
    const auto& m = member(v, key);
    if (!m.is_number()) {
        mistyped(key, "a number");
    }
    return m.number;
}

std::string json_string(const vb::obs::JsonValue& v, const char* key) {
    const auto& m = member(v, key);
    if (!m.is_string()) {
        mistyped(key, "a string");
    }
    return m.string;
}

std::vector<std::string> json_strings(const vb::obs::JsonValue& v,
                                      const char* key) {
    std::vector<std::string> out;
    for (const auto& item : member(v, key).items) {
        if (!item.is_string()) {
            mistyped(key, "a list of strings");
        }
        out.push_back(item.string);
    }
    return out;
}

std::vector<double> json_numbers(const vb::obs::JsonValue& v,
                                 const char* key) {
    std::vector<double> out;
    for (const auto& item : member(v, key).items) {
        if (!item.is_number()) {
            mistyped(key, "a list of numbers");
        }
        out.push_back(item.number);
    }
    return out;
}

std::size_t pass_count(double seconds, double nominal_pass_seconds) {
    // At least three, so the median never rests on a single pass.
    return std::max<std::size_t>(
        3, static_cast<std::size_t>(std::lround(seconds /
                                                nominal_pass_seconds)));
}

double percentile(std::vector<double> values, double p) {
    std::sort(values.begin(), values.end());
    return vb::sorted_percentile(values, p);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
    static const std::vector<MetricSpec> specs = {
        {"tts_s", "s"},           {"setup_s", "s"},
        {"step_s", "s"},          {"refresh_s", "s"},
        {"iterations", "count"},  {"p50_ms_light", "ms"},
        {"p99_ms_light", "ms"},   {"p50_ms_busy", "ms"},
        {"p99_ms_busy", "ms"},    {"max_rate_rps", "1/s"},
    };
    return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
    static const std::vector<MetricSpec> specs = {
        {"blocking.symbolic_s", "s"},
        {"blocking.supervariable_busy_s", "s"},
        {"blocking.plan_busy_s", "s"},
        {"blocking.blocks", "count"},
        {"blocking.mean_block_size", "rows"},
        {"precond.numeric_s", "s"},
        {"precond.gather_busy_s", "s"},
        {"precond.factorize_busy_s", "s"},
        {"precond.pack_busy_s", "s"},
        {"precond.recovery_s", "s"},
        {"precond.lane_block_frac", "ratio"},
        {"precond.degraded_blocks", "count"},
        {"precond.refresh_s", "s"},
        {"precond.apply_s", "s"},
        {"precond.apply_calls", "count"},
        {"precond.apply_us", "us"},
        {"precond.apply_gbs_computed", "GB/s"},
        {"core.getrf_gflops_busy", "GFLOP/s"},
        {"solvers.solve_s", "s"},
        {"solvers.iterations", "count"},
        {"solvers.iter_us", "us"},
        {"solvers.spmv_s", "s"},
        {"solvers.precond_s", "s"},
        {"solvers.blas1_s", "s"},
        {"solvers.orth_s", "s"},
        {"solvers.unattributed_s", "s"},
        {"sparse.spmv_gbs_computed", "GB/s"},
        {"service.queue_ms_p50", "ms"},
        {"service.queue_ms_p99", "ms"},
        {"service.refresh_ms_p50", "ms"},
        {"service.solve_ms_p50", "ms"},
        {"service.solve_ms_p99", "ms"},
        {"service.residual_ms_p99", "ms"},
        {"service.rejected", "count"},
        {"service.peak_depth", "count"},
        {"service.plan_hit_ratio", "ratio"},
        {"service.gen_late_ms_p99", "ms"},
        {"base.pool.busy_frac", "ratio"},
        {"base.pool.steals", "count"},
        {"base.pool.parks", "count"},
        {"base.pool.parks_per_request", "ratio"},
        {"trace.unattributed_s", "s"},
        {"trace.unattributed_frac", "ratio"},
        {"trace.overhead_frac", "ratio"},
        {"determinism.iteration_mismatches", "count"},
    };
    return specs;
}

void Report::metric(const std::string& name, double value) {
    metrics_[name] = value;
}

void Report::note(const std::string& line) const {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

void Report::print(const std::vector<MetricSpec>& specs,
                   bool zero_fill_missing) const {
    for (const auto& [name, value] : metrics_) {
        const bool known =
            std::any_of(specs.begin(), specs.end(),
                        [&](const MetricSpec& s) { return name == s.name; });
        if (!known) {
            throw std::logic_error("metric '" + name +
                                   "' is not in this run's metric set");
        }
    }
    std::string line = "{\"correct\": ";
    line += correct_ ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto& spec : specs) {
        const auto it = metrics_.find(spec.name);
        if (it == metrics_.end() && !zero_fill_missing) {
            throw std::logic_error(std::string("metric '") + spec.name +
                                   "' was not measured");
        }
        double value = it == metrics_.end() ? 0.0 : it->second;
        if (!std::isfinite(value)) {
            throw std::logic_error(std::string("metric '") + spec.name +
                                   "' is not finite");
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        line += first ? "" : ", ";
        first = false;
        line += "\"";
        line += spec.name;
        line += "\": {\"value\": ";
        line += buf;
        line += ", \"unit\": \"";
        line += spec.unit;
        line += "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

std::int64_t SpanLog::add(const char* name, Clock::time_point t0,
                          Clock::time_point t1, std::int64_t parent,
                          std::int64_t request) {
    const auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                    origin_)
            .count();
    };
    const auto thread =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, ns(t0), ns(t1), parent, request, thread});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanLog::begin(const char* name) {
    const auto now = Clock::now();
    return add(name, now, now);
}

void SpanLog::end(std::int64_t id) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - origin_)
                        .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end_ns = ns;
}

void SpanLog::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write trace " + path);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::uint64_t, int> tids;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        const int tid =
            tids.emplace(s.thread, static_cast<int>(tids.size())).first->second;
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %zu, \"parent\": %lld, \"request\": %lld}}",
                      i == 0 ? "" : ",\n", s.name, tid,
                      static_cast<double>(s.start_ns) * 1e-3,
                      static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                      static_cast<long long>(s.parent),
                      static_cast<long long>(s.request));
        out << buf;
    }
    out << "\n]}\n";
    if (!out.flush()) {
        throw std::runtime_error("failed writing trace " + path);
    }
}

TimedPreconditioner::TimedPreconditioner(
    vb::precond::PreconditionerPtr<double> inner, SpanLog* log)
    : inner_(std::move(inner)), log_(log) {}

void TimedPreconditioner::apply(std::span<const double> r,
                                std::span<double> z) const {
    const auto t0 = Clock::now();
    inner_->apply(r, z);
    const auto t1 = Clock::now();
    apply_seconds_ += seconds_between(t0, t1);
    ++apply_calls_;
    apply_bytes_total_ += inner_->apply_bytes();
    if (log_ != nullptr) {
        log_->add("precond.apply", t0, t1, parent_);
    }
}

void TimedPreconditioner::refresh(const Csr& a) {
    const auto t0 = Clock::now();
    inner_->refresh(a);
    const auto t1 = Clock::now();
    refresh_seconds_ += seconds_between(t0, t1);
    if (log_ != nullptr) {
        log_->add("precond.refresh", t0, t1, parent_);
    }
}

const vb::precond::BlockJacobi<double>*
TimedPreconditioner::block_jacobi() const {
    return dynamic_cast<const vb::precond::BlockJacobi<double>*>(
        inner_.get());
}

double true_relative_residual(const Csr& a, std::span<const double> b,
                              std::span<const double> x) {
    std::vector<double> r(b.begin(), b.end());
    a.spmv(-1.0, x, 1.0, r);
    double rr = 0.0, bb = 0.0;
    for (std::size_t i = 0; i < r.size(); ++i) {
        rr += r[i] * r[i];
        bb += b[i] * b[i];
    }
    return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

bool solve_ok(const vb::solvers::SolveResult& result, double true_residual) {
    return result.converged() && true_residual <= kResidualSlack * kRelTol;
}

Csr fresh_copy(const Csr& a) {
    const auto rp = a.row_ptrs();
    const auto ci = a.col_idxs();
    const auto v = a.values();
    return Csr(a.num_rows(), a.num_cols(),
               std::vector<vb::size_type>(rp.begin(), rp.end()),
               std::vector<vb::index_type>(ci.begin(), ci.end()),
               std::vector<double>(v.begin(), v.end()));
}

std::vector<double> perturbed_values(const Csr& base, double scale,
                                     std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    const auto v = base.values();
    std::vector<double> out(v.begin(), v.end());
    for (auto& x : out) {
        x *= 1.0 + scale * u(rng);
    }
    return out;
}

PoolDelta pool_delta(const vb::obs::PoolTelemetry& before,
                     const vb::obs::PoolTelemetry& after) {
    PoolDelta d;
    const double wall = after.wall_seconds - before.wall_seconds;
    const double capacity = wall * static_cast<double>(after.workers);
    d.busy_frac = capacity > 0.0
                      ? (after.busy_seconds - before.busy_seconds) / capacity
                      : 0.0;
    d.steals = static_cast<double>(after.steals - before.steals);
    d.parks = static_cast<double>(after.parks - before.parks);
    return d;
}

}  // namespace perfbench
