// Shared pieces of the end-to-end benchmark program: command line, the
// shared configuration and the workload definitions, the metric sink
// that prints the result line, the in-memory span log of the traced run,
// the forwarding preconditioner that times apply/refresh, and the
// residual check every solve goes through.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/config.hpp"
#include "solvers/config.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

namespace vb = vbatch;
using Clock = std::chrono::steady_clock;
using Csr = vb::sparse::Csr<double>;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
}
inline double seconds_since(Clock::time_point t0) {
    return seconds_between(t0, Clock::now());
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;  ///< span file of the traced run ("" = none)
};

/// Throws std::runtime_error with a usage message on malformed input.
Args parse_args(int argc, char** argv);

// The configuration every workload shares. It is part of the benchmark's
// definition, so it is fixed here rather than read from a file.
inline constexpr const char* kBackend = "lu-simd";
inline constexpr vb::index_type kMaxBlockSize = 32;
inline constexpr const char* kSolver = "idr";
inline constexpr double kRelTol = 1e-6;
inline constexpr vb::index_type kMaxIters = 10000;
/// A converged solve passes when ||b - Ax|| / ||b|| <= kResidualSlack *
/// kRelTol: IDR's recursive residual drifts from the true one by a small
/// factor, a wrong answer misses by orders of magnitude.
inline constexpr double kResidualSlack = 10.0;
/// Relative size of the seeded value perturbations (tenant values and
/// value updates): small enough that every matrix keeps converging.
inline constexpr double kUpdateScale = 1e-3;

vb::precond::Config precond_config();
vb::solvers::Config solver_config(bool collect_phase_times);

/// Where the workload definitions live, relative to the repository root
/// (the working directory of the benchmark).
inline constexpr const char* kWorkloadsPath = "perfbench/workloads.json";

/// The entry of `name` in workloads.json; throws when absent.
vb::obs::JsonValue load_workload(const std::string& name);

/// Typed members of a workloads.json object; throw on a missing or
/// mistyped member.
double json_number(const vb::obs::JsonValue& v, const char* key);
std::string json_string(const vb::obs::JsonValue& v, const char* key);
std::vector<std::string> json_strings(const vb::obs::JsonValue& v,
                                      const char* key);
std::vector<double> json_numbers(const vb::obs::JsonValue& v,
                                 const char* key);

/// Ascending-sort copy helpers over the library's percentile.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
    return percentile(std::move(values), 50.0);
}

/// Repetitions of a workload's unit of work (a pass) in one run. The
/// count depends only on the time budget, never on how fast the passes
/// run, so two builds measured with the same --seconds take the median of
/// the same number of passes. `nominal_pass_seconds` is the pass duration
/// on a 4-core x86-64 virtual machine.
std::size_t pass_count(double seconds, double nominal_pass_seconds);

struct MetricSpec {
    const char* name;
    const char* unit;
};
/// Every metric a plain run prints (BENCHMARK.json "end_to_end").
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every metric a traced run prints (BENCHMARK.json "per_layer").
const std::vector<MetricSpec>& per_layer_metrics();

/// Collects the metrics and operation counts of one run and prints the
/// result object as the last line of standard output.
class Report {
public:
    /// Record a metric; the name must be one of `specs` (checked by
    /// print), and its unit is taken from there.
    void metric(const std::string& name, double value);
    /// Print a human-readable line (never the last line of output).
    void note(const std::string& line) const;
    /// One operation (a solve or a service request) and its verdict.
    void operation(bool ok) {
        ++attempted_;
        failed_ += ok ? 0 : 1;
    }
    /// A wrong answer (as opposed to a refused or unconverged one)
    /// makes the whole run incorrect.
    void wrong_answer() { correct_ = false; }
    /// Print the result line with exactly the metrics of `specs`. A
    /// metric the workload has no layer for is printed as 0 (per-layer
    /// set only); a missing end-to-end metric is a bug here and throws.
    void print(const std::vector<MetricSpec>& specs,
               bool zero_fill_missing) const;

private:
    std::map<std::string, double> metrics_;
    long long attempted_ = 0;
    long long failed_ = 0;
    bool correct_ = true;
};

/// Spans of the traced run, kept in memory and written once at the end
/// (Chrome trace_event JSON). Thread-safe: service requests complete on
/// many threads.
class SpanLog {
public:
    SpanLog();
    /// Record [t0, t1) on the calling thread. `request` groups the spans
    /// of one service request (-1 = none); returns the span id. `name`
    /// must outlive the log.
    std::int64_t add(const char* name, Clock::time_point t0,
                     Clock::time_point t1, std::int64_t parent = -1,
                     std::int64_t request = -1);
    /// Open a span now (so children can name it as parent); close it
    /// with end().
    std::int64_t begin(const char* name);
    void end(std::int64_t id);
    void write(const std::string& path) const;

private:
    struct Span {
        const char* name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int64_t parent;
        std::int64_t request;
        std::uint64_t thread;
    };
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Forwarding preconditioner of the traced run: times every apply and
/// refresh of the wrapped preconditioner and logs each as a span under
/// the span id set by `set_parent`. One instance is used by one solve at
/// a time (the solvers and the service sessions serialize their use).
class TimedPreconditioner final : public vb::precond::Preconditioner<double> {
public:
    TimedPreconditioner(vb::precond::PreconditionerPtr<double> inner,
                        SpanLog* log);

    void apply(std::span<const double> r,
               std::span<double> z) const override;
    void refresh(const Csr& a) override;
    std::string name() const override { return inner_->name(); }
    double setup_seconds() const override { return inner_->setup_seconds(); }
    vb::size_type num_blocks() const override { return inner_->num_blocks(); }
    vb::core::RecoverySummary recovery_summary() const override {
        return inner_->recovery_summary();
    }
    double apply_flops() const override { return inner_->apply_flops(); }
    double apply_bytes() const override { return inner_->apply_bytes(); }

    void set_parent(std::int64_t span) { parent_ = span; }
    /// The wrapped block-Jacobi preconditioner (nullptr for others).
    const vb::precond::BlockJacobi<double>* block_jacobi() const;

    double apply_seconds() const { return apply_seconds_; }
    long long apply_calls() const { return apply_calls_; }
    double apply_bytes_total() const { return apply_bytes_total_; }
    double refresh_seconds() const { return refresh_seconds_; }

private:
    vb::precond::PreconditionerPtr<double> inner_;
    SpanLog* log_;
    std::int64_t parent_ = -1;
    mutable double apply_seconds_ = 0.0;
    mutable long long apply_calls_ = 0;
    mutable double apply_bytes_total_ = 0.0;
    double refresh_seconds_ = 0.0;
};

/// ||b - A x|| / ||b|| recomputed with the public Csr SpMV.
double true_relative_residual(const Csr& a, std::span<const double> b,
                              std::span<const double> x);

/// Verdict of one solve: it converged and its true residual is within
/// kResidualSlack * kRelTol.
bool solve_ok(const vb::solvers::SolveResult& result, double true_residual);

/// A fresh matrix over copies of `a`'s arrays: no structure cache
/// (pattern hash, SpMV partition) carries over, so setups on it are cold.
Csr fresh_copy(const Csr& a);

/// `base` with every value scaled by (1 + scale * u), u uniform in
/// [-1, 1) from a generator seeded with `seed`: same pattern, new values.
std::vector<double> perturbed_values(const Csr& base, double scale,
                                     std::uint64_t seed);

/// Pool telemetry difference between two snapshots.
struct PoolDelta {
    double busy_frac = 0.0;
    double steals = 0.0;
    double parks = 0.0;
};
PoolDelta pool_delta(const vb::obs::PoolTelemetry& before,
                     const vb::obs::PoolTelemetry& after);

void run_suite_workload(const Args& args,
                        const vb::obs::JsonValue& workload, Report& report);
void run_service_workload(const Args& args,
                          const vb::obs::JsonValue& workload,
                          Report& report);

}  // namespace perfbench
