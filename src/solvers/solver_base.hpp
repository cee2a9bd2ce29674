// Common options/result types for the iterative solvers.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "base/types.hpp"
#include "core/block_status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "precond/preconditioner.hpp"

namespace vbatch::solvers {

struct SolverOptions {
    /// Stop when ||r|| <= rel_tol * ||r0|| (the paper stops after the
    /// relative residual norm dropped six orders of magnitude).
    double rel_tol = 1e-6;
    /// Iteration budget; the paper allows up to 10,000.
    index_type max_iters = 10000;
    /// Record ||r|| after every iteration (costs memory, for plots/tests).
    bool keep_residual_history = false;
    /// Attribute wall time to the spmv / preconditioner-apply / BLAS-1 /
    /// orthogonalization phases and export roofline traffic for them.
    /// Costs two clock reads per bracketed operation when on; the
    /// disarmed cost is one branch per operation.
    bool collect_phase_times = false;
};

/// Wall-time attribution of one solve across its hot-path phases.
struct PhaseSeconds {
    double spmv = 0.0;     ///< operator applications
    double precond = 0.0;  ///< preconditioner applies
    double blas1 = 0.0;    ///< vector updates, dots, norms
    double orth = 0.0;     ///< shadow-space (re)orthogonalization sweeps
    double total() const noexcept { return spmv + precond + blas1 + orth; }
};

/// Scope guard accumulating its lifetime into one PhaseSeconds field.
/// Disarmed cost is a branch -- no clock reads.
class PhaseTimer {
public:
    PhaseTimer(bool armed, double& acc) noexcept
        : acc_(armed ? &acc : nullptr) {
        if (acc_ != nullptr) {
            start_ = std::chrono::steady_clock::now();
        }
    }
    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;
    ~PhaseTimer() {
        if (acc_ != nullptr) {
            *acc_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
        }
    }

private:
    double* acc_;
    std::chrono::steady_clock::time_point start_{};
};

/// Why the iteration stopped.
enum class SolveStatus {
    /// Reached the relative-residual tolerance.
    converged,
    /// Exhausted the iteration budget.
    max_iters,
    /// The method broke down (division by a vanishing inner product)
    /// before reaching the tolerance.
    breakdown,
    /// Did not converge, and the preconditioner reported degraded blocks
    /// during its setup (boosted/fallback/identity) -- the likely cause.
    preconditioner_degraded,
};

inline const char* to_string(SolveStatus status) noexcept {
    switch (status) {
    case SolveStatus::converged: return "converged";
    case SolveStatus::max_iters: return "max_iters";
    case SolveStatus::breakdown: return "breakdown";
    case SolveStatus::preconditioner_degraded:
        return "preconditioner_degraded";
    }
    return "unknown";
}

struct SolveResult {
    SolveStatus status = SolveStatus::max_iters;
    /// Consumed iterations. One iteration = one operator (SpMV)
    /// application, the convention MAGMA-sparse reports.
    index_type iterations = 0;
    double initial_residual = 0.0;
    double final_residual = 0.0;
    /// Wall time of the iterative phase (excludes preconditioner setup).
    double solve_seconds = 0.0;
    /// Per-status block counts of the preconditioner setup (all zero for
    /// preconditioners without a recovery pipeline).
    core::RecoverySummary preconditioner;
    std::vector<double> residual_history;
    /// Wall time attributed to each hot-path phase (all zero unless
    /// SolverOptions::collect_phase_times was set).
    PhaseSeconds phase_seconds;
    /// Cumulative phase_seconds snapshot at every recorded residual
    /// sample, parallel to residual_history (filled when both
    /// keep_residual_history and collect_phase_times are set). Diff
    /// consecutive entries for per-iteration attribution.
    std::vector<PhaseSeconds> phase_history;

    bool converged() const noexcept {
        return status == SolveStatus::converged;
    }
    bool breakdown() const noexcept {
        return status == SolveStatus::breakdown;
    }

    double relative_residual() const {
        return initial_residual > 0.0 ? final_residual / initial_residual
                                      : final_residual;
    }
};

/// Record one residual sample: appends to the public residual_history
/// when the caller asked for it, and emits a per-iteration trace counter
/// when tracing is armed. All solvers funnel their per-iteration
/// recording through this helper so the trace and the history stay
/// consistent.
inline void record_residual(const SolverOptions& opts, SolveResult& result,
                            double normr) {
    if (opts.keep_residual_history) {
        result.residual_history.push_back(normr);
        if (opts.collect_phase_times) {
            result.phase_history.push_back(result.phase_seconds);
        }
    }
    obs::counter("residual", normr);
}

/// Canonical flop/byte totals of a finished solve, per phase family,
/// under the core/flops.hpp + core/bytes.hpp models. Phases without a
/// byte model (e.g. orthogonalization) stay zero and are skipped.
struct SolverTraffic {
    double spmv_flops = 0.0;
    double spmv_bytes = 0.0;
    double blas1_flops = 0.0;
    double blas1_bytes = 0.0;
    double precond_flops = 0.0;
    double precond_bytes = 0.0;
};

/// Export a finished solve's phase attribution into the metrics
/// registry: per-phase seconds counters (solver.<phase>_seconds) plus
/// roofline traffic for the phases with canonical byte models. No-op
/// when attribution was off.
inline void export_phase_attribution(const SolverOptions& opts,
                                     const SolveResult& result,
                                     const SolverTraffic& traffic) {
    if (!opts.collect_phase_times) {
        return;
    }
    auto& registry = obs::Registry::global();
    const auto& ph = result.phase_seconds;
    registry.add("solver.spmv_seconds", ph.spmv);
    registry.add("solver.precond_seconds", ph.precond);
    registry.add("solver.blas1_seconds", ph.blas1);
    registry.add("solver.orth_seconds", ph.orth);
    registry.add("solver.attributed_solves", 1.0);
    const auto problems = static_cast<size_type>(result.iterations);
    if (ph.spmv > 0.0 && traffic.spmv_bytes > 0.0) {
        registry.record_traffic("solver.spmv", traffic.spmv_flops,
                                traffic.spmv_bytes, ph.spmv, problems);
    }
    if (ph.blas1 > 0.0 && traffic.blas1_bytes > 0.0) {
        registry.record_traffic("solver.blas1", traffic.blas1_flops,
                                traffic.blas1_bytes, ph.blas1, problems);
    }
    if (ph.precond > 0.0 && traffic.precond_bytes > 0.0) {
        registry.record_traffic("solver.precond", traffic.precond_flops,
                                traffic.precond_bytes, ph.precond,
                                problems);
    }
}

/// Resolve the final SolveStatus from what the iteration observed, in
/// precedence order: converged > breakdown > preconditioner_degraded >
/// max_iters. Also snapshots the preconditioner's recovery summary so
/// callers can see what they iterated with.
template <typename T>
void finalize_result(SolveResult& result, bool converged, bool broke_down,
                     const precond::Preconditioner<T>& prec) {
    result.preconditioner = prec.recovery_summary();
    if (converged) {
        result.status = SolveStatus::converged;
    } else if (broke_down) {
        result.status = SolveStatus::breakdown;
    } else if (result.preconditioner.degraded() > 0) {
        result.status = SolveStatus::preconditioner_degraded;
    } else {
        result.status = SolveStatus::max_iters;
    }
}

}  // namespace vbatch::solvers
