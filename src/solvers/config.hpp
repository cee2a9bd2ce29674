// Solver configuration and factory, mirroring precond::Config /
// make_preconditioner: one POD carries the method key and the IDR(s)
// knobs, and make_solver turns it into a Solver the benches, examples and
// the service layer hold without naming the solver function.
//
// The only method is "idr", the IDR(4) of the paper's solver study.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "solvers/idr.hpp"
#include "solvers/solver_base.hpp"
#include "sparse/csr.hpp"

namespace vbatch::solvers {

/// Everything needed to select and tune a solver, in one place.
struct Config {
    /// Method key; "idr" is the only one.
    std::string method = "idr";
    /// Stop when ||r|| <= rel_tol * ||r0||.
    double rel_tol = 1e-6;
    /// Iteration budget.
    index_type max_iters = 10000;
    /// Record ||r|| after every iteration (memory; plots/tests).
    bool keep_residual_history = false;
    /// Phase-time attribution + roofline traffic export.
    bool collect_phase_times = false;
    /// IDR(s): shadow-space dimension.
    index_type idr_s = 4;
    /// IDR(s): seed of the random shadow space P.
    std::uint64_t idr_shadow_seed = 7;
    /// IDR(s): angle safeguard for the omega computation.
    double idr_kappa = 0.7;
    /// IDR(s): minimal-residual smoothing.
    bool idr_smoothing = false;

    /// The IDR(s) options these fields select.
    IdrOptions idr_options() const {
        IdrOptions o;
        o.rel_tol = rel_tol;
        o.max_iters = max_iters;
        o.keep_residual_history = keep_residual_history;
        o.collect_phase_times = collect_phase_times;
        o.s = idr_s;
        o.shadow_seed = idr_shadow_seed;
        o.kappa = idr_kappa;
        o.smoothing = idr_smoothing;
        return o;
    }
};

/// Solver handle: solve A x = b with the knobs baked in at make_solver
/// time. x holds the initial guess on entry and the solution on exit.
/// The options are immutable after construction, and the IDR workspace
/// (shadow space, bases, vectors) is kept for the next solve, so a
/// repeated solve of one size allocates nothing and reuses P. One
/// instance may be shared by concurrent solves on distinct vectors: the
/// workspace is taken with a try-lock, and a solve that finds it busy
/// runs in a workspace of its own, with bitwise the same result.
template <typename T>
class Solver {
public:
    explicit Solver(const IdrOptions& opts) : opts_(opts) {}
    SolveResult solve(const sparse::Csr<T>& a, std::span<const T> b,
                      std::span<T> x,
                      const precond::Preconditioner<T>& prec) const {
        std::unique_lock<std::mutex> lock(workspace_mutex_,
                                          std::try_to_lock);
        if (!lock.owns_lock()) {
            return idr(a, b, x, prec, opts_);
        }
        return idr(a, b, x, prec, opts_, workspace_);
    }

private:
    IdrOptions opts_;
    mutable std::mutex workspace_mutex_;
    mutable IdrWorkspace<T> workspace_;
};

template <typename T>
using SolverPtr = std::unique_ptr<Solver<T>>;

/// Build the solver selected by config.method. Throws
/// vbatch::BadParameter on any method other than "idr".
template <typename T>
SolverPtr<T> make_solver(const Config& config = {});

}  // namespace vbatch::solvers
