// Shared driver for the one-problem-per-entry batched factorizations
// (getrf, Gauss-Huard, Gauss-Jordan, Cholesky).
//
// Centralizes the failure bookkeeping the kernels used to duplicate:
// runs the per-entry kernel (optionally on the global thread pool),
// aggregates breakdown counts with lock-free first-failure tracking,
// fills the per-block status/info vectors when monitoring is requested,
// and applies the SingularPolicy.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>

#include "base/exception.hpp"
#include "base/thread_pool.hpp"
#include "core/block_status.hpp"
#include "core/getrf.hpp"

namespace vbatch::core::detail {

/// Pivot-magnitude monitor threaded through the single-problem kernels.
/// The non-monitored instantiation compiles every hook to nothing, so
/// the fast path's codegen is identical to the pre-monitor kernels.
struct NullPivotMonitor {
    static constexpr bool enabled = false;
    void entry(double) noexcept {}
    void pivot(double) noexcept {}
};

struct PivotMonitor {
    static constexpr bool enabled = true;
    FactorInfo info;

    /// One input entry magnitude (prepass over the block).
    void entry(double v) noexcept {
        if (!std::isfinite(v)) {
            info.finite = false;
        } else if (v > info.max_entry) {
            info.max_entry = v;
        }
    }
    /// One selected pivot magnitude.
    void pivot(double v) noexcept {
        if (!std::isfinite(v)) {
            info.finite = false;
            return;
        }
        info.min_pivot = std::min(info.min_pivot, v);
        info.max_pivot = std::max(info.max_pivot, v);
    }
    FactorInfo finish(index_type step) noexcept {
        info.step = step;
        return info;
    }
};

/// Run `kernel(i, info_or_null)` over `count` batch entries. The kernel
/// returns the breakdown step (0 = clean) and, when handed a non-null
/// FactorInfo pointer, fills it (monitor mode). Throws SingularMatrix
/// with `breakdown_what` under the throwing policy.
template <typename Kernel>
FactorizeStatus run_factorize_batch(size_type count, const GetrfOptions& opts,
                                    const char* breakdown_what,
                                    Kernel&& kernel) {
    FactorizeStatus status;
    if (opts.monitor) {
        status.block_status.assign(static_cast<std::size_t>(count),
                                   BlockStatus::ok);
        status.block_info.resize(static_cast<std::size_t>(count));
    }
    std::atomic<size_type> failures{0};
    std::atomic<size_type> first_failure{-1};
    std::atomic<index_type> first_step{0};

    const auto body = [&](size_type i) {
        FactorInfo* info =
            opts.monitor ? &status.block_info[static_cast<std::size_t>(i)]
                         : nullptr;
        const index_type step = kernel(i, info);
        if (step != 0) {
            if (opts.monitor) {
                status.block_status[static_cast<std::size_t>(i)] =
                    BlockStatus::singular;
            }
            failures.fetch_add(1, std::memory_order_relaxed);
            size_type expected = -1;
            if (first_failure.compare_exchange_strong(expected, i)) {
                first_step.store(step, std::memory_order_relaxed);
            }
        }
    };
    if (opts.parallel) {
        ThreadPool::global().parallel_for(0, count, body, batch_entry_grain);
    } else {
        for (size_type i = 0; i < count; ++i) {
            body(i);
        }
    }

    status.failures = failures.load();
    status.first_failure = first_failure.load();
    status.first_failure_step = first_step.load();
    if (opts.monitor) {
        for (const auto& info : status.block_info) {
            if (info.ok()) {
                status.max_growth = std::max(status.max_growth,
                                             info.growth());
            }
        }
    }
    if (!status.ok() &&
        opts.on_singular == SingularPolicy::throw_on_breakdown) {
        throw SingularMatrix(breakdown_what, status.first_failure,
                             status.first_failure_step);
    }
    return status;
}

}  // namespace vbatch::core::detail
