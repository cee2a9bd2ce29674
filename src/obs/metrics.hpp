// Process-wide metrics registry: named counters and gauges, plus
// per-kernel-family aggregation of the SIMT emulator's KernelStats.
//
// The instrumented pipeline feeds this registry unconditionally (the cost
// is one mutex-protected map update per *batch launch*, never per matrix
// element), so any consumer -- the bench JSON exporter, a test, an
// embedding application -- can snapshot a consistent view of what ran:
// how many factorization launches, over how many problems, with which
// instruction/transaction mix, and how much wall/modeled-device time the
// phases consumed.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "base/types.hpp"
#include "simt/kernel_stats.hpp"

namespace vbatch::obs {

class JsonWriter;

/// Aggregated emulation counters for one kernel family
/// (e.g. "getrf", "gauss_huard", "trsv", "extraction").
struct KernelFamilyStats {
    simt::KernelStats stats;       ///< summed (extrapolated) counters
    size_type launches = 0;        ///< batch launches recorded
    size_type problems = 0;        ///< batch entries those launches covered
    double modeled_seconds = 0.0;  ///< accumulated device-model time (0 if
                                   ///< the call site didn't model time)
};

/// Roofline aggregation for one kernel family: canonical flops
/// (core/flops.hpp) and bytes (core/bytes.hpp) against measured (or
/// modeled) seconds. The derived quantities -- GFLOPS, effective GB/s,
/// arithmetic intensity, fraction of the bandwidth roof -- are what the
/// roofline table in vbatch_prof and the bench JSON report.
struct TrafficStats {
    double flops = 0.0;
    double bytes = 0.0;
    double seconds = 0.0;
    /// Family-specific bandwidth ceiling in GB/s (e.g. the device
    /// model's for emulated kernels); 0 = use the machine triad gauge.
    double roof_gbs = 0.0;
    size_type calls = 0;
    size_type problems = 0;

    double gflops() const noexcept {
        return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
    }
    double bandwidth_gbs() const noexcept {
        return seconds > 0.0 ? bytes / seconds * 1e-9 : 0.0;
    }
    double arithmetic_intensity() const noexcept {
        return bytes > 0.0 ? flops / bytes : 0.0;
    }
    double fraction_of_roof(double fallback_roof_gbs = 0.0) const noexcept {
        const double roof = roof_gbs > 0.0 ? roof_gbs : fallback_roof_gbs;
        return roof > 0.0 ? bandwidth_gbs() / roof : 0.0;
    }
};

/// Aggregated hardware-counter deltas for one PerfRegion name
/// (obs/perf_counters.hpp). seconds accumulates even in the
/// steady-clock-only fallback; hardware_calls says how many of the
/// calls carried real counters.
struct PerfRegionStats {
    size_type calls = 0;
    size_type hardware_calls = 0;
    double seconds = 0.0;
    double cycles = 0.0;
    double instructions = 0.0;
    double l1d_misses = 0.0;
    double llc_misses = 0.0;
    double branch_misses = 0.0;
};

/// Snapshot of the thread pool's utilization telemetry (produced by
/// ThreadPool::telemetry(); plumbed here through a function pointer so
/// obs/ never links against base/).
struct PoolTelemetry {
    size_type workers = 0;  ///< pool size including the calling thread
    bool armed = false;     ///< was VBATCH_POOL_STATS collection on?
    double wall_seconds = 0.0;  ///< since pool construction
    double busy_seconds = 0.0;  ///< summed across all participants
    double idle_seconds = 0.0;  ///< workers * wall - busy (>= 0)
    double utilization = 0.0;   ///< busy / (workers * wall)
    size_type dispatches = 0;   ///< parallel_for calls that woke workers
    size_type inline_runs = 0;  ///< calls served by the inline fast path
    // Work-stealing scheduler counters.
    size_type steals = 0;       ///< range/task steals that succeeded
    size_type steal_fails = 0;  ///< steal attempts losing a CAS race
    size_type splits = 0;       ///< lazy binary half-range splits
    /// Idle-worker waits: a worker that swept every queue empty spins
    /// for a bounded time, then parks. spin_wakes counts the waits new
    /// work ended during the spin; parks counts those that slept.
    size_type parks = 0;
    size_type spin_wakes = 0;
};

using PoolTelemetrySource = PoolTelemetry (*)();

class Registry {
public:
    static Registry& global();

    Registry();
    ~Registry();
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Add `delta` to a named counter (created at zero on first use).
    void add(std::string_view counter, double delta);

    /// Set a named gauge to `value` (last write wins).
    void set(std::string_view gauge, double value);

    /// Fold one batch launch's counters into a kernel family.
    void record_kernel(std::string_view family,
                       const simt::KernelStats& stats, size_type problems,
                       double modeled_seconds = 0.0);

    /// Fold one measured (or modeled) episode of a kernel family into
    /// its roofline aggregation. `roof_gbs` != 0 pins the family to a
    /// specific bandwidth ceiling (last nonzero write wins).
    void record_traffic(std::string_view family, double flops, double bytes,
                        double seconds, size_type problems = 0,
                        double roof_gbs = 0.0);

    /// Fold one PerfRegion delta into its per-region aggregation.
    void record_perf(std::string_view region, const PerfRegionStats& delta);

    /// Register (or clear, with nullptr) the callback that snapshots
    /// the thread pool's telemetry; the global ThreadPool installs
    /// itself here so bench JSON can embed pool utilization without a
    /// link-time obs -> base dependency.
    void set_pool_telemetry_source(PoolTelemetrySource source);

    /// Current pool telemetry; all-zero when no source is registered.
    PoolTelemetry pool_telemetry() const;

    // -- snapshots (copies; safe to use while recording continues) ----
    std::map<std::string, double, std::less<>> counters() const;
    std::map<std::string, double, std::less<>> gauges() const;
    std::map<std::string, KernelFamilyStats, std::less<>> kernels() const;
    std::map<std::string, TrafficStats, std::less<>> traffic() const;
    std::map<std::string, PerfRegionStats, std::less<>> perf() const;

    double counter_value(std::string_view name) const;

    /// Reset every counter/gauge/family (tests, repeated bench runs).
    void clear();

    /// Emit {"counters": {...}, "gauges": {...}, "kernel_stats": {...},
    /// "traffic": {...}, "perf": {...}, "pool": {...}}.
    void write_json(std::ostream& os) const;
    std::string to_json() const;

    /// Write the same members into an already-open JSON object
    /// (used by BenchReport to splice the snapshot into its document).
    void write_json_members(JsonWriter& json) const;

private:
    struct Impl;
    Impl* impl_;
};

/// Shorthand for Registry::global().add(...).
inline void count(std::string_view counter, double delta = 1.0) {
    Registry::global().add(counter, delta);
}

}  // namespace vbatch::obs
