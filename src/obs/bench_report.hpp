// Structured benchmark output: every figure/table benchmark can emit a
// machine-readable BENCH_<name>.json next to its human-readable table,
// giving the repository a perf trajectory that scripts and CI can diff.
//
// Schema (schema_version 2; full key-by-key documentation in DESIGN.md):
//   {
//     "schema_version": 2,
//     "name": "fig4_getrf_batch",
//     "config":  { "<key>": <string|number|bool>, ... },
//     "phases":  [ { "name": "...", "seconds": <number> }, ... ],
//     "series":  [ { "name": "...", "x_label": "...", "unit": "...",
//                    "points": [ [x, y], ... ] }, ... ],
//     "counters": { ... }, "gauges": { ... },          // registry snapshot
//     "kernel_stats": { "<family>": { "launches": n, "problems": n,
//                        "modeled_seconds": s, "<counter>": n, ... } },
//     "traffic": { "<family>": { "flops": f, "bytes": b, "seconds": s,
//                   "calls": n, "problems": n, "roof_gbs": r|null, "gflops": g,
//                   "bandwidth_gbs": g, "arithmetic_intensity": ai,
//                   "fraction_of_roof": fr|null } },  // null: no roof measured
//     "perf":    { "<region>": { "calls": n, "hardware_calls": n,
//                   "seconds": s, "cycles": c, "instructions": i,
//                   "ipc": x, "l1d_misses": n, "llc_misses": n,
//                   "branch_misses": n } },
//     "pool":    { "workers": n, "armed": b, "wall_seconds": s,
//                  "busy_seconds": s, "idle_seconds": s, "utilization": u,
//                  "dispatches": n, "inline_runs": n, "steals": n,
//                  "steal_fails": n, "splits": n, "parks": n,
//                  "spin_wakes": n },
//     "wall_seconds": <number>
//   }
// v1 -> v2: added the traffic/perf/pool objects (roofline accounting,
// hardware counters, thread-pool telemetry).
//
// Emission is gated by VBATCH_BENCH_JSON: unset/"0" = off, "1" = write
// into the current directory, any other value = output directory.
#pragma once

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "base/timer.hpp"
#include "base/types.hpp"

namespace vbatch::obs {

class BenchReport {
public:
    using ConfigValue = std::variant<std::string, double, bool>;

    /// `name` names the artifact: BENCH_<name>.json.
    explicit BenchReport(std::string name);

    /// True when VBATCH_BENCH_JSON asks for structured output.
    static bool enabled();

    // -- builders -----------------------------------------------------
    void config(std::string key, std::string value);
    void config(std::string key, const char* value);
    void config(std::string key, double value);
    void config(std::string key, index_type value);
    void config(std::string key, size_type value);
    void config(std::string key, bool value);

    /// Record a named phase's wall-clock cost (accumulates on repeat).
    void phase(std::string name, double seconds);

    /// Record one data series (e.g. one kernel's GFLOPS-vs-batch curve).
    void series(std::string name, std::string x_label,
                std::vector<std::pair<double, double>> points,
                std::string unit = "gflops");

    const std::string& name() const noexcept { return name_; }

    /// Serialize (includes a metrics-registry snapshot and the wall time
    /// since construction).
    std::string to_json() const;

    /// Write BENCH_<name>.json when enabled(); prints the path on
    /// success. Returns true iff a file was written.
    bool write_if_enabled() const;

private:
    struct Phase {
        std::string name;
        double seconds = 0.0;
    };
    struct Series {
        std::string name;
        std::string x_label;
        std::string unit;
        std::vector<std::pair<double, double>> points;
    };

    std::string name_;
    Timer timer_;
    std::vector<std::pair<std::string, ConfigValue>> config_;
    std::vector<Phase> phases_;
    std::vector<Series> series_;
};

}  // namespace vbatch::obs
