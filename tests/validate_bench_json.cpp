// Schema validator for the BENCH_<name>.json artifacts the figure
// benchmarks emit (obs::BenchReport, schema_version 2; key-by-key
// documentation in DESIGN.md). Used by CTest
// (bench_*_json_validate) and by hand:
//
//   VBATCH_BENCH_JSON=1 ./build/bench/bench_fig4_getrf_batch
//   ./build/tests/validate_bench_json BENCH_fig4_getrf_batch.json
//
// Exits 0 when every file conforms, 1 otherwise.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

using vbatch::obs::JsonValue;

int errors = 0;

void fail(const std::string& path, const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), what.c_str());
    ++errors;
}

const JsonValue* require(const std::string& path, const JsonValue& root,
                         const char* key, JsonValue::Type type) {
    const JsonValue* v = root.find(key);
    if (v == nullptr) {
        fail(path, std::string("missing key \"") + key + "\"");
        return nullptr;
    }
    if (v->type != type) {
        fail(path, std::string("key \"") + key + "\" has the wrong type");
        return nullptr;
    }
    return v;
}

void check_series(const std::string& path, const JsonValue& series) {
    for (const auto& s : series.items) {
        if (!s.is_object()) {
            fail(path, "series entry is not an object");
            continue;
        }
        require(path, s, "name", JsonValue::Type::string);
        require(path, s, "x_label", JsonValue::Type::string);
        require(path, s, "unit", JsonValue::Type::string);
        const auto* points =
            require(path, s, "points", JsonValue::Type::array);
        if (points == nullptr) {
            continue;
        }
        for (const auto& p : points->items) {
            if (!p.is_array() || p.items.size() != 2 ||
                !p.items[0].is_number() || !p.items[1].is_number()) {
                fail(path, "series point is not a [x, y] number pair");
                break;
            }
        }
    }
}

void check_phases(const std::string& path, const JsonValue& phases) {
    for (const auto& p : phases.items) {
        if (!p.is_object()) {
            fail(path, "phase entry is not an object");
            continue;
        }
        require(path, p, "name", JsonValue::Type::string);
        require(path, p, "seconds", JsonValue::Type::number);
    }
}

void check_kernel_stats(const std::string& path, const JsonValue& kernels) {
    for (const auto& [family, stats] : kernels.members) {
        if (!stats.is_object()) {
            fail(path, "kernel_stats entry \"" + family +
                           "\" is not an object");
            continue;
        }
        require(path, stats, "launches", JsonValue::Type::number);
        require(path, stats, "problems", JsonValue::Type::number);
        require(path, stats, "modeled_seconds", JsonValue::Type::number);
    }
}

// Any run that set up a block-Jacobi preconditioner must account for
// every diagonal block: the recovery pipeline exports one counter per
// BlockStatus, and they have to be present (and numeric) alongside the
// setup counter. Likewise the symbolic/numeric setup split exports a
// complete phase breakdown (plan build + fused gather/factorize/pack)
// -- a run missing one of them mixed old and new pipelines.
void check_recovery_counters(const std::string& path,
                             const JsonValue& counters) {
    if (counters.find("block_jacobi.setups") == nullptr) {
        return;
    }
    for (const char* key :
         {"block_jacobi.blocks_ok", "block_jacobi.blocks_boosted",
          "block_jacobi.blocks_fell_back", "block_jacobi.blocks_singular",
          "block_jacobi.plan_builds", "block_jacobi.plan_seconds",
          "block_jacobi.gather_seconds", "block_jacobi.factorize_seconds",
          "block_jacobi.pack_seconds"}) {
        require(path, counters, key, JsonValue::Type::number);
    }
}

// Schema v2 roofline accounting: every traffic family must carry the
// raw totals and all four derived rates, so downstream tooling
// (vbatch_prof, plots) never has to re-derive them. roof_gbs and
// fraction_of_roof are null when no roof was measured (unknown, not 0).
void check_traffic(const std::string& path, const JsonValue& traffic) {
    for (const auto& [family, stats] : traffic.members) {
        if (!stats.is_object()) {
            fail(path,
                 "traffic entry \"" + family + "\" is not an object");
            continue;
        }
        for (const char* key :
             {"flops", "bytes", "seconds", "calls", "problems", "gflops",
              "bandwidth_gbs", "arithmetic_intensity"}) {
            require(path, stats, key, JsonValue::Type::number);
        }
        for (const char* key : {"roof_gbs", "fraction_of_roof"}) {
            const JsonValue* v = stats.find(key);
            if (v == nullptr) {
                fail(path, std::string("missing key \"") + key + "\"");
            } else if (!v->is_number() && !v->is_null()) {
                fail(path, std::string("key \"") + key +
                               "\" has the wrong type");
            }
        }
    }
}

void check_perf(const std::string& path, const JsonValue& perf) {
    for (const auto& [region, stats] : perf.members) {
        if (!stats.is_object()) {
            fail(path, "perf entry \"" + region + "\" is not an object");
            continue;
        }
        for (const char* key :
             {"calls", "hardware_calls", "seconds", "cycles",
              "instructions", "ipc", "l1d_misses", "llc_misses",
              "branch_misses"}) {
            require(path, stats, key, JsonValue::Type::number);
        }
    }
}

void check_pool(const std::string& path, const JsonValue& pool) {
    for (const char* key :
         {"workers", "wall_seconds", "busy_seconds", "idle_seconds",
          "utilization", "dispatches", "inline_runs", "steals",
          "steal_fails", "splits", "parks", "spin_wakes"}) {
        require(path, pool, key, JsonValue::Type::number);
    }
    require(path, pool, "armed", JsonValue::Type::boolean);
}

void validate(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        fail(path, "cannot open file");
        return;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue root;
    try {
        root = vbatch::obs::parse_json(buf.str());
    } catch (const vbatch::obs::JsonError& e) {
        fail(path, std::string("parse error: ") + e.what());
        return;
    }
    if (!root.is_object()) {
        fail(path, "top-level value is not an object");
        return;
    }
    const auto* version =
        require(path, root, "schema_version", JsonValue::Type::number);
    if (version != nullptr && version->number != 2.0) {
        fail(path, "unsupported schema_version (expected 2)");
    }
    require(path, root, "name", JsonValue::Type::string);
    require(path, root, "config", JsonValue::Type::object);
    if (const auto* counters =
            require(path, root, "counters", JsonValue::Type::object)) {
        check_recovery_counters(path, *counters);
    }
    require(path, root, "gauges", JsonValue::Type::object);
    require(path, root, "wall_seconds", JsonValue::Type::number);
    if (const auto* phases =
            require(path, root, "phases", JsonValue::Type::array)) {
        check_phases(path, *phases);
    }
    if (const auto* series =
            require(path, root, "series", JsonValue::Type::array)) {
        check_series(path, *series);
    }
    if (const auto* kernels =
            require(path, root, "kernel_stats", JsonValue::Type::object)) {
        check_kernel_stats(path, *kernels);
    }
    if (const auto* traffic =
            require(path, root, "traffic", JsonValue::Type::object)) {
        check_traffic(path, *traffic);
    }
    if (const auto* perf =
            require(path, root, "perf", JsonValue::Type::object)) {
        check_perf(path, *perf);
    }
    if (const auto* pool =
            require(path, root, "pool", JsonValue::Type::object)) {
        check_pool(path, *pool);
    }
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s BENCH_<name>.json...\n", argv[0]);
        return 2;
    }
    for (int i = 1; i < argc; ++i) {
        validate(argv[i]);
    }
    if (errors == 0) {
        std::printf("%d file(s) conform to bench schema v2\n", argc - 1);
    }
    return errors == 0 ? 0 : 1;
}
