// Unit tests for the observability subsystem: scoped-region tracer,
// metrics registry, JSON writer/parser and the bench-report schema.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "base/thread_pool.hpp"
#include "core/bytes.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/prof.hpp"
#include "obs/roofline.hpp"
#include "obs/trace.hpp"
#include "simt/kernel_stats.hpp"

namespace vbatch {
namespace {

/// Arms the tracer for one test and restores the dormant state after.
class TracerGuard {
public:
    TracerGuard() {
        obs::Tracer::set_enabled(true);
        obs::Tracer::instance().clear();
    }
    ~TracerGuard() {
        obs::Tracer::instance().clear();
        obs::Tracer::set_enabled(false);
    }
};

/// All events of the calling process, flattened across threads.
std::vector<obs::TraceEvent> all_events() {
    std::vector<obs::TraceEvent> events;
    for (const auto& thread : obs::Tracer::instance().snapshot()) {
        events.insert(events.end(), thread.events.begin(),
                      thread.events.end());
    }
    return events;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(Tracer, RecordsNestedRegionsWithDepth) {
    TracerGuard guard;
    {
        obs::TraceRegion outer("outer");
        {
            obs::TraceRegion inner("inner");
        }
    }
    const auto events = all_events();
    ASSERT_EQ(events.size(), 2u);
    // Regions complete inner-first.
    EXPECT_STREQ(events[0].name, "inner");
    EXPECT_EQ(events[0].depth, 1u);
    EXPECT_STREQ(events[1].name, "outer");
    EXPECT_EQ(events[1].depth, 0u);
    // The inner region's lifetime nests inside the outer one's.
    EXPECT_GE(events[0].ts_us, events[1].ts_us);
    EXPECT_LE(events[0].ts_us + events[0].dur_us,
              events[1].ts_us + events[1].dur_us + 1e-6);
}

TEST(Tracer, DisabledModeRecordsNothing) {
    obs::Tracer::set_enabled(false);
    obs::Tracer::instance().clear();
    {
        obs::TraceRegion region("ghost");
        obs::counter("ghost_counter", 42.0);
        obs::instant("ghost_instant");
    }
    EXPECT_TRUE(all_events().empty());
    EXPECT_FALSE(obs::trace_on());
}

TEST(Tracer, CountersAndInstantsCarryPayload) {
    TracerGuard guard;
    obs::counter("residual", 0.125);
    obs::instant("checkpoint");
    const auto events = all_events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].phase, obs::EventPhase::counter);
    EXPECT_DOUBLE_EQ(events[0].value, 0.125);
    EXPECT_EQ(events[1].phase, obs::EventPhase::instant);
}

TEST(Tracer, ThreadPoolWorkersRecordIntoOwnBuffers) {
    TracerGuard guard;
    constexpr size_type n = 256;
    std::atomic<int> ran{0};
    ThreadPool::global().parallel_for(
        0, n,
        [&](size_type) {
            obs::TraceRegion region("pool_task");
            ran.fetch_add(1, std::memory_order_relaxed);
        },
        1);
    EXPECT_EQ(ran.load(), n);
    size_type recorded = 0;
    for (const auto& thread : obs::Tracer::instance().snapshot()) {
        for (const auto& event : thread.events) {
            if (std::string_view(event.name) == "pool_task") {
                ++recorded;
                EXPECT_EQ(event.depth, 0u);
            }
        }
        EXPECT_EQ(thread.dropped, 0);
    }
    EXPECT_EQ(recorded, n);
}

TEST(Tracer, ChromeTraceRoundTrips) {
    TracerGuard guard;
    obs::set_thread_name("test-main");
    {
        obs::TraceRegion region("chrome_region");
        obs::counter("chrome_counter", 7.0);
    }
    std::ostringstream os;
    obs::Tracer::instance().write_chrome_trace(os);
    const auto doc = obs::parse_json(os.str());
    ASSERT_TRUE(doc.is_object());
    const auto* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    bool saw_region = false, saw_counter = false, saw_thread_name = false;
    for (const auto& e : events->items) {
        const auto* name = e.find("name");
        const auto* ph = e.find("ph");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(ph, nullptr);
        if (name->string == "chrome_region" && ph->string == "X") {
            saw_region = true;
            EXPECT_NE(e.find("dur"), nullptr);
            EXPECT_NE(e.find("ts"), nullptr);
        }
        if (name->string == "chrome_counter" && ph->string == "C") {
            saw_counter = true;
        }
        if (name->string == "thread_name" && ph->string == "M") {
            saw_thread_name = true;
        }
    }
    EXPECT_TRUE(saw_region);
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_thread_name);
}

TEST(Tracer, NdjsonRoundTrips) {
    TracerGuard guard;
    {
        obs::TraceRegion region("nd_region");
    }
    obs::counter("nd_counter", 3.5);
    std::ostringstream os;
    obs::Tracer::instance().write_ndjson(os);
    std::istringstream in(os.str());
    std::string line;
    bool saw_region = false, saw_counter = false;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        const auto doc = obs::parse_json(line);  // throws on bad line
        ASSERT_TRUE(doc.is_object());
        const auto* type = doc.find("type");
        const auto* name = doc.find("name");
        ASSERT_NE(type, nullptr);
        ASSERT_NE(name, nullptr);
        if (name->string == "nd_region") {
            saw_region = true;
            EXPECT_EQ(type->string, "region");
        }
        if (name->string == "nd_counter") {
            saw_counter = true;
            EXPECT_EQ(type->string, "counter");
            EXPECT_DOUBLE_EQ(doc.find("value")->number, 3.5);
        }
    }
    EXPECT_TRUE(saw_region);
    EXPECT_TRUE(saw_counter);
}

// ---------------------------------------------------------------------
// JSON writer / parser
// ---------------------------------------------------------------------

TEST(JsonWriter, EmitsNestedStructures) {
    std::ostringstream os;
    obs::JsonWriter json(os);
    json.begin_object();
    json.key("a");
    json.value(std::int64_t{1});
    json.key("b");
    json.begin_array();
    json.value(true);
    json.null();
    json.value("x\"y");
    json.end_array();
    json.end_object();
    EXPECT_EQ(os.str(), R"({"a":1,"b":[true,null,"x\"y"]})");
}

TEST(JsonWriter, RejectsValueWithoutKeyInObject) {
    std::ostringstream os;
    obs::JsonWriter json(os);
    json.begin_object();
    EXPECT_THROW(json.value(1.0), std::logic_error);
}

TEST(JsonParser, ParsesScalarsAndNesting) {
    const auto doc =
        obs::parse_json(R"({"n": -2.5e2, "s": "aA\n", "l": [1, {}]})");
    ASSERT_TRUE(doc.is_object());
    EXPECT_DOUBLE_EQ(doc.find("n")->number, -250.0);
    EXPECT_EQ(doc.find("s")->string, "aA\n");
    ASSERT_TRUE(doc.find("l")->is_array());
    ASSERT_EQ(doc.find("l")->items.size(), 2u);
    EXPECT_TRUE(doc.find("l")->items[1].is_object());
}

TEST(JsonParser, RejectsMalformedInput) {
    EXPECT_THROW(obs::parse_json("{"), obs::JsonError);
    EXPECT_THROW(obs::parse_json("[1,]"), obs::JsonError);
    EXPECT_THROW(obs::parse_json("{} trailing"), obs::JsonError);
    EXPECT_THROW(obs::parse_json("\"unterminated"), obs::JsonError);
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(Registry, AggregatesCountersGaugesAndKernels) {
    obs::Registry registry;
    registry.add("launches", 1.0);
    registry.add("launches", 2.0);
    registry.set("blocks", 10.0);
    registry.set("blocks", 12.0);
    simt::KernelStats stats;
    stats.fp_instructions = 5;
    stats.useful_flops = 7;
    registry.record_kernel("getrf", stats, 100, 0.25);
    registry.record_kernel("getrf", stats, 50, 0.25);

    EXPECT_DOUBLE_EQ(registry.counter_value("launches"), 3.0);
    EXPECT_DOUBLE_EQ(registry.gauges().at("blocks"), 12.0);
    const auto kernels = registry.kernels();
    const auto& family = kernels.at("getrf");
    EXPECT_EQ(family.launches, 2);
    EXPECT_EQ(family.problems, 150);
    EXPECT_EQ(family.stats.fp_instructions, 10);
    EXPECT_EQ(family.stats.useful_flops, 14);
    EXPECT_DOUBLE_EQ(family.modeled_seconds, 0.5);

    registry.clear();
    EXPECT_TRUE(registry.counters().empty());
    EXPECT_TRUE(registry.kernels().empty());
}

TEST(Registry, JsonSnapshotRoundTrips) {
    obs::Registry registry;
    registry.add("c", 4.0);
    registry.set("g", 9.0);
    simt::KernelStats stats;
    stats.load_transactions = 11;
    registry.record_kernel("trsv", stats, 8);
    const auto doc = obs::parse_json(registry.to_json());
    EXPECT_DOUBLE_EQ(doc.find("counters")->find("c")->number, 4.0);
    EXPECT_DOUBLE_EQ(doc.find("gauges")->find("g")->number, 9.0);
    const auto* family = doc.find("kernel_stats")->find("trsv");
    ASSERT_NE(family, nullptr);
    EXPECT_DOUBLE_EQ(family->find("problems")->number, 8.0);
    EXPECT_DOUBLE_EQ(family->find("load_transactions")->number, 11.0);
}

TEST(KernelStats, OperatorPlusSumsEveryField) {
    using simt::KernelStats;
    // KernelStats is a plain aggregate of size_type counters; treat it as
    // an array so a newly added field that is missing from operator+=
    // fails this test instead of silently dropping its contribution.
    static_assert(sizeof(KernelStats) == 13 * sizeof(size_type),
                  "field added to KernelStats: extend operator+= and the "
                  "obs serializers, then update this test");
    constexpr std::size_t n = sizeof(KernelStats) / sizeof(size_type);
    KernelStats a, b;
    auto* pa = reinterpret_cast<size_type*>(&a);
    auto* pb = reinterpret_cast<size_type*>(&b);
    for (std::size_t i = 0; i < n; ++i) {
        pa[i] = static_cast<size_type>(i + 1);
        pb[i] = static_cast<size_type>(100 * (i + 1));
    }
    const KernelStats sum = a + b;
    const auto* ps = reinterpret_cast<const size_type*>(&sum);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ps[i], static_cast<size_type>(101 * (i + 1)))
            << "field index " << i << " not summed by operator+";
    }
}

// ---------------------------------------------------------------------
// Bench report
// ---------------------------------------------------------------------

TEST(BenchReport, EmitsSchemaV2) {
    obs::BenchReport report("unit_test");
    report.config("device", "emulated");
    report.config("batch", size_type{40000});
    report.config("quick", true);
    report.phase("warmup", 0.5);
    report.phase("warmup", 0.25);  // accumulates
    report.series("gflops/lu", "batch", {{1000.0, 10.0}, {2000.0, 20.0}});

    const auto doc = obs::parse_json(report.to_json());
    ASSERT_TRUE(doc.is_object());
    EXPECT_DOUBLE_EQ(doc.find("schema_version")->number, 2.0);
    EXPECT_EQ(doc.find("name")->string, "unit_test");
    EXPECT_EQ(doc.find("config")->find("device")->string, "emulated");
    EXPECT_DOUBLE_EQ(doc.find("config")->find("batch")->number, 40000.0);
    EXPECT_TRUE(doc.find("config")->find("quick")->boolean);

    const auto* phases = doc.find("phases");
    ASSERT_TRUE(phases->is_array());
    ASSERT_EQ(phases->items.size(), 1u);
    EXPECT_DOUBLE_EQ(phases->items[0].find("seconds")->number, 0.75);

    const auto* series = doc.find("series");
    ASSERT_TRUE(series->is_array());
    ASSERT_EQ(series->items.size(), 1u);
    const auto& s = series->items[0];
    EXPECT_EQ(s.find("name")->string, "gflops/lu");
    EXPECT_EQ(s.find("unit")->string, "gflops");
    ASSERT_EQ(s.find("points")->items.size(), 2u);
    EXPECT_DOUBLE_EQ(s.find("points")->items[1].items[0].number, 2000.0);
    EXPECT_DOUBLE_EQ(s.find("points")->items[1].items[1].number, 20.0);

    EXPECT_NE(doc.find("counters"), nullptr);
    EXPECT_NE(doc.find("gauges"), nullptr);
    EXPECT_NE(doc.find("kernel_stats"), nullptr);
    EXPECT_GE(doc.find("wall_seconds")->number, 0.0);

    // The v2 additions must be present even when nothing was recorded:
    // downstream tooling (vbatch_prof, the schema validator) relies on
    // the objects existing.
    ASSERT_NE(doc.find("traffic"), nullptr);
    EXPECT_TRUE(doc.find("traffic")->is_object());
    ASSERT_NE(doc.find("perf"), nullptr);
    EXPECT_TRUE(doc.find("perf")->is_object());
    const auto* pool = doc.find("pool");
    ASSERT_NE(pool, nullptr);
    ASSERT_TRUE(pool->is_object());
    EXPECT_NE(pool->find("workers"), nullptr);
    EXPECT_NE(pool->find("armed"), nullptr);
}

// ---------------------------------------------------------------------
// Byte models (core/bytes.hpp)
// ---------------------------------------------------------------------

TEST(ByteModels, DenseKernelsMatchClosedForms) {
    const double elem = sizeof(double);
    const double idx = sizeof(index_type);
    EXPECT_DOUBLE_EQ(core::getrf_bytes<double>(4),
                     2.0 * 16.0 * elem + 4.0 * idx);
    EXPECT_DOUBLE_EQ(core::getrs_bytes<double>(4),
                     (16.0 + 8.0) * elem + 4.0 * idx);
    EXPECT_DOUBLE_EQ(core::gemv_bytes<float>(3), (9.0 + 6.0) * sizeof(float));
    EXPECT_DOUBLE_EQ(core::spmv_bytes<double>(10, 30),
                     30.0 * (elem + idx) +
                         11.0 * static_cast<double>(sizeof(size_type)) +
                         20.0 * elem);
}

TEST(ByteModels, InterleavedChargesThePaddedClass) {
    // A 5x5 problem in a class padded to 8 streams the whole 8x8 slab;
    // a degenerate padding below m falls back to the dense charge.
    EXPECT_DOUBLE_EQ(core::getrf_bytes_interleaved<double>(5, 8),
                     core::getrf_bytes<double>(8));
    EXPECT_GT(core::getrf_bytes_interleaved<double>(5, 8),
              core::getrf_bytes<double>(5));
    EXPECT_DOUBLE_EQ(core::getrf_bytes_interleaved<double>(5, 0),
                     core::getrf_bytes<double>(5));
    EXPECT_DOUBLE_EQ(core::getrs_bytes_interleaved<double>(3, 4),
                     core::getrs_bytes<double>(4));
    EXPECT_DOUBLE_EQ(core::getrs_bytes_interleaved<double>(4, 4),
                     core::getrs_bytes<double>(4));
}

TEST(ByteModels, Blas1StreamCounts) {
    constexpr size_type n = 1000;
    const double v = static_cast<double>(n) * sizeof(double);
    EXPECT_DOUBLE_EQ(core::axpy_bytes<double>(n), 3.0 * v);
}

// ---------------------------------------------------------------------
// Roofline (obs/roofline.hpp)
// ---------------------------------------------------------------------

TEST(Roofline, IntensityAndRoofFractionEdgeCases) {
    EXPECT_DOUBLE_EQ(obs::arithmetic_intensity(10.0, 4.0), 2.5);
    EXPECT_DOUBLE_EQ(obs::arithmetic_intensity(10.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(obs::fraction_of_roof(50.0, 100.0), 0.5);
    EXPECT_DOUBLE_EQ(obs::fraction_of_roof(50.0, 0.0), 0.0);
}

TEST(Roofline, TriadBytesScaleWithProblemSize) {
    // The modeled traffic is deterministic (3 streams of doubles) and
    // must grow linearly with the element count; timings only need to
    // be positive for the GB/s derivation to make sense.
    const auto small = obs::stream_triad(1 << 12, 1, 1);
    const auto large = obs::stream_triad(1 << 14, 1, 1);
    EXPECT_DOUBLE_EQ(small.bytes,
                     3.0 * static_cast<double>(1 << 12) * sizeof(double));
    EXPECT_DOUBLE_EQ(large.bytes, 4.0 * small.bytes);
    EXPECT_GT(small.seconds, 0.0);
    EXPECT_GT(large.seconds, 0.0);
    EXPECT_GT(small.gbs(), 0.0);
    EXPECT_GT(large.gbs(), 0.0);
    // Sub-minimum requests are clamped up, never undercounted.
    EXPECT_GE(obs::stream_triad(1, 1, 1).bytes,
              3.0 * 1024.0 * sizeof(double));
}

TEST(Roofline, MachineRoofIsPositiveCachedAndPublished) {
    const double roof = obs::machine_roof_gbs();
    EXPECT_GT(roof, 0.0);
    EXPECT_DOUBLE_EQ(obs::machine_roof_gbs(), roof);  // cached one-shot
    const auto gauges = obs::Registry::global().gauges();
    const auto it = gauges.find("roofline.triad_gbs");
    ASSERT_NE(it, gauges.end());
    EXPECT_DOUBLE_EQ(it->second, roof);
}

// ---------------------------------------------------------------------
// Hardware counters (obs/perf_counters.hpp)
// ---------------------------------------------------------------------

TEST(PerfCounters, DormantRegionRecordsNothing) {
    obs::set_perf_enabled(false);
    obs::Registry::global().clear();
    {
        obs::PerfRegion region("unit.perf.dormant");
    }
    EXPECT_FALSE(obs::perf_on());
    EXPECT_EQ(obs::Registry::global().perf().count("unit.perf.dormant"), 0u);
}

TEST(PerfCounters, ArmedRegionRecordsSecondsEvenWithoutHardware) {
    obs::Registry::global().clear();
    obs::set_perf_enabled(true);
    {
        obs::PerfRegion region("unit.perf.armed");
        volatile double sink = 0.0;
        for (int i = 0; i < 50000; ++i) {
            sink = sink + 1.0;
        }
    }
    obs::set_perf_enabled(false);
    const auto perf = obs::Registry::global().perf();
    const auto it = perf.find("unit.perf.armed");
    ASSERT_NE(it, perf.end());
    EXPECT_EQ(it->second.calls, 1u);
    EXPECT_GT(it->second.seconds, 0.0);
    if (!obs::perf_available()) {
        // Steady-clock-only fallback: wall time still lands, hardware
        // counts stay zero. This is the path a locked-down CI exercises.
        EXPECT_EQ(it->second.hardware_calls, 0u);
        EXPECT_DOUBLE_EQ(it->second.cycles, 0.0);
        EXPECT_DOUBLE_EQ(it->second.instructions, 0.0);
    } else {
        EXPECT_EQ(it->second.hardware_calls, 1u);
    }
}

TEST(PerfCounters, FallbackReadingReportsNoHardware) {
    if (obs::perf_available()) {
        GTEST_SKIP() << "hardware counters available; fallback not in play";
    }
    auto& counters = obs::PerfCounters::thread_local_instance();
    EXPECT_FALSE(counters.hardware());
    const auto reading = counters.read();
    EXPECT_FALSE(reading.hardware);
    EXPECT_DOUBLE_EQ(reading.cycles, 0.0);
    EXPECT_DOUBLE_EQ(reading.instructions, 0.0);
}

TEST(PerfCounters, HardwareCountersAdvanceAcrossWork) {
    if (!obs::perf_available()) {
        GTEST_SKIP() << "perf_event_open unavailable "
                        "(perf_event_paranoid / seccomp / non-Linux)";
    }
    auto& counters = obs::PerfCounters::thread_local_instance();
    ASSERT_TRUE(counters.hardware());
    const auto before = counters.read();
    volatile double sink = 0.0;
    for (int i = 0; i < 2000000; ++i) {
        sink = sink + 1.0;
    }
    const auto after = counters.read();
    EXPECT_TRUE(before.hardware);
    EXPECT_TRUE(after.hardware);
    EXPECT_GT(after.instructions, before.instructions);
    EXPECT_GT(after.cycles, before.cycles);
}

// ---------------------------------------------------------------------
// Registry: traffic, perf and pool aggregation
// ---------------------------------------------------------------------

TEST(Registry, TrafficAggregatesAndDerivesRooflineQuantities) {
    obs::Registry registry;
    registry.record_traffic("fam", 100.0, 50.0, 2.0, 4, 10.0);
    registry.record_traffic("fam", 100.0, 50.0, 2.0, 4);
    const auto traffic = registry.traffic();
    const auto& t = traffic.at("fam");
    EXPECT_DOUBLE_EQ(t.flops, 200.0);
    EXPECT_DOUBLE_EQ(t.bytes, 100.0);
    EXPECT_DOUBLE_EQ(t.seconds, 4.0);
    EXPECT_EQ(t.calls, 2u);
    EXPECT_EQ(t.problems, 8u);
    EXPECT_DOUBLE_EQ(t.roof_gbs, 10.0);  // last *nonzero* roof sticks
    EXPECT_DOUBLE_EQ(t.gflops(), 200.0 / 4.0 * 1e-9);
    EXPECT_DOUBLE_EQ(t.bandwidth_gbs(), 100.0 / 4.0 * 1e-9);
    EXPECT_DOUBLE_EQ(t.arithmetic_intensity(), 2.0);
    EXPECT_DOUBLE_EQ(t.fraction_of_roof(), t.bandwidth_gbs() / 10.0);

    obs::TrafficStats unroofed;
    unroofed.bytes = 10.0e9;
    unroofed.seconds = 1.0;
    EXPECT_DOUBLE_EQ(unroofed.fraction_of_roof(), 0.0);
    EXPECT_DOUBLE_EQ(unroofed.fraction_of_roof(20.0), 0.5);
}

TEST(Registry, TrafficPerfAndPoolRoundTripThroughJson) {
    obs::Registry registry;
    registry.record_traffic("kernel", 2.0e9, 1.0e9, 1.0, 16, 100.0);
    obs::PerfRegionStats delta;
    delta.calls = 1;
    delta.hardware_calls = 1;
    delta.seconds = 0.5;
    delta.cycles = 100.0;
    delta.instructions = 200.0;
    registry.record_perf("region", delta);
    registry.record_perf("region", delta);

    const auto doc = obs::parse_json(registry.to_json());
    const auto* t = doc.find("traffic")->find("kernel");
    ASSERT_NE(t, nullptr);
    EXPECT_DOUBLE_EQ(t->find("gflops")->number, 2.0);
    EXPECT_DOUBLE_EQ(t->find("bandwidth_gbs")->number, 1.0);
    EXPECT_DOUBLE_EQ(t->find("arithmetic_intensity")->number, 2.0);
    EXPECT_DOUBLE_EQ(t->find("fraction_of_roof")->number, 0.01);
    EXPECT_DOUBLE_EQ(t->find("roof_gbs")->number, 100.0);
    EXPECT_DOUBLE_EQ(t->find("problems")->number, 16.0);

    const auto* p = doc.find("perf")->find("region");
    ASSERT_NE(p, nullptr);
    EXPECT_DOUBLE_EQ(p->find("calls")->number, 2.0);
    EXPECT_DOUBLE_EQ(p->find("hardware_calls")->number, 2.0);
    EXPECT_DOUBLE_EQ(p->find("seconds")->number, 1.0);
    EXPECT_DOUBLE_EQ(p->find("ipc")->number, 2.0);

    // A registry without a pool source still emits a complete (all
    // zero, disarmed) pool object so the schema stays uniform.
    const auto* pool = doc.find("pool");
    ASSERT_NE(pool, nullptr);
    EXPECT_DOUBLE_EQ(pool->find("workers")->number, 0.0);
    EXPECT_FALSE(pool->find("armed")->boolean);
}

TEST(Registry, PoolTelemetryFlowsFromGlobalPool) {
    ThreadPool::set_stats_enabled(true);
    ThreadPool::global().parallel_for(
        0, 4096, [](size_type) {}, 1);
    const auto pool = obs::Registry::global().pool_telemetry();
    ThreadPool::set_stats_enabled(false);
    EXPECT_TRUE(pool.armed);
    EXPECT_GE(pool.workers, 1u);
    EXPECT_GE(pool.dispatches + pool.inline_runs, 1u);
    EXPECT_GT(pool.wall_seconds, 0.0);
    EXPECT_GE(pool.idle_seconds, 0.0);
    EXPECT_GE(pool.utilization, 0.0);
    EXPECT_LE(pool.utilization, 1.0 + 1e-9);
}

// ---------------------------------------------------------------------
// vbatch_prof rendering (obs/prof.hpp)
// ---------------------------------------------------------------------

/// A minimal but schema-v2-shaped bench document for rendering tests.
const char* const canned_report_a = R"({
  "schema_version": 2, "name": "canned_a", "wall_seconds": 2.0,
  "config": {},
  "phases": [{"name": "solve", "seconds": 1.5},
             {"name": "setup", "seconds": 0.5}],
  "series": [{"name": "hotpath/spmv", "x_label": "n", "unit": "speedup",
              "points": [[1000, 2.0], [2000, 4.0]]},
             {"name": "gone/only_in_a", "x_label": "n", "unit": "gflops",
              "points": [[1, 1.0]]}],
  "counters": {}, "gauges": {}, "kernel_stats": {},
  "traffic": {"spmv": {"flops": 2.0e9, "bytes": 1.0e9, "seconds": 1.0,
                       "calls": 3, "problems": 0, "roof_gbs": 10.0,
                       "gflops": 2.0, "bandwidth_gbs": 1.0,
                       "arithmetic_intensity": 2.0,
                       "fraction_of_roof": 0.1}},
  "perf": {"cg::spmv": {"calls": 5, "hardware_calls": 5, "seconds": 0.25,
                        "cycles": 1000.0, "instructions": 2000.0,
                        "ipc": 2.0, "l1d_misses": 10.0,
                        "llc_misses": 1.0, "branch_misses": 2.0}},
  "pool": {"workers": 4, "armed": true, "wall_seconds": 2.0,
           "busy_seconds": 6.0, "idle_seconds": 2.0, "utilization": 0.75,
           "dispatches": 7, "inline_runs": 3}
})";

const char* const canned_report_b = R"({
  "schema_version": 2, "name": "canned_b", "wall_seconds": 1.0,
  "config": {},
  "phases": [{"name": "solve", "seconds": 0.75},
             {"name": "verify", "seconds": 0.1}],
  "series": [{"name": "hotpath/spmv", "x_label": "n", "unit": "speedup",
              "points": [[1000, 3.0], [2000, 6.0]]},
             {"name": "new/only_in_b", "x_label": "n", "unit": "gbs",
              "points": [[1, 9.0]]}],
  "counters": {}, "gauges": {}, "kernel_stats": {},
  "traffic": {"spmv": {"flops": 2.0e9, "bytes": 1.0e9, "seconds": 0.5,
                       "calls": 3, "problems": 0, "roof_gbs": 10.0,
                       "gflops": 4.0, "bandwidth_gbs": 2.0,
                       "arithmetic_intensity": 2.0,
                       "fraction_of_roof": 0.2},
              "apply": {"flops": 1.0e9, "bytes": 1.0e9, "seconds": 1.0,
                        "calls": 1, "problems": 0, "roof_gbs": 10.0,
                        "gflops": 1.0, "bandwidth_gbs": 1.0,
                        "arithmetic_intensity": 1.0,
                        "fraction_of_roof": 0.1}},
  "perf": {}, "pool": {"workers": 1, "armed": false, "wall_seconds": 1.0,
           "busy_seconds": 0.0, "idle_seconds": 0.0, "utilization": 0.0,
           "dispatches": 0, "inline_runs": 0}
})";

TEST(Prof, RenderReportShowsEverySection) {
    const auto doc = obs::parse_json(canned_report_a);
    const auto out = obs::prof::render_report(doc);
    EXPECT_NE(out.find("bench report: canned_a"), std::string::npos);
    // Phases sorted by seconds, with percent of wall.
    EXPECT_NE(out.find("solve"), std::string::npos);
    EXPECT_NE(out.find("75.0%"), std::string::npos);
    // Roofline row for the traffic family with its derived columns.
    EXPECT_NE(out.find("roofline"), std::string::npos);
    EXPECT_NE(out.find("spmv"), std::string::npos);
    EXPECT_NE(out.find("10.0%"), std::string::npos);  // fraction of roof
    // Pool utilization (armed -> busy/idle line present).
    EXPECT_NE(out.find("pool: 4 thread(s)"), std::string::npos);
    EXPECT_NE(out.find("utilization  75.0%"), std::string::npos);
    // Perf region table with IPC.
    EXPECT_NE(out.find("cg::spmv"), std::string::npos);
    EXPECT_NE(out.find("2.00"), std::string::npos);
}

TEST(Prof, RenderReportDisarmedPoolPointsAtEnvVar) {
    const auto doc = obs::parse_json(canned_report_b);
    const auto out = obs::prof::render_report(doc);
    EXPECT_NE(out.find("VBATCH_POOL_STATS"), std::string::npos);
}

TEST(Prof, RenderDiffMatchesByNameAndFlagsOneSided) {
    const auto base = obs::parse_json(canned_report_a);
    const auto current = obs::parse_json(canned_report_b);
    const auto out = obs::prof::render_diff(base, current);
    EXPECT_NE(out.find("canned_a -> canned_b"), std::string::npos);
    // Wall halved.
    EXPECT_NE(out.find("-50.0%"), std::string::npos);
    // Series matched by name: spmv speedup mean 3 -> 4.5 = +50%.
    EXPECT_NE(out.find("hotpath/spmv"), std::string::npos);
    EXPECT_NE(out.find("+50.0%"), std::string::npos);
    // One-sided entries are called out instead of silently dropped.
    EXPECT_NE(out.find("gone/only_in_a"), std::string::npos);
    EXPECT_NE(out.find("(gone)"), std::string::npos);
    EXPECT_NE(out.find("new/only_in_b"), std::string::npos);
    EXPECT_NE(out.find("(new)"), std::string::npos);
    // Roofline families: spmv bandwidth doubled, apply is new.
    EXPECT_NE(out.find("roofline families"), std::string::npos);
    EXPECT_NE(out.find("+100.0%"), std::string::npos);
}

TEST(Prof, RenderTraceAggregatesRegionsAndSkipsMalformedLines) {
    const std::string ndjson =
        "{\"type\":\"region\",\"name\":\"getrf\",\"dur_us\":100.0}\n"
        "{\"type\":\"region\",\"name\":\"getrf\",\"dur_us\":300.0}\n"
        "{\"type\":\"region\",\"name\":\"trsv\",\"dur_us\":50.0}\n"
        "{\"type\":\"counter\",\"name\":\"resid\",\"value\":1.0}\n"
        "this line is not json\n"
        "\n";
    const auto out = obs::prof::render_trace(ndjson);
    EXPECT_NE(out.find("4 events"), std::string::npos);
    EXPECT_NE(out.find("1 malformed"), std::string::npos);
    EXPECT_NE(out.find("2 distinct regions"), std::string::npos);
    EXPECT_NE(out.find("getrf"), std::string::npos);
    EXPECT_NE(out.find("trsv"), std::string::npos);
    // getrf: 2 calls, 0.4 total ms, mean 200 us, max 300 us.
    EXPECT_NE(out.find("200.00"), std::string::npos);
    EXPECT_NE(out.find("300.00"), std::string::npos);
}

TEST(Prof, RenderTraceHonorsTopN) {
    std::string ndjson;
    for (int r = 0; r < 5; ++r) {
        ndjson += "{\"type\":\"region\",\"name\":\"r" +
                  std::to_string(r) + "\",\"dur_us\":" +
                  std::to_string((r + 1) * 10) + "}\n";
    }
    obs::prof::Options opts;
    opts.top_n = 2;
    const auto out = obs::prof::render_trace(ndjson, opts);
    EXPECT_NE(out.find("5 distinct regions"), std::string::npos);
    EXPECT_NE(out.find("  r4 "), std::string::npos);  // biggest kept
    EXPECT_NE(out.find("  r3 "), std::string::npos);
    EXPECT_EQ(out.find("  r0 "), std::string::npos);  // smallest cut
}

}  // namespace
}  // namespace vbatch
