#include "obs/metrics.hpp"

#include <mutex>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace vbatch::obs {

struct Registry::Impl {
    mutable std::mutex mutex;
    std::map<std::string, double, std::less<>> counters;
    std::map<std::string, double, std::less<>> gauges;
    std::map<std::string, KernelFamilyStats, std::less<>> kernels;
    std::map<std::string, TrafficStats, std::less<>> traffic;
    std::map<std::string, PerfRegionStats, std::less<>> perf;
    PoolTelemetrySource pool_source = nullptr;
};

Registry::Registry() : impl_(new Impl) {}

Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
    // Leaked singleton, like the tracer: instrumented code may record
    // from worker threads during static destruction.
    static Registry* registry = new Registry();
    return *registry;
}

void Registry::add(std::string_view counter, double delta) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->counters.find(counter);
    if (it == impl_->counters.end()) {
        impl_->counters.emplace(std::string(counter), delta);
    } else {
        it->second += delta;
    }
}

void Registry::set(std::string_view gauge, double value) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->gauges.find(gauge);
    if (it == impl_->gauges.end()) {
        impl_->gauges.emplace(std::string(gauge), value);
    } else {
        it->second = value;
    }
}

void Registry::record_kernel(std::string_view family,
                             const simt::KernelStats& stats,
                             size_type problems, double modeled_seconds) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->kernels.find(family);
    if (it == impl_->kernels.end()) {
        it = impl_->kernels.emplace(std::string(family), KernelFamilyStats{})
                 .first;
    }
    it->second.stats += stats;
    it->second.launches += 1;
    it->second.problems += problems;
    it->second.modeled_seconds += modeled_seconds;
}

void Registry::record_traffic(std::string_view family, double flops,
                              double bytes, double seconds,
                              size_type problems, double roof_gbs) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->traffic.find(family);
    if (it == impl_->traffic.end()) {
        it = impl_->traffic.emplace(std::string(family), TrafficStats{})
                 .first;
    }
    it->second.flops += flops;
    it->second.bytes += bytes;
    it->second.seconds += seconds;
    it->second.calls += 1;
    it->second.problems += problems;
    if (roof_gbs > 0.0) {
        it->second.roof_gbs = roof_gbs;
    }
}

void Registry::record_perf(std::string_view region,
                           const PerfRegionStats& delta) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->perf.find(region);
    if (it == impl_->perf.end()) {
        it = impl_->perf.emplace(std::string(region), PerfRegionStats{})
                 .first;
    }
    auto& agg = it->second;
    agg.calls += delta.calls;
    agg.hardware_calls += delta.hardware_calls;
    agg.seconds += delta.seconds;
    agg.cycles += delta.cycles;
    agg.instructions += delta.instructions;
    agg.l1d_misses += delta.l1d_misses;
    agg.llc_misses += delta.llc_misses;
    agg.branch_misses += delta.branch_misses;
}

void Registry::set_pool_telemetry_source(PoolTelemetrySource source) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->pool_source = source;
}

PoolTelemetry Registry::pool_telemetry() const {
    PoolTelemetrySource source = nullptr;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        source = impl_->pool_source;
    }
    return source != nullptr ? source() : PoolTelemetry{};
}

std::map<std::string, double, std::less<>> Registry::counters() const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->counters;
}

std::map<std::string, double, std::less<>> Registry::gauges() const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->gauges;
}

std::map<std::string, KernelFamilyStats, std::less<>> Registry::kernels()
    const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->kernels;
}

std::map<std::string, TrafficStats, std::less<>> Registry::traffic() const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->traffic;
}

std::map<std::string, PerfRegionStats, std::less<>> Registry::perf() const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->perf;
}

double Registry::counter_value(std::string_view name) const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->counters.find(name);
    return it == impl_->counters.end() ? 0.0 : it->second;
}

void Registry::clear() {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->counters.clear();
    impl_->gauges.clear();
    impl_->kernels.clear();
    impl_->traffic.clear();
    impl_->perf.clear();
    // The pool telemetry source survives clear(): it is a wiring fact,
    // not accumulated data.
}

namespace {

void write_kernel_family(JsonWriter& json, const KernelFamilyStats& family) {
    const auto& s = family.stats;
    json.begin_object();
    json.key("launches");
    json.value(static_cast<std::uint64_t>(family.launches));
    json.key("problems");
    json.value(static_cast<std::uint64_t>(family.problems));
    json.key("modeled_seconds");
    json.value(family.modeled_seconds);
    const std::pair<const char*, size_type> fields[] = {
        {"fp_instructions", s.fp_instructions},
        {"div_instructions", s.div_instructions},
        {"shuffle_instructions", s.shuffle_instructions},
        {"misc_instructions", s.misc_instructions},
        {"useful_flops", s.useful_flops},
        {"load_transactions", s.load_transactions},
        {"store_transactions", s.store_transactions},
        {"load_requests", s.load_requests},
        {"store_requests", s.store_requests},
        {"load_replays", s.load_replays},
        {"store_replays", s.store_replays},
        {"shared_accesses", s.shared_accesses},
        {"shared_bank_conflicts", s.shared_bank_conflicts},
    };
    for (const auto& [name, value] : fields) {
        json.key(name);
        json.value(static_cast<std::uint64_t>(value));
    }
    json.end_object();
}

}  // namespace

namespace {

void write_traffic_entry(JsonWriter& json, const TrafficStats& t,
                         double fallback_roof_gbs) {
    json.begin_object();
    json.key("flops");
    json.value(t.flops);
    json.key("bytes");
    json.value(t.bytes);
    json.key("seconds");
    json.value(t.seconds);
    json.key("calls");
    json.value(static_cast<std::uint64_t>(t.calls));
    json.key("problems");
    json.value(static_cast<std::uint64_t>(t.problems));
    // An unmeasured roof is unknown, not 0: roof and fraction go null.
    const double roof = t.roof_gbs > 0.0 ? t.roof_gbs : fallback_roof_gbs;
    json.key("roof_gbs");
    if (roof > 0.0) {
        json.value(roof);
    } else {
        json.null();
    }
    json.key("gflops");
    json.value(t.gflops());
    json.key("bandwidth_gbs");
    json.value(t.bandwidth_gbs());
    json.key("arithmetic_intensity");
    json.value(t.arithmetic_intensity());
    json.key("fraction_of_roof");
    if (roof > 0.0) {
        json.value(t.fraction_of_roof(fallback_roof_gbs));
    } else {
        json.null();
    }
    json.end_object();
}

void write_perf_entry(JsonWriter& json, const PerfRegionStats& p) {
    json.begin_object();
    json.key("calls");
    json.value(static_cast<std::uint64_t>(p.calls));
    json.key("hardware_calls");
    json.value(static_cast<std::uint64_t>(p.hardware_calls));
    json.key("seconds");
    json.value(p.seconds);
    json.key("cycles");
    json.value(p.cycles);
    json.key("instructions");
    json.value(p.instructions);
    json.key("ipc");
    json.value(p.cycles > 0.0 ? p.instructions / p.cycles : 0.0);
    json.key("l1d_misses");
    json.value(p.l1d_misses);
    json.key("llc_misses");
    json.value(p.llc_misses);
    json.key("branch_misses");
    json.value(p.branch_misses);
    json.end_object();
}

void write_pool_members(JsonWriter& json, const PoolTelemetry& pool) {
    json.begin_object();
    json.key("workers");
    json.value(static_cast<std::uint64_t>(pool.workers));
    json.key("armed");
    json.value(pool.armed);
    json.key("wall_seconds");
    json.value(pool.wall_seconds);
    json.key("busy_seconds");
    json.value(pool.busy_seconds);
    json.key("idle_seconds");
    json.value(pool.idle_seconds);
    json.key("utilization");
    json.value(pool.utilization);
    json.key("dispatches");
    json.value(static_cast<std::uint64_t>(pool.dispatches));
    json.key("inline_runs");
    json.value(static_cast<std::uint64_t>(pool.inline_runs));
    json.key("steals");
    json.value(static_cast<std::uint64_t>(pool.steals));
    json.key("steal_fails");
    json.value(static_cast<std::uint64_t>(pool.steal_fails));
    json.key("splits");
    json.value(static_cast<std::uint64_t>(pool.splits));
    json.key("parks");
    json.value(static_cast<std::uint64_t>(pool.parks));
    json.key("spin_wakes");
    json.value(static_cast<std::uint64_t>(pool.spin_wakes));
    json.end_object();
}

}  // namespace

void Registry::write_json_members(JsonWriter& json) const {
    const auto counter_map = counters();
    const auto gauge_map = gauges();
    const auto kernel_map = kernels();
    const auto traffic_map = traffic();
    const auto perf_map = perf();
    const auto gauge_it = gauge_map.find("roofline.triad_gbs");
    const double fallback_roof =
        gauge_it != gauge_map.end() ? gauge_it->second : 0.0;
    json.key("counters");
    json.begin_object();
    for (const auto& [name, value] : counter_map) {
        json.key(name);
        json.value(value);
    }
    json.end_object();
    json.key("gauges");
    json.begin_object();
    for (const auto& [name, value] : gauge_map) {
        json.key(name);
        json.value(value);
    }
    json.end_object();
    json.key("kernel_stats");
    json.begin_object();
    for (const auto& [name, family] : kernel_map) {
        json.key(name);
        write_kernel_family(json, family);
    }
    json.end_object();
    json.key("traffic");
    json.begin_object();
    for (const auto& [name, stats] : traffic_map) {
        json.key(name);
        write_traffic_entry(json, stats, fallback_roof);
    }
    json.end_object();
    json.key("perf");
    json.begin_object();
    for (const auto& [name, stats] : perf_map) {
        json.key(name);
        write_perf_entry(json, stats);
    }
    json.end_object();
    json.key("pool");
    write_pool_members(json, pool_telemetry());
}

void Registry::write_json(std::ostream& os) const {
    JsonWriter json(os);
    json.begin_object();
    write_json_members(json);
    json.end_object();
}

std::string Registry::to_json() const {
    std::ostringstream os;
    write_json(os);
    return os.str();
}

}  // namespace vbatch::obs
