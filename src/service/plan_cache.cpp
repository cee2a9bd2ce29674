#include "service/plan_cache.hpp"

#include <cstdlib>

#include "base/macros.hpp"
#include "obs/metrics.hpp"
#include "precond/block_jacobi.hpp"

namespace vbatch::service {

namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
    if (const char* v = std::getenv(name)) {
        const long parsed = std::atol(v);
        if (parsed > 0) {
            return static_cast<std::size_t>(parsed);
        }
    }
    return fallback;
}

}  // namespace

PlanCache::PlanCache(PlanCacheOptions options) {
    std::size_t shards = options.shards != 0
                             ? options.shards
                             : env_or("VBATCH_SERVICE_SHARDS", 8);
    VBATCH_ENSURE(shards > 0, "plan cache needs at least one shard");
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        shards_.push_back(std::make_unique<Shard>());
    }
    byte_budget_ = options.byte_budget;
    shard_budget_ =
        byte_budget_ == 0 ? 0 : (byte_budget_ + shards - 1) / shards;
}

PlanCache::Shard& PlanCache::shard_for(const PlanKey& key) {
    // The pattern hash is already well-mixed; fold in the knobs so two
    // configurations of one pattern can land on different stripes.
    const std::uint64_t h =
        key.pattern_hash ^
        (static_cast<std::uint64_t>(key.max_block_size) * 0x9e3779b97f4a7c15ULL) ^
        (static_cast<std::uint64_t>(key.lanes) << 32) ^ key.layout_hash;
    return *shards_[static_cast<std::size_t>(h % shards_.size())];
}

std::uint64_t PlanCache::fixed_layout_hash(const core::BatchLayout& layout) {
    std::uint64_t h = 0x84222325cbf29ce4ULL;
    for (const auto m : layout.sizes()) {
        h = (h ^ static_cast<std::uint64_t>(m)) * 0x100000001b3ULL;
    }
    return h == 0 ? 1 : h;
}

core::BatchLayoutPtr PlanCache::cached_layout(const PlanKey& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    return it != shard.entries.end() ? it->second.symbolic->layout : nullptr;
}

PlanCache::SymbolicPtr PlanCache::acquire_keyed(
    const PlanKey& key, const std::function<SymbolicPtr()>& build) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
        shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_pos);
        {
            std::lock_guard<std::mutex> slock(stats_mutex_);
            ++stats_.reuses;
        }
        obs::Registry::global().add("service.cache.reuses", 1.0);
        return it->second.symbolic;
    }
    // Build while holding the shard lock: same-key racers wait here and
    // adopt this object, so each key is analyzed exactly once. Other
    // shards (other patterns) proceed unblocked.
    SymbolicPtr sym = build();
    {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        ++stats_.builds;
    }
    obs::Registry::global().add("service.cache.builds", 1.0);
    if (sym == nullptr) {
        return nullptr;
    }
    Entry entry;
    entry.symbolic = sym;
    entry.bytes = sym->byte_size();
    entry.lru_pos = shard.lru.insert(shard.lru.end(), key);
    shard.bytes += entry.bytes;
    shard.entries.emplace(key, std::move(entry));
    evict_locked(shard);
    return sym;
}

void PlanCache::evict_locked(Shard& shard) {
    if (shard_budget_ == 0) {
        return;
    }
    std::size_t evicted = 0;
    auto pos = shard.lru.begin();
    while (shard.bytes > shard_budget_ && pos != shard.lru.end()) {
        auto it = shard.entries.find(*pos);
        VBATCH_ASSERT(it != shard.entries.end());
        // use_count == 1 means only the cache pins it; a shared entry is
        // in active use by at least one session and stays resident (the
        // LRU revisits it once those sessions drop their handles).
        if (it->second.symbolic.use_count() > 1) {
            ++pos;
            continue;
        }
        shard.bytes -= it->second.bytes;
        pos = shard.lru.erase(pos);
        shard.entries.erase(it);
        ++evicted;
    }
    if (evicted > 0) {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        stats_.evictions += evicted;
        obs::Registry::global().add("service.cache.evictions",
                                    static_cast<double>(evicted));
    }
}

PlanCacheStats PlanCache::stats() const {
    PlanCacheStats out;
    {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        out = stats_;
    }
    out.entries = 0;
    out.bytes = 0;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.entries += shard->entries.size();
        out.bytes += shard->bytes;
    }
    return out;
}

void PlanCache::clear() {
    for (auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        auto pos = shard->lru.begin();
        while (pos != shard->lru.end()) {
            auto it = shard->entries.find(*pos);
            if (it->second.symbolic.use_count() > 1) {
                ++pos;
                continue;
            }
            shard->bytes -= it->second.bytes;
            pos = shard->lru.erase(pos);
            shard->entries.erase(it);
        }
    }
}

}  // namespace vbatch::service
