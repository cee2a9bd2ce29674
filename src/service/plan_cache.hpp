// Sharded, refcounted cache of block-Jacobi symbolic analyses.
//
// The service engine hosts many tenants whose matrices often share one
// sparsity pattern (time steps, Newton iterates, per-client instances of
// the same discretization). The symbolic layer of a block-Jacobi setup
// -- block layout, gather plan, lane grouping -- depends only on that
// pattern, the layout the rule chose from the values (the supervariable
// layout unless the values call for strength-aware aggregation, see
// blocking/aggregation.hpp) and the backend's (bound, lane path, isa,
// lanes) knobs, so thousands of same-pattern sessions can share a single
// precond::BlockJacobiSymbolic while keeping private numeric factors.
//
// The cache is keyed by the 64-bit CSR pattern fingerprint (plus the
// shape, the chosen layout's hash and the symbolic-relevant knobs):
// tenants of one pattern share a plan unless their values choose
// different layouts, and each tenant's choice is a pure function of its
// own matrix, whatever the arrival order. The cache is striped over N
// mutex-guarded shards so unrelated patterns never contend on one lock.
// A miss builds the symbolic *under its shard lock*, which gives
// exactly-once construction per key: concurrent same-pattern acquires
// serialize on the shard and every latecomer adopts the one built
// object. Entries are refcounted through shared_ptr; eviction (LRU, to
// a byte budget) only drops entries no session currently pins, and an
// evicted-but-pinned symbolic simply lives on with its sessions.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "base/types.hpp"
#include "blocking/aggregation.hpp"
#include "blocking/gather_plan.hpp"
#include "core/simd_dispatch.hpp"
#include "precond/config.hpp"
#include "sparse/csr.hpp"

namespace vbatch::service {

/// Everything the symbolic layer depends on. Two matrices with equal
/// keys produce interchangeable symbolics (the fingerprint makes a
/// same-shape collision astronomically unlikely; adoption is still
/// re-validated against the matrix by the BlockJacobi setup).
struct PlanKey {
    std::uint64_t pattern_hash = 0;
    index_type num_rows = 0;
    size_type nnz = 0;
    index_type max_block_size = 0;
    /// LU-family symbolic (every block in a lane group) vs the
    /// scalar-path one of the other backends. The two differ even at
    /// (scalar, 1 lane): "lu" and scalar-ISA "lu-simd" build one and the
    /// same lane-path symbolic, "gh" and friends the group-free one.
    bool lane_path = false;
    core::SimdIsa isa = core::SimdIsa::scalar;
    index_type lanes = 1;
    /// blocking::layout_hash of the chosen layout (0 = the supervariable
    /// layout), or a nonzero hash of a layout fixed by config.layout.
    std::uint64_t layout_hash = 0;

    friend bool operator<(const PlanKey& a, const PlanKey& b) {
        return std::tie(a.pattern_hash, a.num_rows, a.nnz,
                        a.max_block_size, a.lane_path, a.isa, a.lanes,
                        a.layout_hash) <
               std::tie(b.pattern_hash, b.num_rows, b.nnz,
                        b.max_block_size, b.lane_path, b.isa, b.lanes,
                        b.layout_hash);
    }
};

struct PlanCacheOptions {
    /// Number of mutex stripes; 0 = $VBATCH_SERVICE_SHARDS, default 8.
    std::size_t shards = 0;
    /// LRU byte budget across all shards (charged via
    /// BlockJacobiSymbolic::byte_size); 0 = unbounded.
    std::size_t byte_budget = 0;
};

/// Monotone counters plus a point-in-time footprint snapshot.
struct PlanCacheStats {
    std::size_t builds = 0;     ///< misses that constructed a symbolic
    std::size_t reuses = 0;     ///< hits served from the cache
    std::size_t evictions = 0;  ///< unpinned entries dropped by the LRU
    std::size_t entries = 0;    ///< resident entries right now
    std::size_t bytes = 0;      ///< resident symbolic bytes right now
};

class PlanCache {
public:
    using SymbolicPtr = std::shared_ptr<const precond::BlockJacobiSymbolic>;

    explicit PlanCache(PlanCacheOptions options = {});

    /// The symbolic `config` needs for `a`: cached copy on a key hit,
    /// freshly built (and inserted) on a miss, nullptr when the backend
    /// has no symbolic phase ("none", "jacobi", custom registrations).
    /// Runs the layout rule on `a`'s values to key the plan (unless
    /// config.layout fixes the layout); when the pattern's supervariable
    /// plan is cached, the rule starts from its layout, so a tenant that
    /// keeps that layout pays one pass over its values. Thread-safe;
    /// same-key concurrent calls build exactly once.
    template <typename T>
    SymbolicPtr acquire(const sparse::Csr<T>& a,
                        const precond::Config& config) {
        if (!precond::symbolic_backend(config.backend)) {
            return nullptr;
        }
        if (config.layout) {
            return acquire_keyed(
                key_for(a, config, fixed_layout_hash(*config.layout)),
                [&] { return precond::make_symbolic<T>(a, config); });
        }
        auto supervariable = cached_layout(key_for(a, config, 0));
        auto blocks =
            supervariable != nullptr
                ? blocking::choose_diagonal_blocks(a, blocking_options(config),
                                                   std::move(supervariable))
                : blocking::choose_diagonal_blocks(a,
                                                   blocking_options(config));
        return acquire_keyed(
            key_for(a, config,
                    blocking::layout_hash(*blocks.layout, blocks.rows)),
            [&] {
                return precond::make_symbolic<T>(a, config,
                                                 std::move(blocks));
            });
    }

    /// The key acquire() would file `a` + `config` under.
    template <typename T>
    static PlanKey key_for(const sparse::Csr<T>& a,
                           const precond::Config& config) {
        if (config.layout) {
            return key_for(a, config, fixed_layout_hash(*config.layout));
        }
        const auto blocks =
            blocking::choose_diagonal_blocks(a, blocking_options(config));
        return key_for(a, config,
                       blocking::layout_hash(*blocks.layout, blocks.rows));
    }

    PlanCacheStats stats() const;
    std::size_t num_shards() const noexcept { return shards_.size(); }
    std::size_t byte_budget() const noexcept { return byte_budget_; }

    /// Drop every unpinned entry (pinned ones stay with their sessions).
    void clear();

private:
    static blocking::BlockingOptions blocking_options(
        const precond::Config& config) {
        blocking::BlockingOptions bopts;
        bopts.max_block_size = config.max_block_size;
        return bopts;
    }

    /// Key part of a layout the caller fixed through config.layout:
    /// nonzero, so such a plan never stands in for the rule's
    /// supervariable layout (hash 0).
    static std::uint64_t fixed_layout_hash(const core::BatchLayout& layout);

    template <typename T>
    static PlanKey key_for(const sparse::Csr<T>& a,
                           const precond::Config& config,
                           std::uint64_t layout_hash) {
        PlanKey key;
        // Memoized per structure: copies of an analyzed matrix key in
        // O(1), a fresh tenant matrix pays the O(nnz) hash exactly once.
        key.pattern_hash = a.pattern_hash();
        key.num_rows = a.num_rows();
        key.nnz = a.nnz();
        key.max_block_size = config.max_block_size;
        key.lane_path = config.backend == "lu" || config.backend == "lu-simd";
        if (config.backend == "lu-simd") {
            // The builder's clamp, so the key names the ISA the symbolic
            // will actually be built for ("lu" is the scalar ISA).
            key.isa = core::resolve_simd_isa(config.simd);
        }
        key.lanes = core::simd_lanes<T>(key.isa);
        key.layout_hash = layout_hash;
        return key;
    }

    struct Entry {
        SymbolicPtr symbolic;
        std::size_t bytes = 0;
        std::list<PlanKey>::iterator lru_pos;
    };

    struct Shard {
        mutable std::mutex mutex;
        std::map<PlanKey, Entry> entries;
        /// Front = least recently used.
        std::list<PlanKey> lru;
        std::size_t bytes = 0;
    };

    SymbolicPtr acquire_keyed(const PlanKey& key,
                              const std::function<SymbolicPtr()>& build);
    /// Block layout of the symbolic cached under `key`, or nullptr;
    /// counts nothing and leaves the LRU order alone.
    core::BatchLayoutPtr cached_layout(const PlanKey& key);
    Shard& shard_for(const PlanKey& key);
    /// Drop unpinned LRU entries until the shard fits its budget slice.
    void evict_locked(Shard& shard);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::size_t byte_budget_ = 0;
    /// Per-shard slice of the budget (bytes are tracked per shard so
    /// eviction never needs a second lock).
    std::size_t shard_budget_ = 0;

    mutable std::mutex stats_mutex_;
    PlanCacheStats stats_;
};

}  // namespace vbatch::service
