// Lockstep SIMT warp emulation.
//
// A CUDA warp kernel of the kind the paper builds ("one matrix row per
// thread, everything in registers, warp shuffles for communication") is an
// SPMD program over 32 lanes that execute in lockstep. The emulator
// represents each per-lane register as a Reg<T> = std::array<T, 32> and
// expresses every warp instruction as an operation over all 32 entries,
// predicated by an active-lane mask -- which is exactly how the hardware
// executes it, and lets the host compiler vectorize the emulation.
//
// All arithmetic, shuffle and memory operations go through the Warp object
// so that instruction issues and memory transactions are counted once, in
// one place (see kernel_stats.hpp). Kernels built on this API:
//   core/simt_kernels.cpp  - small-size LU, GH, GH-T, TRSV
//   blocking/extraction_simt.cpp - shared-memory diagonal block extraction
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "base/macros.hpp"
#include "base/types.hpp"
#include "simt/kernel_stats.hpp"

namespace vbatch::simt {

/// One per-lane register: value for each of the 32 lanes of the warp.
template <typename T>
using Reg = std::array<T, warp_size>;

/// Lane activity mask; bit l set <=> lane l executes the instruction.
using lane_mask = std::uint32_t;

inline constexpr lane_mask full_mask = 0xffffffffu;

/// Mask with bits [0, n) set: the "first n lanes" predicate used to map an
/// m-row matrix onto the first m lanes.
inline constexpr lane_mask first_lanes(index_type n) noexcept {
    return n >= warp_size ? full_mask : ((1u << n) - 1u);
}

/// Mask with bits [lo, hi) set.
inline constexpr lane_mask lane_range(index_type lo, index_type hi) noexcept {
    return first_lanes(hi) & ~first_lanes(lo);
}

inline int popcount(lane_mask m) noexcept { return std::popcount(m); }

/// Warp execution context: owns the instruction/transaction counters and
/// provides the instruction set the kernels are written against.
class Warp {
public:
    static constexpr int width = warp_size;

    Warp() = default;

    KernelStats& stats() noexcept { return stats_; }
    const KernelStats& stats() const noexcept { return stats_; }
    void reset_stats() noexcept { stats_ = {}; }

    // ---------------------------------------------------------------
    // Register initialization
    // ---------------------------------------------------------------

    template <typename T>
    static Reg<T> broadcast_value(T v) {
        Reg<T> r;
        r.fill(v);
        return r;
    }

    /// r[l] = l for every lane (threadIdx.x within the warp).
    static Reg<index_type> lane_id() {
        Reg<index_type> r;
        for (index_type l = 0; l < width; ++l) {
            r[l] = l;
        }
        return r;
    }

    // ---------------------------------------------------------------
    // Shuffles (warp communication)
    // ---------------------------------------------------------------

    /// __shfl_sync(v, src_lane): every active lane reads lane `src`'s value.
    /// Returns the broadcast scalar.
    template <typename T>
    T shfl(const Reg<T>& v, index_type src) {
        VBATCH_ASSERT(src >= 0 && src < width);
        ++stats_.shuffle_instructions;
        return v[src];
    }

    /// __shfl_sync with per-lane source index.
    template <typename T>
    Reg<T> shfl_indexed(lane_mask mask, const Reg<T>& v,
                        const Reg<index_type>& src) {
        ++stats_.shuffle_instructions;
        Reg<T> r{};
        for_each_lane(mask, [&](int l) {
            VBATCH_ASSERT(src[l] >= 0 && src[l] < width);
            r[l] = v[src[l]];
        });
        return r;
    }

    /// __ballot_sync: bit l of the result is pred[l] != 0 for active lanes.
    template <typename T>
    lane_mask ballot(lane_mask mask, const Reg<T>& pred) {
        ++stats_.misc_instructions;
        lane_mask out = 0;
        for_each_lane(mask, [&](int l) {
            if (pred[l] != T{}) {
                out |= (1u << l);
            }
        });
        return out;
    }

    /// Xor-shuffle argmax reduction over |v| restricted to `mask`:
    /// returns {max |v[l]|, lane achieving it}. Mirrors the 5-step
    /// __shfl_xor reduction used for pivot selection; charges 5 shuffle
    /// issues + 5 compare issues.
    template <typename T>
    std::pair<T, index_type> reduce_absmax(lane_mask mask, const Reg<T>& v) {
        VBATCH_ASSERT(mask != 0);
        stats_.shuffle_instructions += 5;
        stats_.misc_instructions += 5;
        T best_val = T{};
        index_type best_lane = -1;
        for (int l = 0; l < width; ++l) {
            if (!(mask & (1u << l))) {
                continue;
            }
            const T a = std::abs(v[l]);
            if (best_lane < 0 || a > std::abs(best_val)) {
                best_val = a;
                best_lane = l;
            }
        }
        return {best_val, best_lane};
    }

    /// Xor-shuffle sum reduction over active lanes (5 shuffle + 5 add
    /// issues). The result is the broadcast scalar sum.
    template <typename T>
    T reduce_sum(lane_mask mask, const Reg<T>& v) {
        stats_.shuffle_instructions += 5;
        stats_.fp_instructions += 5;
        stats_.useful_flops += std::max(0, popcount(mask) - 1);
        T sum = T{};
        for_each_lane(mask, [&](int l) { sum += v[l]; });
        return sum;
    }

    // ---------------------------------------------------------------
    // Arithmetic (one warp-wide issue each; useful flops counted on the
    // active lanes only when `useful` lanes are provided)
    // ---------------------------------------------------------------

    /// r[l] = a[l] * s  on active lanes.
    template <typename T>
    Reg<T> mul_scalar(lane_mask mask, const Reg<T>& a, T s,
                      lane_mask useful_lanes) {
        ++stats_.fp_instructions;
        stats_.useful_flops += popcount(mask & useful_lanes);
        Reg<T> r = a;
        for_each_lane(mask, [&](int l) { r[l] = a[l] * s; });
        return r;
    }

    /// r[l] = a[l] / s  on active lanes (charged as an expensive division).
    template <typename T>
    Reg<T> div_scalar(lane_mask mask, const Reg<T>& a, T s,
                      lane_mask useful_lanes) {
        ++stats_.div_instructions;
        stats_.useful_flops += popcount(mask & useful_lanes);
        Reg<T> r = a;
        for_each_lane(mask, [&](int l) { r[l] = a[l] / s; });
        return r;
    }

    /// r[l] = c[l] - a[l] * s  (fused negated multiply-add; the GER /
    /// AXPY building block). 2 useful flops per counted lane.
    template <typename T>
    Reg<T> fnma_scalar(lane_mask mask, const Reg<T>& a, T s, const Reg<T>& c,
                       lane_mask useful_lanes) {
        ++stats_.fp_instructions;
        stats_.useful_flops += 2 * popcount(mask & useful_lanes);
        Reg<T> r = c;
        for_each_lane(mask, [&](int l) { r[l] = c[l] - a[l] * s; });
        return r;
    }

    /// r[l] = a[l] * b[l] on active lanes.
    template <typename T>
    Reg<T> mul(lane_mask mask, const Reg<T>& a, const Reg<T>& b,
               lane_mask useful_lanes) {
        ++stats_.fp_instructions;
        stats_.useful_flops += popcount(mask & useful_lanes);
        Reg<T> r{};
        for_each_lane(mask, [&](int l) { r[l] = a[l] * b[l]; });
        return r;
    }

    // ---------------------------------------------------------------
    // Global memory (sector-based transaction counting)
    //
    // Like the hardware, a warp-wide load/store instruction touches a set
    // of 32-byte sectors; the number of distinct sectors is the number of
    // transactions. A fully coalesced load of 32 consecutive floats costs
    // 4 transactions; a strided (non-coalesced) one costs up to 32.
    // ---------------------------------------------------------------

    template <typename T>
    Reg<T> load_global(lane_mask mask, const Reg<const T*>& addr) {
        account_load(mask, addr);
        Reg<T> r{};
        for_each_lane(mask, [&](int l) { r[l] = *addr[l]; });
        return r;
    }

    template <typename T>
    void store_global(lane_mask mask, const Reg<T*>& addr, const Reg<T>& v) {
        account_store(mask, addr);
        for_each_lane(mask, [&](int l) { *addr[l] = v[l]; });
    }

    /// Coalesced helper: lane l accesses base[l] (the common fast path).
    template <typename T>
    Reg<T> load_global_strided(lane_mask mask, const T* base,
                               index_type stride = 1) {
        Reg<const T*> addr{};
        for (int l = 0; l < width; ++l) {
            addr[l] = base + static_cast<std::ptrdiff_t>(l) * stride;
        }
        return load_global(mask, addr);
    }

    template <typename T>
    void store_global_strided(lane_mask mask, T* base, const Reg<T>& v,
                              index_type stride = 1) {
        Reg<T*> addr{};
        for (int l = 0; l < width; ++l) {
            addr[l] = base + static_cast<std::ptrdiff_t>(l) * stride;
        }
        store_global(mask, addr, v);
    }

    /// Accounting-only load: charge the transactions of a warp load at the
    /// given addresses without moving data. Used when a kernel reads from
    /// an auxiliary layout (e.g. GH-T's transpose-friendly multiplier
    /// copy) that the emulation keeps fused in the primary buffer.
    ///
    /// Loads are streamed (these kernels touch every element once): each
    /// distinct sector of one instruction is a transaction; sectors beyond
    /// the first also count as LSU replays.
    template <typename P>
    void account_load(lane_mask mask, const Reg<P>& addr) {
        ++stats_.load_requests;
        const auto sectors = count_sectors(mask, addr);
        stats_.load_transactions += sectors;
        stats_.load_replays += sectors > 0 ? sectors - 1 : 0;
    }

    /// Accounting-only store (see account_load).
    ///
    /// Stores go through a write-back L2: a sector already dirtied by this
    /// kernel run is combined and produces no new DRAM transaction, but
    /// every per-instruction sector beyond the first still replays through
    /// the LSU. This is why the paper sees GH-T's non-coalesced factor
    /// writes cost only a few percent (issue pressure), not a bandwidth
    /// multiple.
    template <typename P>
    void account_store(lane_mask mask, const Reg<P>& addr) {
        ++stats_.store_requests;
        std::array<std::uintptr_t, warp_size> sectors{};
        const int n = collect_sectors(mask, addr, sectors);
        stats_.store_replays += n > 0 ? n - 1 : 0;
        for (int i = 0; i < n; ++i) {
            if (dirty_sectors_.insert(sectors[i]).second) {
                ++stats_.store_transactions;
            }
        }
    }

    /// Drop the write-combining history (e.g. between unrelated launches).
    void flush_write_combiner() { dirty_sectors_.clear(); }

    // ---------------------------------------------------------------
    // Shared memory (32 banks x 4 bytes; conflict = serialized replays)
    // ---------------------------------------------------------------

    /// Account a warp-wide shared-memory access at the given per-lane word
    /// offsets; returns nothing (data movement is done by the caller on
    /// host memory), only accounting happens here.
    void shared_access(lane_mask mask, const Reg<index_type>& word_offset,
                       int words_per_element = 1) {
        ++stats_.shared_accesses;
        // Bank b serves lanes with (offset * words) % 32 == b; the access
        // replays max-multiplicity times.
        std::array<int, warp_size> hits{};
        int replays = 1;
        for_each_lane(mask, [&](int l) {
            const int bank = static_cast<int>(
                (static_cast<std::uint32_t>(word_offset[l]) *
                 static_cast<std::uint32_t>(words_per_element)) %
                warp_size);
            ++hits[bank];
            replays = std::max(replays, hits[bank]);
        });
        stats_.shared_bank_conflicts += replays - 1;
    }

    // ---------------------------------------------------------------

    /// Invoke f(l) for each active lane l in mask (emulation helper, not
    /// an instruction; does not touch the counters).
    template <typename F>
    static void for_each_lane(lane_mask mask, F&& f) {
        while (mask != 0) {
            const int l = std::countr_zero(mask);
            f(l);
            mask &= mask - 1;
        }
    }

private:
    /// Collect distinct 32-byte sector ids of one instruction; n <= 32, so
    /// a small insertion set beats hashing.
    template <typename P>
    static int collect_sectors(lane_mask mask, const Reg<P>& addr,
                               std::array<std::uintptr_t, warp_size>& out) {
        int n = 0;
        for_each_lane(mask, [&](int l) {
            const auto sec =
                reinterpret_cast<std::uintptr_t>(addr[l]) / 32u;
            for (int i = 0; i < n; ++i) {
                if (out[i] == sec) {
                    return;
                }
            }
            out[n++] = sec;
        });
        return n;
    }

    template <typename P>
    static size_type count_sectors(lane_mask mask, const Reg<P>& addr) {
        std::array<std::uintptr_t, warp_size> sectors{};
        return collect_sectors(mask, addr, sectors);
    }

    KernelStats stats_;
    std::unordered_set<std::uintptr_t> dirty_sectors_;
};

}  // namespace vbatch::simt
