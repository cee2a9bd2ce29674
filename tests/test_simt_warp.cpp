// Unit tests for the SIMT warp emulation layer: masks, shuffles,
// reductions, and the transaction-counting memory model.
#include <gtest/gtest.h>

#include <vector>

#include "simt/warp.hpp"

namespace vbatch::simt {
namespace {

TEST(LaneMask, FirstLanesAndRanges) {
    EXPECT_EQ(first_lanes(0), 0u);
    EXPECT_EQ(first_lanes(1), 1u);
    EXPECT_EQ(first_lanes(4), 0xfu);
    EXPECT_EQ(first_lanes(32), full_mask);
    EXPECT_EQ(lane_range(2, 5), 0b11100u);
    EXPECT_EQ(lane_range(0, 32), full_mask);
    EXPECT_EQ(lane_range(7, 7), 0u);
    EXPECT_EQ(popcount(first_lanes(13)), 13);
}

TEST(Warp, LaneIdAndBroadcast) {
    const auto ids = Warp::lane_id();
    for (index_type l = 0; l < warp_size; ++l) {
        EXPECT_EQ(ids[l], l);
    }
    const auto b = Warp::broadcast_value(3.5);
    EXPECT_EQ(b[0], 3.5);
    EXPECT_EQ(b[31], 3.5);
}

TEST(Warp, ShuffleBroadcastsAndCounts) {
    Warp w;
    Reg<double> v{};
    for (int l = 0; l < warp_size; ++l) {
        v[l] = l * 10.0;
    }
    EXPECT_EQ(w.shfl(v, 7), 70.0);
    EXPECT_EQ(w.stats().shuffle_instructions, 1);
}

TEST(Warp, ShuffleIndexedGathers) {
    Warp w;
    Reg<int> v{};
    Reg<index_type> src{};
    for (int l = 0; l < warp_size; ++l) {
        v[l] = l;
        src[l] = warp_size - 1 - l;
    }
    const auto r = w.shfl_indexed(full_mask, v, src);
    for (int l = 0; l < warp_size; ++l) {
        EXPECT_EQ(r[l], warp_size - 1 - l);
    }
}

TEST(Warp, BallotRespectsMask) {
    Warp w;
    Reg<int> pred{};
    pred[1] = 1;
    pred[5] = 1;
    pred[9] = 1;
    EXPECT_EQ(w.ballot(first_lanes(8), pred), (1u << 1) | (1u << 5));
}

TEST(Warp, ReduceAbsmaxFindsFirstMaximum) {
    Warp w;
    Reg<double> v{};
    v[3] = -9.0;
    v[10] = 9.0;   // tie in magnitude: lane 3 comes first
    v[20] = 5.0;
    const auto [val, lane] = w.reduce_absmax(full_mask, v);
    EXPECT_EQ(val, 9.0);
    EXPECT_EQ(lane, 3);
    // Restricting the mask excludes candidates.
    const auto [val2, lane2] = w.reduce_absmax(lane_range(4, 32), v);
    EXPECT_EQ(val2, 9.0);
    EXPECT_EQ(lane2, 10);
}

TEST(Warp, ReduceSum) {
    Warp w;
    Reg<double> v{};
    for (int l = 0; l < warp_size; ++l) {
        v[l] = 1.0;
    }
    EXPECT_EQ(w.reduce_sum(first_lanes(10), v), 10.0);
}

TEST(Warp, ArithmeticMasksAndUsefulFlops) {
    Warp w;
    Reg<double> a{};
    Reg<double> c{};
    for (int l = 0; l < warp_size; ++l) {
        a[l] = 2.0;
        c[l] = 10.0;
    }
    const auto r = w.fnma_scalar(first_lanes(4), a, 3.0, c, first_lanes(2));
    EXPECT_EQ(r[0], 4.0);   // 10 - 2*3
    EXPECT_EQ(r[3], 4.0);
    EXPECT_EQ(r[4], 10.0);  // inactive lane unchanged
    EXPECT_EQ(w.stats().fp_instructions, 1);
    EXPECT_EQ(w.stats().useful_flops, 4);  // 2 lanes x 2 flops

    const auto d = w.div_scalar(first_lanes(2), a, 2.0, first_lanes(2));
    EXPECT_EQ(d[0], 1.0);
    EXPECT_EQ(w.stats().div_instructions, 1);
}

TEST(Warp, CoalescedLoadCountsFewSectors) {
    Warp w;
    std::vector<double> data(64, 1.5);
    const auto r = w.load_global_strided(full_mask, data.data());
    EXPECT_EQ(r[31], 1.5);
    // 32 doubles = 256 contiguous bytes = 8 or 9 sectors depending on
    // alignment.
    EXPECT_LE(w.stats().load_transactions, 9);
    EXPECT_GE(w.stats().load_transactions, 8);
    EXPECT_EQ(w.stats().load_requests, 1);
}

TEST(Warp, StridedLoadCountsManySectors) {
    Warp w;
    std::vector<double> data(32 * 32, 2.0);
    // Stride of 32 doubles: every lane touches its own sector.
    const auto r = w.load_global_strided(full_mask, data.data(), 32);
    EXPECT_EQ(r[5], 2.0);
    EXPECT_EQ(w.stats().load_transactions, 32);
}

TEST(Warp, PermutedContiguousStoreStaysCoalesced) {
    Warp w;
    std::vector<float> data(32, 0.0f);
    Reg<float*> addr{};
    Reg<float> vals{};
    for (int l = 0; l < warp_size; ++l) {
        addr[l] = data.data() + (31 - l);  // permutation of a dense range
        vals[l] = static_cast<float>(l);
    }
    w.store_global(full_mask, addr, vals);
    EXPECT_EQ(data[31], 0.0f);  // lane 0 wrote to index 31
    EXPECT_EQ(data[0], 31.0f);
    // 32 floats = 128 bytes = 4-5 sectors despite the permutation.
    EXPECT_LE(w.stats().store_transactions, 5);
}

TEST(Warp, MaskedMemoryOnlyTouchesActiveLanes) {
    Warp w;
    std::vector<double> data(32, 1.0);
    Reg<double> vals = Warp::broadcast_value(9.0);
    Reg<double*> addr{};
    for (int l = 0; l < warp_size; ++l) {
        addr[l] = data.data() + l;
    }
    w.store_global(first_lanes(3), addr, vals);
    EXPECT_EQ(data[2], 9.0);
    EXPECT_EQ(data[3], 1.0);
}

TEST(Warp, StridedLoadCountsReplays) {
    Warp w;
    std::vector<double> data(32 * 32, 2.0);
    w.load_global_strided(full_mask, data.data(), 32);
    // 32 sectors -> 31 replays beyond the first.
    EXPECT_EQ(w.stats().load_replays, 31);
    w.reset_stats();
    w.load_global_strided(full_mask, data.data(), 1);
    EXPECT_LE(w.stats().load_replays, 8);
}

TEST(Warp, WriteCombiningDeduplicatesStoreTraffic) {
    Warp w;
    std::vector<double> data(32 * 32, 0.0);
    // Column-major strided stores into an m x m tile: every instruction is
    // non-coalesced (32 sectors), but the tile only has 256 sectors total.
    for (int i = 0; i < 32; ++i) {
        Reg<double*> addr{};
        Reg<double> vals{};
        for (int l = 0; l < warp_size; ++l) {
            addr[l] = data.data() + l * 32 + i;
            vals[l] = 1.0;
        }
        w.store_global(full_mask, addr, vals);
    }
    // Replays: 31 per instruction (LSU serialization)...
    EXPECT_EQ(w.stats().store_replays, 32 * 31);
    // ...but the DRAM traffic is just the unique sectors of the tile.
    EXPECT_LE(w.stats().store_transactions, 257);
    EXPECT_GE(w.stats().store_transactions, 256);
    // A second pass over the same tile is fully combined.
    const auto before = w.stats().store_transactions;
    Reg<double*> addr{};
    for (int l = 0; l < warp_size; ++l) {
        addr[l] = data.data() + l;
    }
    w.store_global(full_mask, addr, Warp::broadcast_value(2.0));
    EXPECT_EQ(w.stats().store_transactions, before);
    // Until the combiner is flushed.
    w.flush_write_combiner();
    w.store_global(full_mask, addr, Warp::broadcast_value(3.0));
    EXPECT_GT(w.stats().store_transactions, before);
}

TEST(Warp, AccountingOnlyHelpersTouchNoData) {
    Warp w;
    std::vector<double> data(32, 7.0);
    Reg<const double*> laddr{};
    Reg<double*> saddr{};
    for (int l = 0; l < warp_size; ++l) {
        laddr[l] = data.data() + l;
        saddr[l] = data.data() + l;
    }
    w.account_load(full_mask, laddr);
    w.account_store(full_mask, saddr);
    EXPECT_EQ(w.stats().load_requests, 1);
    EXPECT_EQ(w.stats().store_requests, 1);
    for (const auto v : data) {
        EXPECT_EQ(v, 7.0);
    }
}

TEST(Warp, SharedMemoryBankConflicts) {
    Warp w;
    // Conflict-free: each lane hits its own bank.
    Reg<index_type> offs{};
    for (int l = 0; l < warp_size; ++l) {
        offs[l] = l;
    }
    w.shared_access(full_mask, offs, 1);
    EXPECT_EQ(w.stats().shared_bank_conflicts, 0);
    // Worst case: all lanes hit bank 0.
    Reg<index_type> same{};
    for (int l = 0; l < warp_size; ++l) {
        same[l] = l * 32;
    }
    w.shared_access(full_mask, same, 1);
    EXPECT_EQ(w.stats().shared_bank_conflicts, 31);
}

TEST(Warp, StatsAccumulateAndReset) {
    Warp w;
    Reg<double> v{};
    w.shfl(v, 0);
    w.shfl(v, 1);
    EXPECT_EQ(w.stats().shuffle_instructions, 2);
    w.reset_stats();
    EXPECT_EQ(w.stats().shuffle_instructions, 0);
}

TEST(KernelStats, Addition) {
    KernelStats a;
    a.fp_instructions = 3;
    a.load_transactions = 2;
    KernelStats b;
    b.fp_instructions = 4;
    b.useful_flops = 7;
    const auto c = a + b;
    EXPECT_EQ(c.fp_instructions, 7);
    EXPECT_EQ(c.load_transactions, 2);
    EXPECT_EQ(c.useful_flops, 7);
    EXPECT_EQ(c.load_bytes(), 64);
}

}  // namespace
}  // namespace vbatch::simt
