#include "blocking/extraction.hpp"

#include <algorithm>

#include "base/macros.hpp"
#include "base/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vbatch::blocking {

using simt::first_lanes;
using simt::lane_mask;
using simt::Reg;
using simt::Warp;

template <typename T>
core::BatchedMatrices<T> extract_diagonal_blocks(
    const sparse::Csr<T>& a, core::BatchLayoutPtr layout) {
    VBATCH_ENSURE(layout->total_rows() == a.num_rows(),
                  "block sizes must partition the matrix");
    obs::TraceRegion trace("extract_diagonal_blocks");
    core::BatchedMatrices<T> blocks(layout);
    const auto row_ptrs = a.row_ptrs();
    const auto col_idxs = a.col_idxs();
    const auto values = a.values();
    const auto body = [&](size_type b) {
        auto block = blocks.view(b);
        const auto r0 = static_cast<index_type>(layout->row_offset(b));
        const index_type m = layout->size(b);
        for (index_type i = 0; i < m; ++i) {
            const auto row = static_cast<std::size_t>(r0 + i);
            auto p = row_ptrs[row];
            const auto end = row_ptrs[row + 1];
            // Skip to the first column inside the block.
            while (p < end &&
                   col_idxs[static_cast<std::size_t>(p)] < r0) {
                ++p;
            }
            for (; p < end &&
                   col_idxs[static_cast<std::size_t>(p)] < r0 + m; ++p) {
                block(i, col_idxs[static_cast<std::size_t>(p)] - r0) =
                    values[static_cast<std::size_t>(p)];
            }
        }
    };
    ThreadPool::global().parallel_for(0, layout->count(), body);
    return blocks;
}

template <typename T>
SimtExtractionResult<T> extract_blocks_simt_row(const sparse::Csr<T>& a,
                                                core::BatchLayoutPtr layout) {
    VBATCH_ENSURE(layout->total_rows() == a.num_rows(),
                  "block sizes must partition the matrix");
    obs::TraceRegion trace("extract_blocks_simt_row");
    SimtExtractionResult<T> result{core::BatchedMatrices<T>(layout), {}};
    Warp warp;
    const auto row_ptrs = a.row_ptrs();
    const auto col_idxs = a.col_idxs();
    const auto values = a.values();

    for (size_type b = 0; b < layout->count(); ++b) {
        auto block = result.blocks.view(b);
        const auto r0 = static_cast<index_type>(layout->row_offset(b));
        const index_type m = layout->size(b);
        const lane_mask rows_m = first_lanes(m);

        // Lane i walks row r0+i on its own. The warp executes as many
        // steps as the *longest* row -- shorter rows' lanes idle, which is
        // the load-imbalance cost of this strategy.
        std::array<size_type, warp_size> pos{};
        std::array<size_type, warp_size> end{};
        size_type max_len = 0;
        for (index_type i = 0; i < m; ++i) {
            pos[i] = row_ptrs[static_cast<std::size_t>(r0 + i)];
            end[i] = row_ptrs[static_cast<std::size_t>(r0 + i) + 1];
            max_len = std::max(max_len, end[i] - pos[i]);
        }
        for (size_type step = 0; step < max_len; ++step) {
            // Gathered (non-coalesced) load of one column index per lane.
            Reg<const index_type*> addr{};
            lane_mask active = 0;
            Warp::for_each_lane(rows_m, [&](int l) {
                if (pos[l] + step < end[l]) {
                    active |= (1u << l);
                    addr[l] = col_idxs.data() + pos[l] + step;
                }
            });
            if (active == 0) {
                break;
            }
            const auto cols = warp.load_global(active, addr);
            warp.stats().misc_instructions += 2;  // range compares
            // Lanes that hit the diagonal block load the value and keep it.
            lane_mask hits = 0;
            Reg<const T*> vaddr{};
            Warp::for_each_lane(active, [&](int l) {
                const auto c = cols[l];
                if (c >= r0 && c < r0 + m) {
                    hits |= (1u << l);
                    vaddr[l] = values.data() + pos[l] + step;
                }
            });
            if (hits != 0) {
                const auto vals = warp.load_global(hits, vaddr);
                Warp::for_each_lane(hits, [&](int l) {
                    block(l, cols[l] - r0) = vals[l];
                });
            }
        }
    }
    result.stats = warp.stats();
    obs::Registry::global().record_kernel("extraction", result.stats,
                                          layout->count());
    return result;
}

template <typename T>
SimtExtractionResult<T> extract_blocks_simt_shared(
    const sparse::Csr<T>& a, core::BatchLayoutPtr layout) {
    VBATCH_ENSURE(layout->total_rows() == a.num_rows(),
                  "block sizes must partition the matrix");
    obs::TraceRegion trace("extract_blocks_simt_shared");
    SimtExtractionResult<T> result{core::BatchedMatrices<T>(layout), {}};
    Warp warp;
    const auto row_ptrs = a.row_ptrs();
    const auto col_idxs = a.col_idxs();
    const auto values = a.values();
    const int words_per_value = sizeof(T) / 4;

    for (size_type b = 0; b < layout->count(); ++b) {
        auto block = result.blocks.view(b);
        const auto r0 = static_cast<index_type>(layout->row_offset(b));
        const index_type m = layout->size(b);

        // All 32 lanes cooperate on each row: coalesced 32-wide chunks of
        // the col-indices stream; hits go to shared memory (Fig. 3). Load
        // imbalance is limited to the tail chunk of each row.
        for (index_type i = 0; i < m; ++i) {
            const auto beg = row_ptrs[static_cast<std::size_t>(r0 + i)];
            const auto len =
                row_ptrs[static_cast<std::size_t>(r0 + i) + 1] - beg;
            for (size_type chunk = 0; chunk < len; chunk += warp_size) {
                const auto count = std::min<size_type>(warp_size,
                                                       len - chunk);
                const lane_mask active =
                    first_lanes(static_cast<index_type>(count));
                const auto cols = warp.load_global_strided(
                    active, col_idxs.data() + beg + chunk);
                warp.stats().misc_instructions += 2;  // range compares
                lane_mask hits = 0;
                Reg<const T*> vaddr{};
                Reg<index_type> smem_offset{};
                Warp::for_each_lane(active, [&](int l) {
                    const auto c = cols[l];
                    if (c >= r0 && c < r0 + m) {
                        hits |= (1u << l);
                        vaddr[l] = values.data() + beg + chunk + l;
                        smem_offset[l] =
                            (i * m + (c - r0)) * words_per_value;
                    }
                });
                if (hits != 0) {
                    const auto vals = warp.load_global(hits, vaddr);
                    warp.shared_access(hits, smem_offset, words_per_value);
                    Warp::for_each_lane(hits, [&](int l) {
                        block(i, cols[l] - r0) = vals[l];
                    });
                }
            }
        }
        // Move the assembled block from shared memory into the registers
        // of the owning lanes (one shared read per block column).
        for (index_type j = 0; j < m; ++j) {
            Reg<index_type> offs{};
            Warp::for_each_lane(first_lanes(m), [&](int l) {
                offs[l] = (l * m + j) * words_per_value;
            });
            warp.shared_access(first_lanes(m), offs, words_per_value);
        }
    }
    result.stats = warp.stats();
    obs::Registry::global().record_kernel("extraction", result.stats,
                                          layout->count());
    return result;
}

template <typename T>
size_type make_blocks_singular(sparse::Csr<T>& a,
                               const core::BatchLayout& layout,
                               size_type count) {
    VBATCH_ENSURE(layout.total_rows() == a.num_rows(),
                  "block sizes must partition the matrix");
    const auto nb = layout.count();
    const auto n = std::min(count, nb);
    if (n == 0) {
        return 0;
    }
    const auto row_ptrs = a.row_ptrs();
    const auto col_idxs = a.col_idxs();
    auto values = a.values();
    for (size_type k = 0; k < n; ++k) {
        // Evenly spaced choice so the zeroed blocks spread over the
        // matrix instead of clustering at the top.
        const auto b = k * nb / n;
        const auto r0 = static_cast<index_type>(layout.row_offset(b));
        const index_type m = layout.size(b);
        for (index_type i = 0; i < m; ++i) {
            const auto row = static_cast<std::size_t>(r0 + i);
            for (auto p = row_ptrs[row]; p < row_ptrs[row + 1]; ++p) {
                const auto c = col_idxs[static_cast<std::size_t>(p)];
                if (c >= r0 && c < r0 + m) {
                    values[static_cast<std::size_t>(p)] = T{};
                }
            }
        }
    }
    return n;
}

#define VBATCH_INSTANTIATE_EXTRACT(T)                                       \
    template core::BatchedMatrices<T> extract_diagonal_blocks<T>(           \
        const sparse::Csr<T>&, core::BatchLayoutPtr);                       \
    template SimtExtractionResult<T> extract_blocks_simt_row<T>(            \
        const sparse::Csr<T>&, core::BatchLayoutPtr);                       \
    template SimtExtractionResult<T> extract_blocks_simt_shared<T>(         \
        const sparse::Csr<T>&, core::BatchLayoutPtr);                       \
    template size_type make_blocks_singular<T>(                             \
        sparse::Csr<T>&, const core::BatchLayout&, size_type)

VBATCH_INSTANTIATE_EXTRACT(float);
VBATCH_INSTANTIATE_EXTRACT(double);

#undef VBATCH_INSTANTIATE_EXTRACT

}  // namespace vbatch::blocking
