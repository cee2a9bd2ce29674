#include "blocking/gather_plan.hpp"

#include "base/thread_pool.hpp"
#include "obs/trace.hpp"

namespace vbatch::blocking {

GatherPlan::GatherPlan(std::span<const size_type> row_ptrs,
                       std::span<const index_type> col_idxs,
                       core::BatchLayoutPtr layout)
    : GatherPlan(row_ptrs, col_idxs, std::move(layout),
                 csr_pattern_hash(row_ptrs, col_idxs)) {}

GatherPlan::GatherPlan(std::span<const size_type> row_ptrs,
                       std::span<const index_type> col_idxs,
                       core::BatchLayoutPtr layout,
                       std::uint64_t pattern_hash,
                       std::span<const index_type> rows)
    : layout_(std::move(layout)),
      num_rows_(static_cast<index_type>(row_ptrs.size()) - 1),
      nnz_(static_cast<size_type>(col_idxs.size())),
      pattern_hash_(pattern_hash) {
    VBATCH_ENSURE(layout_ != nullptr, "gather plan needs a block layout");
    VBATCH_ENSURE(layout_->total_rows() == num_rows_,
                  "block sizes must partition the matrix");
    obs::TraceRegion trace("build_gather_plan");
    const size_type nb = layout_->count();
    entry_ptrs_.assign(static_cast<std::size_t>(nb) + 1, 0);
    if (!rows.empty()) {
        build_through_rows(row_ptrs, col_idxs, rows);
        return;
    }

    // Count pass: find each row's in-block column range once and memoize
    // it, so the fill pass below is a straight indexed copy instead of a
    // second column scan. Every block owns a disjoint row slice.
    std::vector<size_type> row_beg(static_cast<std::size_t>(num_rows_));
    std::vector<size_type> row_end(static_cast<std::size_t>(num_rows_));
    ThreadPool::global().parallel_for(
        0, nb,
        [&](size_type b) {
            const auto r0 = static_cast<index_type>(layout_->row_offset(b));
            const index_type m = layout_->size(b);
            size_type n = 0;
            for (index_type i = 0; i < m; ++i) {
                const auto row = static_cast<std::size_t>(r0 + i);
                auto p = row_ptrs[row];
                const auto row_stop = row_ptrs[row + 1];
                while (p < row_stop &&
                       col_idxs[static_cast<std::size_t>(p)] < r0) {
                    ++p;
                }
                row_beg[row] = p;
                while (p < row_stop &&
                       col_idxs[static_cast<std::size_t>(p)] < r0 + m) {
                    ++p;
                }
                row_end[row] = p;
                n += p - row_beg[row];
            }
            entry_ptrs_[static_cast<std::size_t>(b) + 1] = n;
        },
        batch_entry_grain);
    for (size_type b = 0; b < nb; ++b) {
        entry_ptrs_[static_cast<std::size_t>(b) + 1] +=
            entry_ptrs_[static_cast<std::size_t>(b)];
    }
    src_.resize(static_cast<std::size_t>(entry_ptrs_.back()));
    dst_.resize(src_.size());
    ThreadPool::global().parallel_for(
        0, nb,
        [&](size_type b) {
            const auto r0 = static_cast<index_type>(layout_->row_offset(b));
            const index_type m = layout_->size(b);
            auto e = static_cast<std::size_t>(
                entry_ptrs_[static_cast<std::size_t>(b)]);
            for (index_type i = 0; i < m; ++i) {
                const auto row = static_cast<std::size_t>(r0 + i);
                const auto end = row_end[row];
                for (auto p = row_beg[row]; p < end; ++p, ++e) {
                    src_[e] = p;
                    // Column-major slot (c_local * m + r_local); fits in
                    // index_type because m <= max_block_size.
                    dst_[e] =
                        (col_idxs[static_cast<std::size_t>(p)] - r0) * m + i;
                }
            }
        },
        batch_entry_grain);
}

void GatherPlan::build_through_rows(std::span<const size_type> row_ptrs,
                                    std::span<const index_type> col_idxs,
                                    std::span<const index_type> rows) {
    VBATCH_ENSURE(rows.size() == static_cast<std::size_t>(num_rows_),
                  "row list must cover every row");
    // Position of each row in the list; rejects a list that is not a
    // permutation.
    std::vector<size_type> pos(rows.size(), -1);
    for (std::size_t q = 0; q < rows.size(); ++q) {
        const index_type r = rows[q];
        VBATCH_ENSURE(r >= 0 && r < num_rows_ &&
                          pos[static_cast<std::size_t>(r)] < 0,
                      "row list must be a permutation of the rows");
        pos[static_cast<std::size_t>(r)] = static_cast<size_type>(q);
    }
    const size_type nb = layout_->count();
    // Visit every in-block entry of block b: f(flat index, local row,
    // local column).
    const auto for_block = [&](size_type b, auto&& f) {
        const auto off = layout_->row_offset(b);
        const index_type m = layout_->size(b);
        for (index_type i = 0; i < m; ++i) {
            const auto row = static_cast<std::size_t>(
                rows[static_cast<std::size_t>(off + i)]);
            for (auto p = row_ptrs[row]; p < row_ptrs[row + 1]; ++p) {
                const auto local =
                    pos[static_cast<std::size_t>(
                        col_idxs[static_cast<std::size_t>(p)])] -
                    off;
                if (local >= 0 && local < m) {
                    f(p, i, static_cast<index_type>(local));
                }
            }
        }
    };
    ThreadPool::global().parallel_for(
        0, nb,
        [&](size_type b) {
            size_type n = 0;
            for_block(b, [&](size_type, index_type, index_type) { ++n; });
            entry_ptrs_[static_cast<std::size_t>(b) + 1] = n;
        },
        batch_entry_grain);
    for (size_type b = 0; b < nb; ++b) {
        entry_ptrs_[static_cast<std::size_t>(b) + 1] +=
            entry_ptrs_[static_cast<std::size_t>(b)];
    }
    src_.resize(static_cast<std::size_t>(entry_ptrs_.back()));
    dst_.resize(src_.size());
    ThreadPool::global().parallel_for(
        0, nb,
        [&](size_type b) {
            const index_type m = layout_->size(b);
            auto e = static_cast<std::size_t>(
                entry_ptrs_[static_cast<std::size_t>(b)]);
            for_block(b, [&](size_type p, index_type i, index_type c) {
                src_[e] = p;
                dst_[e] = c * m + i;
                ++e;
            });
        },
        batch_entry_grain);
}

core::InterleavedGatherMap GatherPlan::interleaved_map(
    std::span<const size_type> indices, index_type lanes) const {
    VBATCH_ENSURE(!indices.empty(),
                  "interleaved gather map needs at least one lane");
    core::InterleavedGatherMap map;
    const auto count = static_cast<size_type>(indices.size());
    map.lane_ptrs.resize(static_cast<std::size_t>(count) + 1, 0);
    for (size_type l = 0; l < count; ++l) {
        map.lane_ptrs[static_cast<std::size_t>(l) + 1] =
            map.lane_ptrs[static_cast<std::size_t>(l)] +
            block_entries(indices[static_cast<std::size_t>(l)]);
    }
    map.src.resize(static_cast<std::size_t>(map.lane_ptrs.back()));
    map.dst.resize(map.src.size());
    const auto m =
        static_cast<size_type>(layout_->size(indices.front()));
    const auto mm = m * m;
    // Every lane fills its own slice [lane_ptrs[l], lane_ptrs[l + 1]).
    ThreadPool::global().parallel_for(
        0, count,
        [&](size_type l) {
            const auto b = indices[static_cast<std::size_t>(l)];
            VBATCH_ASSERT(static_cast<size_type>(layout_->size(b)) == m);
            const auto beg = entry_begin(b);
            const auto end = entry_begin(b + 1);
            const size_type chunk_base = (l / lanes) * mm;
            const size_type lane = l % lanes;
            auto out = static_cast<std::size_t>(
                map.lane_ptrs[static_cast<std::size_t>(l)]);
            for (size_type e = beg; e < end; ++e, ++out) {
                map.src[out] = src_[static_cast<std::size_t>(e)];
                map.dst[out] =
                    (chunk_base + static_cast<size_type>(
                                      dst_[static_cast<std::size_t>(e)])) *
                        lanes +
                    lane;
            }
        },
        batch_entry_grain);
    return map;
}

}  // namespace vbatch::blocking
