#include "blocking/aggregation.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "base/macros.hpp"
#include "base/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vbatch::blocking {

namespace {

/// Partial sums of captured_coupling: at most this many chunks of whole
/// blocks, of at least min_chunk_blocks blocks each. The chunking depends
/// only on the block count, so the partials and their combination order
/// do not depend on the pool, and they fit on the stack.
constexpr size_type max_coupling_chunks = 64;
constexpr size_type min_chunk_blocks = 16;
/// Below this many stored entries the chunks run inline: the pass costs
/// less than waking the pool (same chunks, so the same result).
constexpr size_type min_parallel_entries = size_type{1} << 13;

/// Off-diagonal |a| of `row` into `total`, and of its entries whose
/// column passes `in_block` into `inside`.
template <typename T, typename InBlock>
void row_coupling(const sparse::Csr<T>& a, index_type row,
                  const InBlock& in_block, double& total, double& inside) {
    const auto cols = a.col_idxs();
    const auto values = a.values();
    const auto end = a.row_ptrs()[static_cast<std::size_t>(row) + 1];
    for (auto p = a.row_ptrs()[static_cast<std::size_t>(row)]; p < end; ++p) {
        // Branch-free: the in-block test is data-dependent.
        const index_type col = cols[static_cast<std::size_t>(p)];
        const double v =
            col == row ? 0.0
                       : std::abs(static_cast<double>(
                             values[static_cast<std::size_t>(p)]));
        total += v;
        inside += in_block(col) ? v : 0.0;
    }
}

/// Supervariables larger than `bound` split into bound-sized pieces (the
/// last takes the remainder), in order: the aggregation's units.
std::vector<index_type> split_supervariables(
    std::span<const index_type> supervars, index_type bound) {
    std::vector<index_type> units;
    units.reserve(supervars.size());
    for (index_type sv : supervars) {
        for (; sv > bound; sv -= bound) {
            units.push_back(bound);
        }
        if (sv > 0) {
            units.push_back(sv);
        }
    }
    return units;
}

}  // namespace

template <typename T>
double captured_coupling(const sparse::Csr<T>& a,
                         const core::BatchLayout& layout,
                         std::span<const index_type> rows) {
    const index_type n = a.num_rows();
    VBATCH_ENSURE(layout.total_rows() == n,
                  "block sizes must partition the matrix");
    VBATCH_ENSURE(rows.empty() || rows.size() == static_cast<std::size_t>(n),
                  "row list must cover every row");
    // Position of each row in the row list (rows.empty(): the identity).
    std::vector<size_type> pos;
    if (!rows.empty()) {
        pos.resize(static_cast<std::size_t>(n));
        for (std::size_t q = 0; q < rows.size(); ++q) {
            pos[static_cast<std::size_t>(rows[q])] = static_cast<size_type>(q);
        }
    }
    const size_type nb = layout.count();
    const size_type per_chunk = std::max(
        min_chunk_blocks,
        (nb + max_coupling_chunks - 1) / max_coupling_chunks);
    const size_type chunks = (nb + per_chunk - 1) / per_chunk;
    std::array<double, max_coupling_chunks> total{};
    std::array<double, max_coupling_chunks> inside{};
    ThreadPool::global().parallel_for(
        0, chunks,
        [&](size_type c) {
            double t = 0.0;
            double in = 0.0;
            const size_type hi = std::min(nb, (c + 1) * per_chunk);
            for (size_type b = c * per_chunk; b < hi; ++b) {
                const auto lo = layout.row_offset(b);
                const auto up = lo + layout.size(b);
                if (rows.empty()) {
                    const auto in_block = [&](index_type col) {
                        return col >= lo && col < up;
                    };
                    for (auto q = lo; q < up; ++q) {
                        row_coupling(a, static_cast<index_type>(q), in_block,
                                     t, in);
                    }
                } else {
                    const auto in_block = [&](index_type col) {
                        const auto at = pos[static_cast<std::size_t>(col)];
                        return at >= lo && at < up;
                    };
                    for (auto q = lo; q < up; ++q) {
                        row_coupling(a, rows[static_cast<std::size_t>(q)],
                                     in_block, t, in);
                    }
                }
            }
            total[static_cast<std::size_t>(c)] = t;
            inside[static_cast<std::size_t>(c)] = in;
        },
        a.nnz() < min_parallel_entries ? chunks : 1);
    double t = 0.0;
    double in = 0.0;
    for (size_type c = 0; c < chunks; ++c) {
        t += total[static_cast<std::size_t>(c)];
        in += inside[static_cast<std::size_t>(c)];
    }
    return t > 0.0 ? in / t : 1.0;
}

template <typename T>
DiagonalBlocks aggregate_supervariables(
    const sparse::Csr<T>& a, std::span<const index_type> supervars,
    index_type bound) {
    obs::TraceRegion trace("aggregate_supervariables");
    const auto units = split_supervariables(supervars, bound);
    const auto nu = static_cast<index_type>(units.size());
    std::vector<index_type> start(units.size() + 1, 0);
    for (std::size_t u = 0; u < units.size(); ++u) {
        start[u + 1] = start[u] + units[u];
    }
    VBATCH_ENSURE(start.back() == a.num_rows(),
                  "supervariables must partition the matrix");
    std::vector<index_type> unit_of_row(static_cast<std::size_t>(a.num_rows()));
    for (index_type u = 0; u < nu; ++u) {
        for (auto i = start[static_cast<std::size_t>(u)];
             i < start[static_cast<std::size_t>(u) + 1]; ++i) {
            unit_of_row[static_cast<std::size_t>(i)] = u;
        }
    }
    const auto row_ptrs = a.row_ptrs();
    const auto col_idxs = a.col_idxs();
    const auto values = a.values();

    DiagonalBlocks out;
    std::vector<index_type> sizes;
    out.rows.reserve(static_cast<std::size_t>(a.num_rows()));
    std::vector<char> taken(units.size(), 0);
    // Coupling of each unassigned unit to the growing block, and the
    // units with a positive coupling (the candidates).
    std::vector<double> weight(units.size(), 0.0);
    std::vector<index_type> candidates;
    index_type seed = 0;
    for (;;) {
        while (seed < nu && taken[static_cast<std::size_t>(seed)] != 0) {
            ++seed;
        }
        if (seed == nu) {
            break;
        }
        const auto block_begin = out.rows.size();
        index_type size = 0;
        const auto add = [&](index_type u) {
            taken[static_cast<std::size_t>(u)] = 1;
            size += units[static_cast<std::size_t>(u)];
            for (auto i = start[static_cast<std::size_t>(u)];
                 i < start[static_cast<std::size_t>(u) + 1]; ++i) {
                out.rows.push_back(i);
                if (size == bound) {
                    continue;  // a full block takes no candidate
                }
                const auto end = row_ptrs[static_cast<std::size_t>(i) + 1];
                for (auto p = row_ptrs[static_cast<std::size_t>(i)]; p < end;
                     ++p) {
                    const index_type v = unit_of_row[static_cast<std::size_t>(
                        col_idxs[static_cast<std::size_t>(p)])];
                    if (taken[static_cast<std::size_t>(v)] != 0) {
                        continue;
                    }
                    auto& w = weight[static_cast<std::size_t>(v)];
                    const double before = w;
                    w += std::abs(static_cast<double>(
                        values[static_cast<std::size_t>(p)]));
                    if (before == 0.0 && w > 0.0) {
                        candidates.push_back(v);
                    }
                }
            }
        };
        add(seed);
        for (;;) {
            index_type best = -1;
            for (const index_type v : candidates) {
                if (taken[static_cast<std::size_t>(v)] != 0 ||
                    size + units[static_cast<std::size_t>(v)] > bound) {
                    continue;
                }
                const double w = weight[static_cast<std::size_t>(v)];
                const double wb =
                    best < 0 ? 0.0 : weight[static_cast<std::size_t>(best)];
                if (best < 0 || w > wb || (w == wb && v < best)) {
                    best = v;
                }
            }
            if (best < 0) {
                break;
            }
            add(best);
        }
        for (const index_type v : candidates) {
            weight[static_cast<std::size_t>(v)] = 0.0;
        }
        candidates.clear();
        std::sort(out.rows.begin() + static_cast<std::ptrdiff_t>(block_begin),
                  out.rows.end());
        sizes.push_back(size);
    }
    out.layout = core::make_layout(std::move(sizes));
    return out;
}

template <typename T>
DiagonalBlocks choose_diagonal_blocks(const sparse::Csr<T>& a,
                                      const BlockingOptions& opts) {
    return choose_diagonal_blocks(
        a, opts, core::make_layout(supervariable_blocking(a, opts)));
}

template <typename T>
DiagonalBlocks choose_diagonal_blocks(
    const sparse::Csr<T>& a, const BlockingOptions& opts,
    core::BatchLayoutPtr supervariable_layout) {
    obs::TraceRegion trace("choose_diagonal_blocks");
    DiagonalBlocks out;
    out.layout = std::move(supervariable_layout);
    out.supervariable_coupling = captured_coupling(a, *out.layout);
    out.captured_coupling = out.supervariable_coupling;
    if (out.supervariable_coupling < aggregate_below) {
        const auto supervars =
            opts.detect_supervariables
                ? find_supervariables(a)
                : std::vector<index_type>(
                      static_cast<std::size_t>(a.num_rows()), 1);
        auto agg = aggregate_supervariables(a, supervars, opts.max_block_size);
        const double share = captured_coupling(a, *agg.layout, agg.rows);
        if (share >= adopt_gain * out.supervariable_coupling) {
            out.layout = std::move(agg.layout);
            out.rows = std::move(agg.rows);
            out.captured_coupling = share;
        }
    }
    return out;
}

void record_layout_choice(const DiagonalBlocks& blocks) {
    auto& registry = obs::Registry::global();
    registry.set("blocking.supervariable_coupling",
                 blocks.supervariable_coupling);
    registry.set("blocking.captured_coupling", blocks.captured_coupling);
    registry.add("blocking.aggregated_layouts",
                 blocks.aggregated() ? 1.0 : 0.0);
    registry.set("blocking.blocks",
                 static_cast<double>(blocks.layout->count()));
}

std::uint64_t layout_hash(const core::BatchLayout& layout,
                          std::span<const index_type> rows) {
    if (rows.empty()) {
        return 0;
    }
    // FNV-1a over the sizes and the row list, with the block count as
    // separator.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    mix(static_cast<std::uint64_t>(layout.count()));
    for (const auto m : layout.sizes()) {
        mix(static_cast<std::uint64_t>(m));
    }
    for (const auto r : rows) {
        mix(static_cast<std::uint64_t>(r));
    }
    return h == 0 ? 1 : h;
}

#define VBATCH_INSTANTIATE_AGG(T)                                           \
    template double captured_coupling<T>(const sparse::Csr<T>&,             \
                                         const core::BatchLayout&,          \
                                         std::span<const index_type>);      \
    template DiagonalBlocks aggregate_supervariables<T>(                    \
        const sparse::Csr<T>&, std::span<const index_type>, index_type);    \
    template DiagonalBlocks choose_diagonal_blocks<T>(                      \
        const sparse::Csr<T>&, const BlockingOptions&);                     \
    template DiagonalBlocks choose_diagonal_blocks<T>(                      \
        const sparse::Csr<T>&, const BlockingOptions&, core::BatchLayoutPtr)

VBATCH_INSTANTIATE_AGG(float);
VBATCH_INSTANTIATE_AGG(double);

#undef VBATCH_INSTANTIATE_AGG

}  // namespace vbatch::blocking
