// Strength-aware diagonal blocks.
//
// Supervariable blocking (supervariable.hpp) agglomerates *consecutive*
// rows. Where the strong couplings of a matrix do not run between
// neighboring rows -- anisotropic diffusion whose strong direction is
// across the grid lines -- such blocks hold little of the off-diagonal
// mass and block-Jacobi degrades toward scalar Jacobi (the paper's
// Table I point that the blocking decides the iteration count). Following
// the structure-aware irregular blocking of Hu et al. (PAPERS.md), the
// layout can instead group supervariables along the strong couplings;
// a block then owns an arbitrary row set, described by a row list.
//
// The rule (choose_diagonal_blocks) keeps the supervariable layout
// unless it captures less than `aggregate_below` of the off-diagonal
// |a|; only then it builds the greedy aggregation, and it adopts that
// only if it captures at least `adopt_gain` times as much. The choice is
// a pure function of (pattern, values, bound): the captured share is
// summed over block chunks fixed by the block count and combined in a
// fixed order, and the aggregation is serial.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/types.hpp"
#include "blocking/supervariable.hpp"
#include "core/batch_layout.hpp"
#include "sparse/csr.hpp"

namespace vbatch::blocking {

/// Aggregate when the supervariable layout captures less than this share
/// of the off-diagonal |a|. On the 48-case suite at bound 32 the six
/// anisotropic cases capture 0.01-0.28 and every other case 0.42-0.95.
inline constexpr double aggregate_below = 1.0 / 3.0;
/// Adopt the aggregation only if it captures at least this multiple of
/// the supervariable share (the anisotropic cases gain 2.9-60x).
inline constexpr double adopt_gain = 2.0;

/// A diagonal-block layout: block sizes, and optionally the rows each
/// block owns. With `rows` empty block b owns the contiguous rows
/// [row_offset(b), row_offset(b) + size(b)); otherwise it owns
/// rows[row_offset(b) .. row_offset(b) + size(b)), ascending within the
/// block, and `rows` is a permutation of [0, n).
struct DiagonalBlocks {
    core::BatchLayoutPtr layout;
    std::vector<index_type> rows;
    /// Share of the off-diagonal |a| inside the supervariable blocks.
    double supervariable_coupling = 1.0;
    /// Share of the off-diagonal |a| inside the chosen blocks.
    double captured_coupling = 1.0;

    bool aggregated() const noexcept { return !rows.empty(); }
};

/// Share of the off-diagonal |a| of `a` whose row and column fall in
/// one block of (layout, rows) -- see DiagonalBlocks for the encoding.
/// 1 when `a` has no off-diagonal mass. Deterministic: the blocks are
/// summed in chunks that depend only on the block count, combined in
/// chunk order, whatever the pool. Allocates nothing for a contiguous
/// layout.
template <typename T>
double captured_coupling(const sparse::Csr<T>& a,
                         const core::BatchLayout& layout,
                         std::span<const index_type> rows = {});

/// Greedy aggregation of the supervariables `supervars` (sizes of
/// consecutive row runs) into blocks of at most `bound` rows. A
/// supervariable larger than the bound is split first. Each block is
/// seeded with the lowest-index unassigned supervariable and grows by
/// the unassigned supervariable with the largest sum of |a_ij| from the
/// block's rows into its columns (ties: lowest index) that still fits.
template <typename T>
DiagonalBlocks aggregate_supervariables(
    const sparse::Csr<T>& a, std::span<const index_type> supervars,
    index_type bound);

/// The block-Jacobi layout rule: supervariable blocking, replaced by the
/// aggregation when the supervariable blocks capture less than
/// aggregate_below of the off-diagonal |a| and the aggregation captures
/// at least adopt_gain times as much.
template <typename T>
DiagonalBlocks choose_diagonal_blocks(const sparse::Csr<T>& a,
                                      const BlockingOptions& opts);

/// Same, with the supervariable layout of `a` under `opts` already in
/// hand (it depends on the pattern only; the service plan cache takes it
/// from a cached plan of the pattern). Returns that very layout pointer
/// when the rule keeps it.
template <typename T>
DiagonalBlocks choose_diagonal_blocks(
    const sparse::Csr<T>& a, const BlockingOptions& opts,
    core::BatchLayoutPtr supervariable_layout);

/// Export a chosen layout to the metrics registry: the gauges
/// blocking.supervariable_coupling / blocking.captured_coupling /
/// blocking.blocks and the counter blocking.aggregated_layouts. The
/// symbolic builders call it once per layout they build on.
void record_layout_choice(const DiagonalBlocks& blocks);

/// 64-bit fingerprint of a layout with a row list; 0 exactly for the
/// contiguous (supervariable) encoding, so it can key shared plans.
std::uint64_t layout_hash(const core::BatchLayout& layout,
                          std::span<const index_type> rows);

}  // namespace vbatch::blocking
