// Block-Jacobi preconditioner -- the complete ecosystem of the paper
// (Section III.C): supervariable blocking (strength-aware aggregation
// where the supervariable blocks miss the coupling, see
// blocking/aggregation.hpp) -> diagonal block extraction -> batched
// factorization (setup), batched triangular solves (application).
//
// The interchangeable factorization backends reproduce the paper's
// comparison:
//   lu             - the small-size LU with implicit pivoting (this work)
//   lu_simd        - the same LU at the vector width of options.simd
//   gauss_huard    - GH factorization, solve reads the factors row-wise
//   gauss_huard_t  - GH with transpose-friendly factor storage
//   gje_inversion  - explicit inversion via Gauss-Jordan; application is a
//                    batched GEMV (the strategy of [4])
//   cholesky       - batched Cholesky for SPD blocks (the paper's future
//                    work, Section V); throws if a block is not SPD
//
// lu and lu_simd are one pipeline, the interleaved lane path: every
// same-size class of the block layout is one lane group, factorized and
// solved chunk by chunk (`lanes` blocks per vector instruction), with
// identity matrices padding the last chunk of a class -- so a class of
// one block is one padded chunk. lu builds it for the scalar ISA (one
// lane), lu_simd for the requested ISA; the lane kernels round exactly
// like the scalar getrf_implicit / getrs_single (eager), so both keys
// give the same bits on every ISA. Recovery refactorizes a degenerate
// block with the scalar kernels and repacks it into its group. The
// other backends run one scalar kernel per block.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/timer.hpp"
#include "blocking/aggregation.hpp"
#include "blocking/extraction.hpp"
#include "blocking/gather_plan.hpp"
#include "blocking/supervariable.hpp"
#include "core/cholesky.hpp"
#include "core/gauss_huard.hpp"
#include "core/gauss_jordan.hpp"
#include "core/getrf.hpp"
#include "core/trsv.hpp"
#include "core/vectorized.hpp"
#include "precond/preconditioner.hpp"
#include "precond/recovery.hpp"
#include "sparse/csr.hpp"

namespace vbatch::precond {

enum class BlockJacobiBackend { lu, lu_simd, gauss_huard, gauss_huard_t,
                                gje_inversion, cholesky };

std::string backend_name(BlockJacobiBackend backend);

/// The complete symbolic state of a block-Jacobi setup: block layout
/// (with its row list when the blocks are strength-aggregated),
/// extraction gather plan, interleaved group shapes + lane gather maps,
/// and the fused task lists. Everything in here depends only on the
/// sparsity pattern, the block bound, the layout the rule chose
/// (blocking::choose_diagonal_blocks: the supervariable layout unless
/// the values call for aggregation) and, for the lane path, the vector
/// width -- so one immutable instance can be shared by any number of
/// preconditioners over same-pattern matrices, and refresh() keeps it
/// whatever the new values (the service layer's plan cache holds exactly
/// these, refcounted through the shared_ptr).
struct BlockJacobiSymbolic {
    core::BatchLayoutPtr layout;
    /// Empty: block b owns the contiguous rows [row_offset(b),
    /// row_offset(b) + size(b)). Otherwise block b owns
    /// rows[row_offset(b) .. row_offset(b) + size(b)) (a permutation of
    /// the rows, see blocking::DiagonalBlocks).
    std::vector<index_type> rows;
    /// Cached CSR -> block extraction plan (carries the 64-bit pattern
    /// fingerprint adoption is validated against).
    blocking::GatherPlan plan;
    /// ISA the lane-path groups were built for (scalar for lu and for
    /// every non-lane backend).
    core::SimdIsa isa = core::SimdIsa::scalar;
    /// Matrices per vector instruction (1 on the scalar ISA and for every
    /// non-lane backend).
    index_type lanes = 1;
    /// Built for the lu / lu_simd backends: every block of order >= 1 is
    /// owned by one chunk task of its size class's group. False = every
    /// block takes the scalar per-block path. Not implied by lanes: lu
    /// builds 1-lane groups.
    bool lane_path = false;
    /// The agglomeration bound the layout was derived under.
    index_type max_block_size = 0;

    /// One same-size class of the lane path (empty unless lane_path).
    struct Group {
        index_type size = 0;
        /// Block ids assigned to the lanes, in lane order.
        std::vector<size_type> indices;
        /// CSR-value -> lane-slot gather map.
        core::InterleavedGatherMap gather;
        /// row_offsets[l] = row offset of lane l's block (into the
        /// vectors, or into `rows` when that is non-empty).
        std::vector<size_type> row_offsets;
        /// Lane chunks of the group (= ceil(indices.size() / lanes)).
        size_type chunks = 0;
    };
    std::vector<Group> groups;
    /// Blocks solved through the interleaved lanes (every block of
    /// order >= 1 on the lane path; size-0 blocks carry no work).
    size_type simd_block_count = 0;

    /// One unit of fused numeric work: chunk `chunk` of groups[group] on
    /// the lane path (where the list doubles as the apply task list), a
    /// scalar block range [lo, hi) off it (group == no_group).
    struct Task {
        size_type group = no_group;
        size_type chunk = 0;
        size_type lo = 0;
        size_type hi = 0;
    };
    static constexpr size_type no_group = -1;
    std::vector<Task> tasks;

    /// Build-time attribution (copied into SetupPhases when a
    /// preconditioner builds its own symbolic; adoption costs zero).
    double blocking_seconds = 0.0;
    double plan_seconds = 0.0;

    /// Heap footprint of the index arrays; the service-layer cache
    /// charges entries against its byte budget with this.
    std::size_t byte_size() const noexcept;
};

using BlockJacobiSymbolicPtr = std::shared_ptr<const BlockJacobiSymbolic>;

struct BlockJacobiOptions {
    BlockJacobiBackend backend = BlockJacobiBackend::lu;
    /// Upper bound for the diagonal block size (Table I sweeps
    /// {8, 12, 16, 24, 32}).
    index_type max_block_size = 32;
    /// Instruction set for the lu_simd backend (clamped by availability;
    /// defaults to the widest the machine supports). Triangular solves
    /// are always eager, the variant the paper selects.
    core::SimdIsa simd = core::detect_simd_isa();
    /// Parallelize setup/application over the blocks.
    bool parallel = true;
    /// Reuse a precomputed contiguous block structure instead of
    /// running the layout rule (empty = blocking::choose_diagonal_blocks).
    core::BatchLayoutPtr layout;
    /// Per-block breakdown handling. The default (Mode::full) makes the
    /// setup total: it never throws, and degraded blocks are recorded in
    /// block_status() / recovery_summary(). RecoveryPolicy::strict()
    /// restores the old throwing behavior.
    RecoveryPolicy recovery;
    /// Adopt a prebuilt symbolic analysis (see
    /// build_block_jacobi_symbolic) instead of running blocking +
    /// analysis here. The instance must have been built for the same
    /// pattern, block bound, and -- for lu / lu_simd -- the same ISA/lane
    /// width as this setup; adoption validates all of that and throws
    /// vbatch::BadParameter on a mismatch. Takes precedence over
    /// `layout`. Empty = analyze locally.
    BlockJacobiSymbolicPtr symbolic;
};

/// Run only the symbolic layer of a block-Jacobi setup for `a` under
/// `options` (blocking, gather-plan analysis, size-class bucketing,
/// lane gather maps, fused task lists) and return it as an immutable
/// shareable object. T matters only through the lane width of the
/// lu_simd backend; lu and scalar-ISA lu_simd build the same instance,
/// and every other backend of either precision can adopt one scalar-path
/// instance.
template <typename T>
BlockJacobiSymbolicPtr build_block_jacobi_symbolic(
    const sparse::Csr<T>& a, const BlockJacobiOptions& options);

/// Same, on a layout the rule already chose for `a` (the service plan
/// cache chooses it to key the plan, and builds on a miss with it).
template <typename T>
BlockJacobiSymbolicPtr build_block_jacobi_symbolic(
    const sparse::Csr<T>& a, const BlockJacobiOptions& options,
    blocking::DiagonalBlocks blocks);

template <typename T>
class BlockJacobi final : public Preconditioner<T> {
public:
    /// Setup in two layers. The *symbolic* phase (once per sparsity
    /// pattern) runs the layout rule (supervariable blocking, or the
    /// strength-aware aggregation when the values call for it),
    /// size-class bucketing and builds the cached extraction gather plan
    /// + fused task list; the
    /// *numeric* phase gathers the values straight into the persistent
    /// factor storage and factorizes them in one fused parallel pass,
    /// then recovers per-block breakdowns. Under the default
    /// RecoveryPolicy the setup is total (degraded blocks are boosted or
    /// fall back, see recovery.hpp); under RecoveryPolicy::strict() it
    /// throws vbatch::SingularMatrix if a diagonal block breaks down.
    BlockJacobi(const sparse::Csr<T>& a, BlockJacobiOptions options);

    /// Numeric re-setup: re-runs only the numeric phase on `a`'s values
    /// through the cached symbolic plan (the time-stepping / Newton case
    /// after sparse::Csr::set_values). The symbolic -- layout included --
    /// is kept, whatever layout the new values would choose. Factors,
    /// pivots, statuses and recovery outcomes are bitwise identical to a
    /// fresh setup on `a` that adopts the same symbolic; throws
    /// vbatch::BadParameter when `a`'s sparsity pattern differs from the
    /// one analyzed at construction.
    void refresh(const sparse::Csr<T>& a) override;

    /// z := M^{-1} r. Performs no heap allocation: the lane path runs
    /// on persistent per-group workspaces and precomputed row-offset maps
    /// built at setup. Consequently apply is NOT safe to call concurrently
    /// on the same object (distinct objects are fine); the Krylov solvers
    /// apply strictly one at a time.
    void apply(std::span<const T> r, std::span<T> z) const override;

    std::string name() const override;
    double setup_seconds() const override { return setup_seconds_; }
    size_type num_blocks() const override { return layout_->count(); }
    /// Canonical per-apply traffic (sum of getrs flop/byte models over
    /// the blocks), for the solvers' roofline attribution.
    double apply_flops() const override { return apply_flops_; }
    double apply_bytes() const override { return apply_bytes_; }

    /// Per-phase breakdown of setup_seconds() (the paper's cost model
    /// separates blocking, extraction and factorization; Figs. 4-9).
    /// After refresh() the numeric fields (gather/factorize/pack/
    /// recovery) describe the most recent numeric pass; the symbolic
    /// fields (blocking/plan) keep their construction-time values.
    struct SetupPhases {
        /// Supervariable blocking (symbolic; zero when a layout is given).
        double blocking_seconds = 0.0;
        /// Symbolic analysis: gather-plan build, size-class bucketing,
        /// interleaved-group layout and the fused task list.
        double plan_seconds = 0.0;
        /// Numeric gather of the CSR values into the factor storage (the
        /// former extraction phase, now fused into the chunk tasks).
        double gather_seconds = 0.0;
        double factorize_seconds = 0.0;
        /// Interleaved -> packed factor/pivot writeback of the SIMD
        /// chunks (previously folded into factorize_seconds).
        double pack_seconds = 0.0;
        /// Degeneracy scan + boosting/fallback work (0 when no block
        /// needed recovery or under the strict policy).
        double recovery_seconds = 0.0;
    };
    const SetupPhases& setup_phases() const { return setup_phases_; }

    /// Per-block setup outcome (one entry per diagonal block).
    const std::vector<core::BlockStatus>& block_status() const {
        return block_status_;
    }
    core::RecoverySummary recovery_summary() const override {
        return recovery_;
    }

    const core::BatchLayout& layout() const { return *layout_; }
    const BlockJacobiOptions& options() const { return options_; }

    /// The factored blocks (for tests / inspection).
    const core::BatchedMatrices<T>& factors() const { return factors_; }
    const core::BatchedPivots& pivots() const { return pivots_; }

    /// The cached symbolic extraction plan (for tests / inspection).
    const blocking::GatherPlan& gather_plan() const { return sym_->plan; }
    /// The full symbolic state -- either built here or adopted from
    /// options.symbolic; hand it to further same-pattern setups to skip
    /// their symbolic phase entirely.
    const BlockJacobiSymbolicPtr& symbolic() const { return sym_; }
    /// True when this setup adopted a shared symbolic instead of
    /// building one.
    bool symbolic_shared() const noexcept { return symbolic_shared_; }
    /// Wall time of the last refresh() (0 before the first refresh).
    double refresh_seconds() const noexcept { return refresh_seconds_; }

    /// Conditioning diagnostics of the extracted diagonal blocks (the
    /// stability aspect Sections II.C/IV.D discuss: ill-conditioned blocks
    /// are where the factorization strategies' rounding differences show).
    struct Diagnostics {
        size_type num_blocks = 0;
        index_type min_block_size = 0;
        index_type max_block_size = 0;
        double mean_block_size = 0.0;
        /// 1-norm condition numbers of the blocks (inf for singular).
        double min_condition = 0.0;
        double max_condition = 0.0;
        double geomean_condition = 0.0;
    };

    /// Recomputes block condition numbers from `a` (setup-time matrix is
    /// not retained); cost O(sum m_i^3), intended for analysis runs.
    Diagnostics diagnostics(const sparse::Csr<T>& a) const;

    /// Blocks solved through the interleaved lanes (lu / lu_simd: every
    /// block of order >= 1; zero for the other backends).
    size_type num_simd_blocks() const noexcept {
        return sym_ ? sym_->simd_block_count : 0;
    }

private:
    /// The *numeric* state of one same-size class; the group shapes,
    /// lane assignments and gather maps live in the shared symbolic
    /// (sym_->groups, indexed in parallel with this vector).
    struct SimdGroup {
        core::InterleavedGroup<T> group;
        /// Per-lane entry/pivot statistics scratch of the fused numeric
        /// pass (monitored setups only). Chunk tasks write disjoint lane
        /// ranges.
        std::vector<core::FactorInfo> lane_infos;
        /// Persistent right-hand-side workspace, sized once at setup; the
        /// chunk tasks gather into / scatter out of it on every apply so
        /// no InterleavedVectors is ever constructed per application.
        /// mutable: apply is logically const but stages data here. Owned
        /// exclusively by the chunk tasks of this group, each of which
        /// touches a disjoint chunk.
        mutable core::InterleavedVectors<T> rhs;
    };

    static constexpr size_type no_group = BlockJacobiSymbolic::no_group;

    /// Check an adopted shared symbolic against `a` and the options
    /// (pattern fingerprint, block bound, ISA/lane width).
    void validate_symbolic(const sparse::Csr<T>& a) const;
    /// Fused numeric phase: one parallel pass gathering + factorizing all
    /// blocks into the persistent storage, then breakdown recovery.
    /// Shared by construction and refresh(); resets all numeric state.
    void run_numeric(const sparse::Csr<T>& a);
    void apply_lanes(std::span<const T> r, std::span<T> z) const;
    /// Degeneracy scan + boost/fallback pipeline (non-strict setup only).
    void recover(std::span<const T> values, core::FactorizeStatus& status);
    /// Run the backend's single-block factorization on block b in place;
    /// fills the pivot statistics when `info` is non-null. For lu /
    /// lu_simd this is the recovery kernel (getrf_implicit).
    index_type factorize_block(size_type b, core::FactorInfo* info);
    /// Export the numeric-phase timings and per-status block counters
    /// to the metrics registry (shared by construction and refresh()).
    void record_numeric_metrics() const;
    /// Overwrite a degraded block's factors/pivots with the identity so
    /// factors()/pivots() and any stray factored-path application of the
    /// block stay finite.
    void set_identity_block(size_type b);
    void apply_fallback_block(size_type b, std::span<const T> r,
                              std::span<T> z) const;

    BlockJacobiOptions options_;
    /// The (possibly shared) symbolic state: layout, gather plan, group
    /// shapes + lane maps and the fused task lists. Immutable; refresh()
    /// and all numeric passes only read it.
    BlockJacobiSymbolicPtr sym_;
    bool symbolic_shared_ = false;
    core::BatchLayoutPtr layout_;  // alias of sym_->layout
    core::BatchedMatrices<T> factors_;
    core::BatchedPivots pivots_;
    /// Numeric lane-path state, indexed in parallel with sym_->groups.
    std::vector<SimdGroup> simd_groups_;
    /// Bytes one apply streams (factors + r + z) and the flops of the
    /// batched triangular solves, precomputed at setup and fed to the
    /// metrics registry / roofline attribution per application.
    double apply_bytes_ = 0.0;
    double apply_flops_ = 0.0;
    double setup_seconds_ = 0.0;
    double refresh_seconds_ = 0.0;
    SetupPhases setup_phases_;
    /// Per-block outcomes; all `ok` under the strict policy.
    std::vector<core::BlockStatus> block_status_;
    core::RecoverySummary recovery_;
    /// Row-wise inverse diagonal used by fell_back/singular blocks
    /// (1 where the pristine diagonal was zero/non-finite); empty when
    /// no block fell back.
    std::vector<T> fallback_inv_diag_;
    /// Blocks applied through fallback_inv_diag_ instead of the factors.
    std::vector<size_type> degraded_blocks_;
};

}  // namespace vbatch::precond
