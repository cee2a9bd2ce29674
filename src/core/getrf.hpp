// Variable-size batched LU factorization -- the paper's primary
// contribution (Section III.A).
//
// Two algorithmic variants are provided:
//
//  * implicit pivoting (the paper's kernel, Fig. 1 bottom): the pivot row
//    of each elimination step is *selected* but never swapped; a per-row
//    flag records which step a row was pivot of, every remaining row
//    performs the identical SCAL+AXPY regardless of the pivot history, and
//    the accumulated permutation is applied once when the factors are
//    written back. On the GPU this removes all row-exchange data movement;
//    on the CPU backend it is the same algorithm, so the *numerical*
//    behaviour (pivot choices, rounding) matches the emulated kernel
//    bit for bit.
//
//  * explicit pivoting (Fig. 1 top, the classic getrf): rows are swapped
//    in storage at every step. Kept as the ablation baseline.
//
// Both produce identical factors in exact arithmetic; in floating point
// they are bitwise identical too (the same operations execute in the same
// order -- only data movement differs), which the test suite asserts.
//
// Output convention: on exit, problem i's block holds the standard LAPACK
// layout (L strictly below the unit diagonal, U on/above), already row
// permuted, and perm[k] = original index of the row that became pivot row
// k. A right-hand side is prepared for the triangular solves by the gather
// b_new[k] = b[perm[k]] (trsv.hpp fuses this into the load, as the paper's
// kernel does).
#pragma once

#include "core/batch_storage.hpp"
#include "core/block_status.hpp"

namespace vbatch::core {

/// Error-handling policy for singular blocks.
enum class SingularPolicy {
    /// Throw vbatch::SingularMatrix on the first exactly-zero pivot.
    throw_on_breakdown,
    /// Record the failure (see FactorizeStatus) and continue with the
    /// remaining problems; the failed block's factors are unusable.
    report,
};

struct GetrfOptions {
    SingularPolicy on_singular = SingularPolicy::throw_on_breakdown;
    /// Run batch entries on the global thread pool.
    bool parallel = true;
    /// Collect per-block BlockStatus + FactorInfo (pivot growth, smallest
    /// pivot) in the returned FactorizeStatus. The monitored kernels are
    /// compiled separately, so the default fast path is unchanged.
    bool monitor = false;
};

/// Batched LU with implicit partial pivoting (the paper's kernel).
///
/// `a`    : in/out -- blocks overwritten by their (row-permuted) LU factors
/// `perm` : out -- perm[k] = original row index of pivot k
template <typename T>
FactorizeStatus getrf_batch(BatchedMatrices<T>& a, BatchedPivots& perm,
                            const GetrfOptions& opts = {});

/// Batched LU with classic explicit row swaps (ablation baseline).
/// Produces the same factors and the same `perm` as getrf_batch.
template <typename T>
FactorizeStatus getrf_batch_explicit(BatchedMatrices<T>& a,
                                     BatchedPivots& perm,
                                     const GetrfOptions& opts = {});

/// Single-problem implicit-pivoting LU on a view (building block; exposed
/// for tests and for the block-Jacobi setup which factorizes in place).
/// Returns 0 on success or the 1-based step of breakdown.
template <typename T>
index_type getrf_implicit(MatrixView<T> a, std::span<index_type> perm);

/// Monitored variant: identical arithmetic (same pivots, same rounding),
/// additionally fills `info` with the pivot statistics.
template <typename T>
index_type getrf_implicit(MatrixView<T> a, std::span<index_type> perm,
                          FactorInfo& info);

/// Single-problem explicit-pivoting LU producing the same output
/// convention (permuted factors + gather indices).
template <typename T>
index_type getrf_explicit(MatrixView<T> a, std::span<index_type> perm);

}  // namespace vbatch::core
