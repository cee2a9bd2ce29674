// Unified preconditioner configuration and string-keyed factory.
//
// Benches, examples and studies used to hand-roll a switch over
// BlockJacobiBackend (plus special cases for "none" and scalar Jacobi)
// each time they built a preconditioner. The Config + make_preconditioner
// pair centralizes that: one POD carries every knob (backend key, block
// bound, SIMD ISA, pivoting, recovery policy, precomputed layout),
// and the registry maps backend keys to constructors so downstream tools
// never switch on the backend enum again.
//
// Built-in keys: "none" (identity), "jacobi" (scalar Jacobi), and the
// block-Jacobi backends "lu", "lu-simd", "gh", "gh-t", "gje-inv",
// "cholesky". register_backend() adds project-specific ones.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blocking/aggregation.hpp"
#include "core/batch_layout.hpp"
#include "core/simd_dispatch.hpp"
#include "precond/preconditioner.hpp"
#include "precond/recovery.hpp"
#include "sparse/csr.hpp"

namespace vbatch::precond {

struct BlockJacobiSymbolic;

/// Everything needed to build a preconditioner, in one place. Fields a
/// backend does not use are ignored (e.g. "jacobi" ignores the block
/// bound and the recovery policy).
struct Config {
    /// Registered backend key; see registered_backends().
    std::string backend = "lu";
    /// Upper bound for the supervariable agglomeration.
    index_type max_block_size = 32;
    /// Instruction set for the "lu-simd" backend.
    core::SimdIsa simd = core::detect_simd_isa();
    /// Parallelize setup/application over the blocks.
    bool parallel = true;
    /// Per-block breakdown handling (block-Jacobi backends).
    RecoveryPolicy recovery;
    /// Reuse a precomputed block structure (empty = detect).
    core::BatchLayoutPtr layout;
    /// Adopt a shared symbolic analysis (block-Jacobi backends; see
    /// make_symbolic / build_block_jacobi_symbolic). Validated against
    /// the matrix at setup; takes precedence over `layout`. Empty =
    /// analyze locally.
    std::shared_ptr<const BlockJacobiSymbolic> symbolic;
};

template <typename T>
using PreconditionerPtr = std::unique_ptr<Preconditioner<T>>;

/// Constructor signature kept by the registry.
template <typename T>
using PreconditionerFactory =
    std::function<PreconditionerPtr<T>(const sparse::Csr<T>&,
                                       const Config&)>;

/// Build the preconditioner selected by config.backend. Throws
/// vbatch::BadParameter (listing the registered keys) on an unknown
/// backend; backend-specific setup failures propagate unchanged.
template <typename T>
PreconditionerPtr<T> make_preconditioner(const sparse::Csr<T>& a,
                                         const Config& config = {});

/// Register (or replace) a backend under `name` for value type T.
/// Registration is not thread-safe; do it during startup.
template <typename T>
void register_backend(const std::string& name,
                      PreconditionerFactory<T> factory);

/// Sorted list of keys with at least one registered value type.
std::vector<std::string> registered_backends();

bool backend_registered(const std::string& name);

/// True when `backend` names a built-in with a shareable symbolic phase
/// (the block-Jacobi family); make_symbolic returns non-null exactly for
/// these.
bool symbolic_backend(const std::string& backend);

/// Run only the symbolic (pattern-dependent) layer of the setup
/// config.backend would perform on `a`, for sharing across same-pattern
/// matrices via Config::symbolic. Returns nullptr for backends without
/// a symbolic phase ("none", "jacobi", and custom registrations) --
/// those are simply rebuilt per matrix.
template <typename T>
std::shared_ptr<const BlockJacobiSymbolic> make_symbolic(
    const sparse::Csr<T>& a, const Config& config);

/// Same, on a layout the rule already chose for `a` (ignores
/// config.layout).
template <typename T>
std::shared_ptr<const BlockJacobiSymbolic> make_symbolic(
    const sparse::Csr<T>& a, const Config& config,
    blocking::DiagonalBlocks blocks);

}  // namespace vbatch::precond
