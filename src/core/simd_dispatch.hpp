// Runtime CPU-feature dispatch for the interleaved (lane-parallel) batch
// kernels.
//
// The paper maps one tiny factorization onto each SIMT lane of a warp; the
// CPU analogue implemented here assigns one matrix to each SIMD lane of a
// vector register. Which vector width is available is a *runtime* property
// of the machine the binary lands on, so the kernels are compiled once per
// instruction set (scalar / SSE2 / AVX2 / AVX-512 on x86, scalar / NEON on
// AArch64) and selected through this module:
//
//   detect_simd_isa()  - widest ISA supported by both the compiler flags
//                        this binary was built with and the CPU it runs on,
//                        overridable with
//                        VBATCH_SIMD=scalar|sse2|avx2|avx512|neon|auto
//                        (requests above the supported level are clamped).
//
// Architectures without a vector backend degrade to the scalar
// implementation transparently.
#pragma once

#include <string>
#include <vector>

#include "base/types.hpp"

namespace vbatch::core {

enum class SimdIsa { scalar, sse2, avx2, avx512, neon };

/// Stable short name used in metrics, bench series and logs.
const char* simd_isa_name(SimdIsa isa);

/// Inverse of simd_isa_name: true and sets `out` when `name` is a known
/// ISA name ("auto" is not one). Used by the VBATCH_SIMD override and the
/// ISA-pinned test runner.
bool parse_simd_isa(const char* name, SimdIsa& out);

/// True when `isa` was compiled in *and* the executing CPU supports it.
bool simd_isa_available(SimdIsa isa);

/// Widest available ISA, after applying the VBATCH_SIMD override (the
/// override can narrow the choice; it never selects an unsupported ISA).
/// The result is computed once and cached.
SimdIsa detect_simd_isa();

/// `requested` when available, else detect_simd_isa(): the one clamp
/// every consumer of a requested ISA (lane-path symbolics, plan-cache
/// keys, the vectorized drivers) applies, so they agree on the ISA that
/// actually runs.
SimdIsa resolve_simd_isa(SimdIsa requested);

/// Every available ISA, narrowest first (always contains scalar).
std::vector<SimdIsa> available_simd_isas();

/// Matrices processed per vector instruction (SIMD lanes) for scalar type
/// T under `isa`. Also the lane-padding granularity of interleaved groups.
template <typename T>
constexpr index_type simd_lanes(SimdIsa isa) {
    switch (isa) {
    case SimdIsa::scalar: return 1;
    case SimdIsa::sse2: return static_cast<index_type>(16 / sizeof(T));
    case SimdIsa::avx2: return static_cast<index_type>(32 / sizeof(T));
    case SimdIsa::avx512: return static_cast<index_type>(64 / sizeof(T));
    case SimdIsa::neon: return static_cast<index_type>(16 / sizeof(T));
    }
    return 1;
}

}  // namespace vbatch::core
