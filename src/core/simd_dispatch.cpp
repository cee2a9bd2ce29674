#include "core/simd_dispatch.hpp"

#include <cstdlib>
#include <cstring>

namespace vbatch::core {

namespace {

bool cpu_supports(SimdIsa isa) {
#if defined(__x86_64__) || defined(__i386__)
    switch (isa) {
    case SimdIsa::scalar: return true;
    case SimdIsa::sse2: return __builtin_cpu_supports("sse2");
    case SimdIsa::avx2: return __builtin_cpu_supports("avx2");
    case SimdIsa::avx512:
        // The kernels use 512-bit F-level ops only, but the TU is built
        // at x86-64-v4, so the compiler may emit VL/DQ/BW forms anywhere
        // in it: require the full v4 AVX-512 feature set.
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512vl") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512bw");
    case SimdIsa::neon: return false;
    }
    return false;
#elif defined(__aarch64__)
    // Advanced SIMD is architecturally mandatory on AArch64.
    return isa == SimdIsa::scalar || isa == SimdIsa::neon;
#else
    return isa == SimdIsa::scalar;
#endif
}

bool compiled_in(SimdIsa isa) {
    switch (isa) {
    case SimdIsa::scalar:
        return true;
    case SimdIsa::sse2:
#if defined(__SSE2__)
        return true;
#else
        return false;
#endif
    case SimdIsa::avx2:
#if defined(VBATCH_HAVE_AVX2)
        return true;
#else
        return false;
#endif
    case SimdIsa::avx512:
#if defined(VBATCH_HAVE_AVX512)
        return true;
#else
        return false;
#endif
    case SimdIsa::neon:
#if defined(__aarch64__) && defined(__ARM_NEON)
        return true;
#else
        return false;
#endif
    }
    return false;
}

SimdIsa parse_override(const char* request, SimdIsa fallback) {
    SimdIsa parsed;
    if (request != nullptr && parse_simd_isa(request, parsed)) {
        return parsed;
    }
    return fallback;  // unset / "auto" / unknown: ignore rather than abort
}

SimdIsa detect_uncached() {
    SimdIsa best = SimdIsa::scalar;
    for (const SimdIsa isa : {SimdIsa::sse2, SimdIsa::avx2, SimdIsa::avx512,
                              SimdIsa::neon}) {
        if (simd_isa_available(isa)) {
            best = isa;
        }
    }
    const SimdIsa requested =
        parse_override(std::getenv("VBATCH_SIMD"), best);
    return simd_isa_available(requested) ? requested : best;
}

}  // namespace

const char* simd_isa_name(SimdIsa isa) {
    switch (isa) {
    case SimdIsa::scalar: return "scalar";
    case SimdIsa::sse2: return "sse2";
    case SimdIsa::avx2: return "avx2";
    case SimdIsa::avx512: return "avx512";
    case SimdIsa::neon: return "neon";
    }
    return "unknown";
}

bool parse_simd_isa(const char* name, SimdIsa& out) {
    if (name == nullptr) {
        return false;
    }
    for (const SimdIsa isa : {SimdIsa::scalar, SimdIsa::sse2, SimdIsa::avx2,
                              SimdIsa::avx512, SimdIsa::neon}) {
        if (std::strcmp(name, simd_isa_name(isa)) == 0) {
            out = isa;
            return true;
        }
    }
    return false;
}

bool simd_isa_available(SimdIsa isa) {
    return compiled_in(isa) && cpu_supports(isa);
}

SimdIsa detect_simd_isa() {
    static const SimdIsa cached = detect_uncached();
    return cached;
}

SimdIsa resolve_simd_isa(SimdIsa requested) {
    return simd_isa_available(requested) ? requested : detect_simd_isa();
}

std::vector<SimdIsa> available_simd_isas() {
    std::vector<SimdIsa> isas;
    for (const SimdIsa isa : {SimdIsa::scalar, SimdIsa::sse2, SimdIsa::avx2,
                              SimdIsa::avx512, SimdIsa::neon}) {
        if (simd_isa_available(isa)) {
            isas.push_back(isa);
        }
    }
    return isas;
}

}  // namespace vbatch::core
