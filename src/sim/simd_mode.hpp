// Which word width the bit-parallel simulation engine evaluates stimulus
// with. The width is not a setting: the flow pipeline always asks for
// kAuto, and the code picks the word from the lane demand and the CPU.
//
// Every backend is bit-identical to the scalar oracle (property-tested by
// tests/bit_sim_test.cpp); the mode only chooses how many simulation lanes
// one netlist traversal settles:
//
//   u64     64 lanes   scalar uint64_t word (the reference engine, the
//                      default for direct simulate_* calls)
//   x2     128 lanes   portable 2 x u64 limb array
//   x4     256 lanes   portable 4 x u64 limb array
//   x8     512 lanes   portable 8 x u64 limb array
//   avx512 512 lanes   __m512i backend; needs AVX-512F at build & run time
//   auto               the narrowest word that covers the lane demand
//                      (u64 -> x2 -> x4 -> avx512, x8 on a CPU without
//                      AVX-512); with no demand given, the widest word
//
// The explicit modes stay reachable through the simulate_* entry points so
// tests can compare every backend with the scalar oracle. Requesting
// avx512 on a build or CPU without it is an error, not a silent downgrade
// (resolve_simd_mode throws).
#pragma once

#include <cstddef>
#include <vector>

namespace hlp {

enum class SimdMode { kAuto, kU64, kX2, kX4, kX8, kAvx512 };

/// Every mode, kAuto first (handy for sweeps and option listings).
const std::vector<SimdMode>& all_simd_modes();

/// Canonical spelling: "auto", "u64", "x2", "x4", "x8", "avx512".
const char* simd_mode_name(SimdMode mode);

/// Compiled into the library (avx512 needs a -mavx512f-capable
/// toolchain) AND usable on the running CPU (CPUID avx512f).
/// Portable modes are always supported; kAuto is trivially supported.
bool simd_mode_supported(SimdMode mode);

/// Resolve a requested mode to a concrete backend: kAuto picks the widest
/// supported word (avx512, else x8); explicit modes pass through after a
/// support check. Throws hlp::Error for an explicit avx512 request the
/// build or CPU cannot honour. Never returns kAuto.
SimdMode resolve_simd_mode(SimdMode requested);

/// The mode a pipeline/runner resolves to with no lane demand: the same
/// as resolve_simd_mode.
SimdMode effective_simd_mode(SimdMode requested);

/// Lanes-aware variant: kAuto picks the narrowest supported backend that
/// covers `lanes_needed` (u64 -> x2 -> x4 -> avx512|x8) instead of the
/// widest — a word wider than the batch pays full word cost on empty
/// lanes, so e.g. a 64-seed group stays on the u64 word and a 512-seed
/// group gets avx512. Explicit modes resolve unchanged.
SimdMode effective_simd_mode(SimdMode requested, std::size_t lanes_needed);

/// Lanes per word of a concrete mode (64..512). Throws on kAuto — resolve
/// first.
int simd_lanes(SimdMode mode);

}  // namespace hlp
