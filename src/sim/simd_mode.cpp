#include "sim/simd_mode.hpp"

#include "common/error.hpp"

namespace hlp {

namespace {

// Was this backend compiled into the library? Portable modes always;
// avx512 only when the toolchain accepted -mavx512f.
bool simd_mode_compiled(SimdMode mode) {
#if defined(HLP_HAVE_AVX512)
  constexpr bool kHaveAvx512 = true;
#else
  constexpr bool kHaveAvx512 = false;
#endif
  return mode != SimdMode::kAvx512 || kHaveAvx512;
}

bool cpu_has_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

// The 512-lane word this build and CPU run: avx512, else portable x8.
SimdMode widest_supported() {
  return simd_mode_supported(SimdMode::kAvx512) ? SimdMode::kAvx512
                                                : SimdMode::kX8;
}

}  // namespace

const std::vector<SimdMode>& all_simd_modes() {
  static const std::vector<SimdMode> kModes = {
      SimdMode::kAuto, SimdMode::kU64, SimdMode::kX2,
      SimdMode::kX4,   SimdMode::kX8,  SimdMode::kAvx512};
  return kModes;
}

const char* simd_mode_name(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kU64:
      return "u64";
    case SimdMode::kX2:
      return "x2";
    case SimdMode::kX4:
      return "x4";
    case SimdMode::kX8:
      return "x8";
    case SimdMode::kAvx512:
      return "avx512";
  }
  HLP_CHECK(false, "invalid SimdMode value");
}

bool simd_mode_supported(SimdMode mode) {
  return simd_mode_compiled(mode) &&
         (mode != SimdMode::kAvx512 || cpu_has_avx512f());
}

SimdMode resolve_simd_mode(SimdMode requested) {
  if (requested == SimdMode::kAuto) return widest_supported();
  HLP_REQUIRE(simd_mode_supported(requested),
              "SIMD mode '" << simd_mode_name(requested) << "' is not "
                  << (simd_mode_compiled(requested)
                          ? "supported on this CPU"
                          : "compiled into this build"));
  return requested;
}

SimdMode effective_simd_mode(SimdMode requested) {
  return resolve_simd_mode(requested);
}

SimdMode effective_simd_mode(SimdMode requested, std::size_t lanes_needed) {
  if (requested != SimdMode::kAuto) return resolve_simd_mode(requested);
  if (lanes_needed <= 64) return SimdMode::kU64;
  if (lanes_needed <= 128) return SimdMode::kX2;
  if (lanes_needed <= 256) return SimdMode::kX4;
  return widest_supported();
}

int simd_lanes(SimdMode mode) {
  switch (mode) {
    case SimdMode::kU64:
      return 64;
    case SimdMode::kX2:
      return 128;
    case SimdMode::kX4:
      return 256;
    case SimdMode::kX8:
    case SimdMode::kAvx512:
      return 512;
    case SimdMode::kAuto:
      break;
  }
  HLP_REQUIRE(false, "simd_lanes needs a concrete mode, not 'auto'");
}

}  // namespace hlp
