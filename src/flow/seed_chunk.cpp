#include "flow/seed_chunk.hpp"

namespace hlp::flow {

CycleSimStats simulate_sample_lanes(const Netlist& n, const Datapath& dp,
                                    const Samples& samples, SimdMode simd) {
  switch (resolve_simd_mode(simd)) {
    case SimdMode::kU64:
      return simulate_sample_lanes_t<std::uint64_t>(n, dp, samples);
    case SimdMode::kX2:
      return simulate_sample_lanes_t<SimdX2>(n, dp, samples);
    case SimdMode::kX4:
      return simulate_sample_lanes_t<SimdX4>(n, dp, samples);
    case SimdMode::kX8:
      return simulate_sample_lanes_t<SimdX8>(n, dp, samples);
    case SimdMode::kAvx512:
#if defined(HLP_HAVE_AVX512)
      return detail::simulate_sample_lanes_avx512(n, dp, samples);
#else
      break;
#endif
    case SimdMode::kAuto:
      break;  // resolve_simd_mode never returns kAuto
  }
  HLP_CHECK(false, "unreachable SIMD dispatch (sample lanes)");
}

std::vector<CycleSimStats> simulate_seed_chunk(
    const Netlist& n, const Datapath& dp, const LaneSamples& lane_samples,
    SimdMode simd) {
  switch (resolve_simd_mode(simd)) {
    case SimdMode::kU64:
      return simulate_seed_chunk_t<std::uint64_t>(n, dp, lane_samples);
    case SimdMode::kX2:
      return simulate_seed_chunk_t<SimdX2>(n, dp, lane_samples);
    case SimdMode::kX4:
      return simulate_seed_chunk_t<SimdX4>(n, dp, lane_samples);
    case SimdMode::kX8:
      return simulate_seed_chunk_t<SimdX8>(n, dp, lane_samples);
    case SimdMode::kAvx512:
#if defined(HLP_HAVE_AVX512)
      return detail::simulate_seed_chunk_avx512(n, dp, lane_samples);
#else
      break;
#endif
    case SimdMode::kAuto:
      break;  // resolve_simd_mode never returns kAuto
  }
  HLP_CHECK(false, "unreachable SIMD dispatch (seed chunk)");
}

}  // namespace hlp::flow
