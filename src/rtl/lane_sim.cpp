#include "rtl/lane_sim.hpp"

#include <numeric>

namespace hlp {

CycleSimStats simulate_sample_lanes(const Netlist& n, const DatapathPlan& plan,
                                    const Samples& samples, SimdMode simd) {
  switch (resolve_simd_mode(simd)) {
    case SimdMode::kU64:
      return simulate_sample_lanes_t<std::uint64_t>(n, plan, samples);
    case SimdMode::kX2:
      return simulate_sample_lanes_t<SimdX2>(n, plan, samples);
    case SimdMode::kX4:
      return simulate_sample_lanes_t<SimdX4>(n, plan, samples);
    case SimdMode::kX8:
      return simulate_sample_lanes_t<SimdX8>(n, plan, samples);
    case SimdMode::kAvx512:
#if defined(HLP_HAVE_AVX512)
      return detail::simulate_sample_lanes_avx512(n, plan, samples);
#else
      break;
#endif
    case SimdMode::kAuto:
      break;  // resolve_simd_mode never returns kAuto
  }
  HLP_CHECK(false, "unreachable SIMD dispatch (sample lanes)");
}

namespace {

std::vector<CycleSimStats> dispatch_seed_chunk(
    const Netlist& n, const DatapathPlan& plan, const LaneSamples& lane_samples,
    SimdMode simd, const std::vector<std::size_t>* cuts) {
  switch (resolve_simd_mode(simd)) {
    case SimdMode::kU64:
      return simulate_seed_chunk_t<std::uint64_t>(n, plan, lane_samples, cuts);
    case SimdMode::kX2:
      return simulate_seed_chunk_t<SimdX2>(n, plan, lane_samples, cuts);
    case SimdMode::kX4:
      return simulate_seed_chunk_t<SimdX4>(n, plan, lane_samples, cuts);
    case SimdMode::kX8:
      return simulate_seed_chunk_t<SimdX8>(n, plan, lane_samples, cuts);
    case SimdMode::kAvx512:
#if defined(HLP_HAVE_AVX512)
      return detail::simulate_seed_chunk_avx512(n, plan, lane_samples, cuts);
#else
      break;
#endif
    case SimdMode::kAuto:
      break;  // resolve_simd_mode never returns kAuto
  }
  HLP_CHECK(false, "unreachable SIMD dispatch (seed chunk)");
}

}  // namespace

std::vector<CycleSimStats> simulate_seed_chunk(
    const Netlist& n, const DatapathPlan& plan, const LaneSamples& lane_samples,
    SimdMode simd) {
  return dispatch_seed_chunk(n, plan, lane_samples, simd, nullptr);
}

std::vector<CycleSimStats> detail::simulate_seed_chunk_cut(
    const Netlist& n, const DatapathPlan& plan, const LaneSamples& lane_samples,
    const std::vector<std::size_t>& cuts, SimdMode simd) {
  return dispatch_seed_chunk(n, plan, lane_samples, simd, &cuts);
}

CycleSimStats simulate_frames_batched(
    const Netlist& n, const std::vector<std::vector<char>>& frames,
    SimdMode simd) {
  // A frame is a one-phase sample whose data inputs are 1 bit wide, one
  // per primary input, with no control plan.
  const std::size_t inputs = n.inputs().size();
  DatapathPlan plan;
  plan.width = 1;
  plan.num_phases = 1;
  plan.data_input_pos.resize(inputs);
  std::iota(plan.data_input_pos.begin(), plan.data_input_pos.end(), 0);
  Samples samples;
  samples.reserve(frames.size());
  for (const auto& frame : frames) {
    HLP_REQUIRE(frame.size() == inputs, "frame has " << frame.size()
                                                     << " bits, netlist has "
                                                     << inputs << " inputs");
    auto& sample = samples.emplace_back(inputs);
    for (std::size_t j = 0; j < inputs; ++j) sample[j] = frame[j] != 0;
  }
  return simulate_sample_lanes(n, plan, samples, simd);
}

}  // namespace hlp
