// AVX-512 instantiations of the datapath engines (512 samples or seeds per
// __m512i word). Compiled with -mavx512f; reached only through runtime CPU
// dispatch.
#if defined(__AVX512F__)

#include "rtl/lane_sim.hpp"

namespace hlp::detail {

CycleSimStats simulate_sample_lanes_avx512(const Netlist& n,
                                           const DatapathPlan& plan,
                                           const Samples& samples) {
  return simulate_sample_lanes_t<AvxWord512>(n, plan, samples);
}

std::vector<CycleSimStats> simulate_seed_chunk_avx512(
    const Netlist& n, const DatapathPlan& plan, const LaneSamples& lane_samples,
    const std::vector<std::size_t>* cuts) {
  return simulate_seed_chunk_t<AvxWord512>(n, plan, lane_samples, cuts);
}

}  // namespace hlp::detail

#endif  // __AVX512F__
