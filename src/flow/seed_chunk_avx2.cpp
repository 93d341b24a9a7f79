// AVX2 instantiation of the seed-chunk simulation (256 seeds per __m256i
// word). Compiled with -mavx2; reached only through runtime CPU dispatch.
#if defined(__AVX2__)

#include "flow/seed_chunk.hpp"

namespace hlp::flow::detail {

std::vector<CycleSimStats> simulate_seed_chunk_avx2(
    const Netlist& n, const Datapath& dp, const LaneSamples& lane_samples) {
  return simulate_seed_chunk_t<AvxWord256>(n, dp, lane_samples);
}

}  // namespace hlp::flow::detail

#endif  // __AVX2__
