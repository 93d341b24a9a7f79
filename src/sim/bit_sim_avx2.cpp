// AVX2 backend of the bit-parallel engine: BitSimulatorT<AvxWord256>,
// 256 lanes per __m256i word. This TU is compiled with -mavx2 (see
// CMakeLists.txt) and entered only through the SimdMode dispatcher after
// __builtin_cpu_supports("avx2") confirmed the running CPU — no AVX2
// instruction can execute on a CPU without it.
//
// When the toolchain cannot target AVX2 the file compiles empty and the
// dispatcher never references these symbols (HLP_HAVE_AVX2 undefined).
#if defined(__AVX2__)

#include "sim/bit_sim_engine.hpp"
#include "sim/bit_sim_isa.hpp"

namespace hlp::detail {

CycleSimStats simulate_frames_batched_avx2(
    const Netlist& n, const std::vector<std::vector<char>>& frames) {
  return simulate_frames_batched_t<AvxWord256>(n, frames);
}

std::vector<CycleSimStats> simulate_batch_avx2(
    const Netlist& n,
    const std::vector<std::vector<std::vector<char>>>& runs) {
  return simulate_batch_t<AvxWord256>(n, runs);
}

}  // namespace hlp::detail

#endif  // __AVX2__
