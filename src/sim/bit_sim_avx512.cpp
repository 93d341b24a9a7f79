// AVX-512 backend of the bit-parallel engine: BitSimulatorT<AvxWord512>,
// 512 lanes per __m512i word (AVX512F ops only). Compiled with -mavx512f
// (see CMakeLists.txt) and entered only through the SimdMode dispatcher
// after __builtin_cpu_supports("avx512f") confirmed the running CPU.
//
// When the toolchain cannot target AVX-512F the file compiles empty and
// the dispatcher never references these symbols (HLP_HAVE_AVX512
// undefined).
#if defined(__AVX512F__)

#include "sim/bit_sim_engine.hpp"
#include "sim/bit_sim_isa.hpp"

namespace hlp::detail {

CycleSimStats simulate_frames_batched_avx512(
    const Netlist& n, const std::vector<std::vector<char>>& frames) {
  return simulate_frames_batched_t<AvxWord512>(n, frames);
}

std::vector<CycleSimStats> simulate_batch_avx512(
    const Netlist& n,
    const std::vector<std::vector<std::vector<char>>>& runs) {
  return simulate_batch_t<AvxWord512>(n, runs);
}

}  // namespace hlp::detail

#endif  // __AVX512F__
