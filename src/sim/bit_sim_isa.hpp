// Internal: per-ISA entry points of the bit-parallel engine.
//
// The AVX2 / AVX-512 backends are instantiated in dedicated translation
// units (bit_sim_avx2.cpp, bit_sim_avx512.cpp) compiled with -mavx2 /
// -mavx512f, so the rest of the library stays at baseline ISA. These
// declarations are the only link between the dispatcher (bit_sim.cpp) and
// those TUs; definitions exist only when CMake found the matching compiler
// flag (HLP_HAVE_AVX2 / HLP_HAVE_AVX512), and the dispatcher only calls
// them after resolve_simd_mode() confirmed runtime CPU support.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "sim/schedule_sim.hpp"

namespace hlp::detail {

CycleSimStats simulate_frames_batched_avx2(
    const Netlist& n, const std::vector<std::vector<char>>& frames);
std::vector<CycleSimStats> simulate_batch_avx2(
    const Netlist& n, const std::vector<std::vector<std::vector<char>>>& runs);

CycleSimStats simulate_frames_batched_avx512(
    const Netlist& n, const std::vector<std::vector<char>>& frames);
std::vector<CycleSimStats> simulate_batch_avx512(
    const Netlist& n, const std::vector<std::vector<std::vector<char>>>& runs);

}  // namespace hlp::detail
