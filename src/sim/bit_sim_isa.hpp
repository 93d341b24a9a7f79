// Internal: per-ISA entry points of the bit-parallel engine.
//
// The AVX-512 backend is instantiated in a dedicated translation unit
// (bit_sim_avx512.cpp) compiled with -mavx512f, so the rest of the library
// stays at baseline ISA. These declarations are the only link between the
// dispatcher (bit_sim.cpp) and that TU; definitions exist only when CMake
// found the compiler flag (HLP_HAVE_AVX512), and the dispatcher only calls
// them after resolve_simd_mode() confirmed runtime CPU support.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "sim/schedule_sim.hpp"

namespace hlp::detail {

CycleSimStats simulate_frames_batched_avx512(
    const Netlist& n, const std::vector<std::vector<char>>& frames);
std::vector<CycleSimStats> simulate_batch_avx512(
    const Netlist& n, const std::vector<std::vector<std::vector<char>>>& runs);

}  // namespace hlp::detail
