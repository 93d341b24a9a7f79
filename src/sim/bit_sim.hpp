// Bit-parallel simulation engine — the engine selector and the reference
// word.
//
// The scalar UnitDelaySimulator carries one `char` per net and walks the
// netlist once per stimulus frame, so a 1000-vector Figure 3 run traverses
// the fabric a thousand times. This engine packs many simulation lanes
// into one machine word per net and settles the combinational fabric on
// whole words: every gate evaluation is a short word-op sequence (or a
// Shannon-cofactor reduction of its truth table) covering all lanes at
// once, and toggle counting is a popcount of the change word.
//
// The engine itself is word-generic (bit_sim_engine.hpp): the same
// algorithms run at 64 lanes per `uint64_t`, 128/256/512 lanes per
// portable multi-limb word, or 512 lanes per AVX-512 register. Every
// backend is bit-identical to the scalar path (asserted across widths by
// tests/bit_sim_test.cpp and tests/experiment_batch_test.cpp), so the
// word width only changes wall-clock.
//
// What a lane means is the caller's choice. The entry points that stage
// stimulus on lanes live in rtl/lane_sim.hpp, behind a SimdMode runtime
// dispatch (simd_mode.hpp): one SAMPLE per lane for one stimulus sequence
// (simulate_sample_lanes, and simulate_frames_batched for char frames,
// which are one-phase samples of 1-bit inputs) and one SEED per lane for a
// coalesced seed group (simulate_seed_chunk).
#pragma once

#include <cstdint>

#include "sim/bit_sim_engine.hpp"

namespace hlp {

/// Which engine the flow pipeline / experiment runner evaluates stimulus
/// with. The scalar path is kept as the reference oracle; the batched
/// engine's word width is the orthogonal SimdMode axis.
enum class SimEngine { kScalar, kBatched };

/// The 64-lane instantiation keeps its pre-SIMD name: BitSimulator is the
/// u64 reference word engine (one `uint64_t` per net). Wider
/// instantiations (BitSimulatorT<SimdX2>, BitSimulatorT<AvxWord512>, ...)
/// are reached through the SimdMode parameters of rtl/lane_sim.hpp.
using BitSimulator = BitSimulatorT<std::uint64_t>;

}  // namespace hlp
