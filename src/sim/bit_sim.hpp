// Bit-parallel batched simulation engine — public entry points.
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
// portable multi-limb word, or 512 lanes per AVX-512 register. The
// functions below select the backend with a SimdMode (simd_mode.hpp; the
// flow pipeline always passes kAuto sized to its lane demand) behind
// runtime CPU dispatch — every backend is bit-identical to the scalar
// path (asserted across widths by tests/bit_sim_test.cpp), so the mode
// only changes wall-clock.
//
// What a lane means is the caller's choice. The entry points here take
// char frames (one row of primary-input bits per cycle) and offer two
// lane axes:
//
//  - simulate_frames_batched: ONE stimulus sequence, one word of
//    consecutive CYCLES at a time. Cycles are made independent by
//    splitting the run into a scalar phase that advances only the
//    latch-state recurrence (zero-delay evaluation of the latch-D fanin
//    cone) and a word-parallel phase that replays each cycle block: a
//    single topological pass yields all settled states, then one
//    event-driven unit-delay settle on words reproduces every transient,
//    glitches included. simulate_activity (the `sim` SA tables) runs it on
//    combinational partial datapaths, where the scalar phase is empty. In
//    an elaborated datapath the latch-D cone is almost the whole netlist,
//    so the pipeline does not use this axis.
//
//  - simulate_batch: MANY independent stimulus sequences as lanes, one
//    RUN per lane. Latch state lives per lane inside the word, so the
//    whole cycle loop — clock edge, settle, counting — is word parallel
//    with no scalar phase at all. Runs may have different lengths;
//    finished lanes are frozen by re-staging their previous source values.
//
// The flow pipeline simulates elaborated datapaths with the engines in
// flow/seed_chunk.hpp, which stage input samples directly as words: one
// SAMPLE per lane for a single-seed run (simulate_sample_lanes) and one
// SEED per lane for a coalesced seed group (simulate_seed_chunk).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/bit_sim_engine.hpp"
#include "sim/schedule_sim.hpp"
#include "sim/simd_mode.hpp"

namespace hlp {

/// Which engine the flow pipeline / experiment runner evaluates stimulus
/// with. The scalar path is kept as the reference oracle; the batched
/// engine's word width is the orthogonal SimdMode axis.
enum class SimEngine { kScalar, kBatched };

/// The 64-lane instantiations keep their pre-SIMD names: BitSimulator is
/// the u64 reference word engine (one `uint64_t` per net), and the default
/// backend of every simulate_* entry point below. Wider instantiations
/// (BitSimulatorT<SimdX2>, BitSimulatorT<AvxWord512>, ...) are reached
/// through the SimdMode parameters.
using BitSimulator = BitSimulatorT<std::uint64_t>;

/// Bit-sliced per-lane counters at the reference 64-lane width (see
/// LaneCountersT for the word-generic contract).
using LaneCounters = LaneCountersT<std::uint64_t>;

/// Batched drop-in for simulate_frames: same stimulus semantics, same
/// result, one word of consecutive cycles at a time (64 for the default
/// u64 backend, up to 512 for x8/avx512). `frames[t]` holds one
/// bit per primary input in netlist input order. `simd` must resolve
/// (resolve_simd_mode) — kAuto picks the widest supported backend.
CycleSimStats simulate_frames_batched(
    const Netlist& n, const std::vector<std::vector<char>>& frames,
    SimdMode simd = SimdMode::kU64);

/// Dispatch helper: scalar reference path or the batched engine at the
/// requested word width (ignored for kScalar).
CycleSimStats simulate_frames(const Netlist& n,
                              const std::vector<std::vector<char>>& frames,
                              SimEngine engine,
                              SimdMode simd = SimdMode::kU64);

/// Many independent stimulus sequences through one netlist, one run per
/// lane (64 per word for u64, up to 512 under avx512). Returns one
/// CycleSimStats per run, bit-identical to running simulate_frames(n,
/// runs[i]) separately at any width. Run lengths may differ.
std::vector<CycleSimStats> simulate_batch(
    const Netlist& n, const std::vector<std::vector<std::vector<char>>>& runs,
    SimdMode simd = SimdMode::kU64);

/// Group-dispatch helper for the seed-coalescing experiment path: many
/// stimulus sequences through one netlist under either engine. The scalar
/// reference loops simulate_frames per run; the batched engine rides
/// simulate_batch's multi-run lanes at the requested word width. Results
/// are bit-identical across engines and widths, and to per-run
/// simulate_frames calls.
std::vector<CycleSimStats> simulate_runs(
    const Netlist& n, const std::vector<std::vector<std::vector<char>>>& runs,
    SimEngine engine, SimdMode simd = SimdMode::kU64);

}  // namespace hlp
