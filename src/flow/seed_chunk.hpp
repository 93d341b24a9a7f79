// Word-parallel datapath simulation of one seed chunk — the engine room
// of Pipeline::run_batch's seed coalescing.
//
// Up to WordTraits<W>::kLanes stimulus seeds (one lane each) are evaluated
// against one netlist, staging stimulus directly as words instead of
// materialising per-seed char frames: control inputs are identical across
// lanes (staged all-zero / all-one), and a sample's data bits are constant
// across its phases (gathered once per sample; re-staging an unchanged
// word is a no-op, so this is bit-identical to driving make_frames' rows).
//
// The template is word-generic like the engine it drives; the
// simulate_seed_chunk dispatcher picks the backend from a SimdMode, with
// the AVX-512 instantiation living in seed_chunk_avx512.cpp (compiled with
// -mavx512f, reached only after a runtime CPU check).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "rtl/datapath.hpp"
#include "sim/bit_sim_engine.hpp"
#include "sim/simd_mode.hpp"

namespace hlp::flow {

/// One sample sequence per lane: lane_samples[l][s][p] is sample s's word
/// for data input p (random_samples' shape).
using LaneSamples = std::vector<std::vector<std::vector<std::uint64_t>>>;

/// Evaluate one chunk of stimulus seeds, `simd` lanes per word; chunk size
/// must fit one word of the chosen backend. Returns one CycleSimStats per
/// lane, bit-identical to per-seed scalar simulation of the same stimulus.
std::vector<CycleSimStats> simulate_seed_chunk(const Netlist& n,
                                               const Datapath& dp,
                                               const LaneSamples& lane_samples,
                                               SimdMode simd);

/// Word-generic implementation (instantiated per backend; call
/// simulate_seed_chunk for the runtime-dispatched entry).
template <typename W>
std::vector<CycleSimStats> simulate_seed_chunk_t(
    const Netlist& n, const Datapath& dp, const LaneSamples& lane_samples) {
  using T = WordTraits<W>;
  const int lanes = static_cast<int>(lane_samples.size());
  HLP_REQUIRE(lanes >= 1 && lanes <= T::kLanes,
              "seed chunk must fit one simulator word");
  const W active = T::mask_lo(lanes);
  const int num_nets = n.num_nets();
  const auto& pis = n.inputs();
  const auto& latches = n.latches();
  const std::size_t num_samples = lane_samples.front().size();
  const std::size_t num_inputs = dp.data_input_pos.size();

  BitSimulatorT<W> sim(n);
  // Reset to the all-zero-source settled state in every lane.
  for (NetId pi : pis) sim.stage_source(pi, T::zero());
  for (const auto& l : latches) sim.stage_source(l.q, T::zero());
  sim.settle_zero_delay();

  LaneCountersT<W> toggles(num_nets);
  LaneCountersT<W> fn(1);
  std::vector<NetId> touched;
  touched.reserve(num_nets);
  std::vector<char> touched_flag(num_nets, 0);
  std::vector<W> before(num_nets);
  std::vector<W> data_words(num_inputs * dp.width);

  for (std::size_t s = 0; s < num_samples; ++s) {
    // Gather this sample's data input words, lane-major.
    std::fill(data_words.begin(), data_words.end(), T::zero());
    for (int l = 0; l < lanes; ++l) {
      const auto& sample = lane_samples[l][s];
      for (std::size_t p = 0; p < num_inputs; ++p) {
        const std::uint64_t word = sample[p];
        for (int j = 0; j < dp.width; ++j)
          T::or_lane(data_words[p * dp.width + j], l, (word >> j) & 1u);
      }
    }
    for (int ph = 0; ph < dp.num_phases; ++ph) {
      for (std::size_t p = 0; p < num_inputs; ++p)
        for (int j = 0; j < dp.width; ++j)
          sim.stage_source(pis[dp.data_input_pos[p] + j],
                           data_words[p * dp.width + j]);
      for (const auto& cg : dp.controls) {
        const int sel = cg.select_by_phase[ph];
        for (std::size_t k = 0; k < cg.input_positions.size(); ++k)
          sim.stage_source(pis[cg.input_positions[k]],
                           ((sel >> k) & 1) ? active : T::zero());
      }
      for (const auto& l : latches)
        sim.stage_source(
            l.q, (sim.word(l.d) & active) | (sim.word(l.q) & ~active));
      sim.settle_batch(toggles, touched, touched_flag, before);
      for (const NetId net : touched) {
        touched_flag[net] = 0;
        fn.add(0, before[net] ^ sim.word(net));
      }
      touched.clear();
    }
  }

  std::vector<CycleSimStats> results(lanes);
  for (int l = 0; l < lanes; ++l) {
    CycleSimStats& st = results[l];
    st.num_cycles = num_samples * dp.num_phases;
    st.toggles.resize(num_nets);
    for (NetId net = 0; net < num_nets; ++net)
      st.toggles[net] = toggles.count(net, l);
    st.functional_transitions = fn.count(0, l);
    for (auto v : st.toggles) st.total_transitions += v;
  }
  return results;
}

namespace detail {

/// Per-ISA entry, defined in seed_chunk_avx512.cpp when the toolchain
/// supports the flag (HLP_HAVE_AVX512).
std::vector<CycleSimStats> simulate_seed_chunk_avx512(
    const Netlist& n, const Datapath& dp, const LaneSamples& lane_samples);

}  // namespace detail

}  // namespace hlp::flow
