// Word-parallel simulation of a registered netlist driven by a datapath
// control plan — the engine room of the pipeline's `simulate` stage and of
// simulate_activity. Stimulus is staged directly as words instead of
// materialised per-cycle char frames, on one of two lane axes:
//
//  - simulate_sample_lanes: ONE stimulus sequence, one input SAMPLE per
//    lane (all dp.num_phases cycles of it), behind Pipeline::run. The only
//    coupling between lanes is the state a sample starts from: the state
//    the previous sample ended in. The engine works those start states out
//    by time-parallel simulation with fix-up (Heidelberger & Stone,
//    "Parallel Trace-Driven Cache Simulation by Time Partitioning", WSC
//    1990): guess them, run one zero-delay pass per phase over the chunk,
//    shift the end states up one lane, and repeat until the shifted end
//    states equal the start states on every active lane. Lane 0 starts
//    from the exactly known state, and lane k is right after k passes at
//    the latest, so the loop is exact and takes at most lanes + 1 passes.
//    One counting unit-delay pass then runs from the verified states.
//  - simulate_seed_chunk: one stimulus SEED per lane, all of its samples in
//    lockstep, behind Pipeline::run_batch's seed coalescing. Latch state
//    lives per lane, so no lane depends on another.
//
// Char frames (one row of primary-input bits per cycle, what
// simulate_frames takes) are the one-phase case of the first axis:
// simulate_frames_batched reads each frame as a sample of 1-bit data
// inputs under a plan with no controls and hands it to
// simulate_sample_lanes, one frame per lane.
//
// Both rest on the same two facts, and share one staging helper
// (detail::PhaseStager): a sample's data bits are constant across its
// phases (gathered into words once per sample; re-staging an unchanged
// word is a no-op, so this is bit-identical to driving make_frames' rows),
// and the control plan is the same for every lane (selects staged
// all-zero / all-one on the active lanes).
//
// The templates are word-generic like the engine they drive; each
// dispatcher picks the backend from a SimdMode, with the AVX-512
// instantiations living in lane_sim_avx512.cpp (compiled with -mavx512f,
// reached only after a runtime CPU check).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "rtl/datapath.hpp"
#include "sim/bit_sim_engine.hpp"
#include "sim/schedule_sim.hpp"
#include "sim/simd_mode.hpp"

namespace hlp {

/// One stimulus sequence: samples[s][p] is sample s's word for data input
/// p (random_samples' shape).
using Samples = std::vector<std::vector<std::uint64_t>>;

/// One sample sequence per lane.
using LaneSamples = std::vector<Samples>;

/// Evaluate one stimulus sequence, one sample per lane, `simd` lanes per
/// word (chunked to the word). Returns the statistics of the whole run,
/// bit-identical to simulate_frames(n, make_frames(dp, samples)).
CycleSimStats simulate_sample_lanes(const Netlist& n, const Datapath& dp,
                                    const Samples& samples, SimdMode simd);

/// One stimulus sequence of char frames through `n`: frames[t] holds one
/// value per primary input in netlist input order, any nonzero byte
/// reading as 1. Throws hlp::Error, with simulate_frames' message, on a
/// frame of the wrong arity. Bit-identical to simulate_frames(n, frames)
/// at every width.
CycleSimStats simulate_frames_batched(
    const Netlist& n, const std::vector<std::vector<char>>& frames,
    SimdMode simd = SimdMode::kU64);

/// Evaluate one chunk of stimulus seeds, `simd` lanes per word; chunk size
/// must fit one word of the chosen backend and every lane must hold the
/// same number of samples. Returns one CycleSimStats per lane,
/// bit-identical to per-seed scalar simulation of the same stimulus.
std::vector<CycleSimStats> simulate_seed_chunk(const Netlist& n,
                                               const Datapath& dp,
                                               const LaneSamples& lane_samples,
                                               SimdMode simd);

namespace detail {

/// The per-phase stimulus staging both datapath engines share. gather()
/// packs one sample per lane into data words, once per sample; stage()
/// then stages those words, the control plan's selects for one phase and
/// the clock edge Q <- D. Selects and the edge apply to the active lanes
/// only: an inactive lane sees data and selects 0 and keeps its Q, so a
/// lane resting in the all-zero-source settled state never moves.
template <typename W>
class PhaseStager {
  using T = WordTraits<W>;

 public:
  PhaseStager(const Netlist& n, const Datapath& dp)
      : n_(n), dp_(dp), data_words_(dp.data_input_pos.size() * dp.width) {}

  /// Settle every lane to the all-zero-source state, the state the scalar
  /// simulator starts from.
  void reset(BitSimulatorT<W>& sim) const {
    for (NetId pi : n_.inputs()) sim.stage_source(pi, T::zero());
    for (const auto& l : n_.latches()) sim.stage_source(l.q, T::zero());
    sim.settle_zero_delay();
  }

  /// Pack lanes [0, lanes) into the data words, lane l taking the sample
  /// `sample_of(l)`. Throws hlp::Error, with make_frames' message, on a
  /// sample that does not hold one word per data input.
  template <typename SampleOf>
  void gather(int lanes, SampleOf&& sample_of) {
    const std::size_t num_inputs = dp_.data_input_pos.size();
    std::fill(data_words_.begin(), data_words_.end(), T::zero());
    for (int l = 0; l < lanes; ++l) {
      const std::vector<std::uint64_t>& sample = sample_of(l);
      HLP_REQUIRE(sample.size() == num_inputs,
                  "sample has " << sample.size() << " words, datapath expects "
                                << num_inputs);
      for (std::size_t p = 0; p < num_inputs; ++p) {
        const std::uint64_t word = sample[p];
        for (int j = 0; j < dp_.width; ++j)
          T::or_lane(data_words_[p * dp_.width + j], l, (word >> j) & 1u);
      }
    }
  }

  /// Stage phase `ph` of the gathered samples on the `active` lanes.
  void stage(BitSimulatorT<W>& sim, int ph, const W& active) const {
    const auto& pis = n_.inputs();
    for (std::size_t p = 0; p < dp_.data_input_pos.size(); ++p)
      for (int j = 0; j < dp_.width; ++j)
        sim.stage_source(pis[dp_.data_input_pos[p] + j],
                         data_words_[p * dp_.width + j]);
    for (const auto& cg : dp_.controls) {
      const int sel = cg.select_by_phase[ph];
      for (std::size_t k = 0; k < cg.input_positions.size(); ++k)
        sim.stage_source(pis[cg.input_positions[k]],
                         ((sel >> k) & 1) ? active : T::zero());
    }
    for (const auto& l : n_.latches())
      sim.stage_source(
          l.q, (sim.word(l.d) & active) | (sim.word(l.q) & ~active));
  }

 private:
  const Netlist& n_;
  const Datapath& dp_;
  std::vector<W> data_words_;  // [input p * width + bit j], one lane each
};

}  // namespace detail

/// Word-generic implementation (instantiated per backend; call
/// simulate_sample_lanes for the runtime-dispatched entry).
template <typename W>
CycleSimStats simulate_sample_lanes_t(const Netlist& n, const Datapath& dp,
                                      const Samples& samples) {
  using T = WordTraits<W>;
  const int num_nets = n.num_nets();
  CycleSimStats stats;
  stats.num_cycles = samples.size() * dp.num_phases;
  stats.toggles.assign(num_nets, 0);

  BitSimulatorT<W> sim(n);
  detail::PhaseStager<W> stager(n, dp);
  stager.reset(sim);
  // s0 in every lane: the state sample 0 starts from, and the state an
  // inactive lane rests in.
  const std::vector<W> s0 = sim.state();
  // The state the chunk's first sample starts from, one bit per net.
  std::vector<char> carry(num_nets);
  for (NetId net = 0; net < num_nets; ++net)
    carry[net] = static_cast<char>(T::lane(s0[net], 0));
  std::vector<W> start(num_nets), prev(num_nets);
  std::uint64_t functional = 0;

  for (std::size_t g0 = 0; g0 < samples.size(); g0 += T::kLanes) {
    const int lanes = static_cast<int>(
        std::min<std::size_t>(T::kLanes, samples.size() - g0));
    const W active = T::mask_lo(lanes);
    stager.gather(lanes, [&](int l) -> const std::vector<std::uint64_t>& {
      return samples[g0 + l];
    });
    // Guess that every sample starts where the chunk does, then fix up:
    // lane l's start is lane l-1's end, which one zero-delay pass per
    // phase computes for all lanes at once. The loop stops only when every
    // active lane starts where its predecessor ends, and lane 0's start
    // is exact, so by induction every start is (at most lanes + 1 passes).
    for (NetId net = 0; net < num_nets; ++net)
      start[net] = (T::fill(carry[net] != 0) & active) | (s0[net] & ~active);
    for (bool fixed = false; !fixed;) {
      sim.load_state(start);
      for (int ph = 0; ph < dp.num_phases; ++ph) {
        stager.stage(sim, ph, active);
        sim.settle_zero_delay();
      }
      fixed = true;
      for (NetId net = 0; net < num_nets; ++net) {
        const W wrong =
            (T::shl1(sim.word(net), carry[net]) ^ start[net]) & active;
        if (T::any(wrong)) {
          fixed = false;
          start[net] = start[net] ^ wrong;
        }
      }
    }
    // Count from the verified start states. Every lane belongs to one run,
    // so popcounts sum to the run's counts; inactive lanes never move.
    sim.load_state(start);
    prev = start;
    for (int ph = 0; ph < dp.num_phases; ++ph) {
      stager.stage(sim, ph, active);
      sim.settle(&stats.toggles);
      for (NetId net = 0; net < num_nets; ++net) {
        const W now = sim.word(net);
        functional += static_cast<std::uint64_t>(T::popcount(prev[net] ^ now));
        prev[net] = now;
      }
    }
    for (NetId net = 0; net < num_nets; ++net)
      carry[net] = static_cast<char>(T::lane(sim.word(net), lanes - 1));
  }

  stats.functional_transitions = functional;
  for (auto v : stats.toggles) stats.total_transitions += v;
  return stats;
}

/// Word-generic implementation (instantiated per backend; call
/// simulate_seed_chunk for the runtime-dispatched entry).
template <typename W>
std::vector<CycleSimStats> simulate_seed_chunk_t(
    const Netlist& n, const Datapath& dp, const LaneSamples& lane_samples) {
  using T = WordTraits<W>;
  const int lanes = static_cast<int>(lane_samples.size());
  HLP_REQUIRE(lanes >= 1 && lanes <= T::kLanes,
              "seed chunk must fit one simulator word");
  const std::size_t num_samples = lane_samples.front().size();
  for (int l = 1; l < lanes; ++l)
    HLP_REQUIRE(lane_samples[l].size() == num_samples,
                "seed lane " << l << " has " << lane_samples[l].size()
                             << " samples, lane 0 has " << num_samples);
  const W active = T::mask_lo(lanes);
  const int num_nets = n.num_nets();

  BitSimulatorT<W> sim(n);
  detail::PhaseStager<W> stager(n, dp);
  stager.reset(sim);

  LaneCountersT<W> toggles(num_nets);
  LaneCountersT<W> fn(1);
  std::vector<NetId> touched;
  touched.reserve(num_nets);
  std::vector<char> touched_flag(num_nets, 0);
  std::vector<W> before(num_nets);

  for (std::size_t s = 0; s < num_samples; ++s) {
    stager.gather(lanes, [&](int l) -> const std::vector<std::uint64_t>& {
      return lane_samples[l][s];
    });
    for (int ph = 0; ph < dp.num_phases; ++ph) {
      stager.stage(sim, ph, active);
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

/// Per-ISA entries, defined in lane_sim_avx512.cpp when the toolchain
/// supports the flag (HLP_HAVE_AVX512).
CycleSimStats simulate_sample_lanes_avx512(const Netlist& n,
                                           const Datapath& dp,
                                           const Samples& samples);
std::vector<CycleSimStats> simulate_seed_chunk_avx512(
    const Netlist& n, const Datapath& dp, const LaneSamples& lane_samples);

}  // namespace detail

}  // namespace hlp
