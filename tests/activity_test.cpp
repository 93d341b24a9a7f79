// Tests for the glitch-aware timed-waveform SA estimator (Section 4).
// Key properties verified:
//  - balanced structures produce no estimated glitches under unit delay;
//  - unbalanced arrival times do (the phenomenon HLPower exploits);
//  - zero-delay estimation never reports glitches;
//  - estimates correlate with measured unit-delay simulation;
//  - propagate_lut matches a reference propagation bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "mapper/techmap.hpp"
#include "netlist/modules.hpp"
#include "power/activity.hpp"
#include "power/probability.hpp"
#include "sim/schedule_sim.hpp"
#include "sim/vectors.hpp"

namespace hlp {
namespace {

TEST(TimedSignal, SourceShape) {
  const TimedSignal s = TimedSignal::source();
  EXPECT_DOUBLE_EQ(s.prob, 0.5);
  EXPECT_EQ(s.functional_time, 0);
  EXPECT_DOUBLE_EQ(s.total_activity(), 0.5);
  EXPECT_DOUBLE_EQ(s.activity_at(0), 0.5);
  EXPECT_DOUBLE_EQ(s.activity_at(3), 0.0);
  EXPECT_DOUBLE_EQ(s.glitch_activity(), 0.0);
}

TEST(TimedSignal, QuietSource) {
  const TimedSignal s = TimedSignal::source(0.5, 0.0);
  EXPECT_TRUE(s.acts.empty());
  EXPECT_EQ(s.last_time(), 0);
}

TEST(PropagateLut, AlignedInputsSingleTransition) {
  // Two sources switching at t=0: output transitions only at t=1.
  const TimedSignal a = TimedSignal::source();
  const TimedSignal b = TimedSignal::source();
  const TimedSignal y = propagate_lut(TruthTable::and2(), {&a, &b});
  ASSERT_EQ(y.acts.size(), 1u);
  EXPECT_EQ(y.acts[0].first, 1);
  EXPECT_EQ(y.functional_time, 1);
  EXPECT_DOUBLE_EQ(y.glitch_activity(), 0.0);
  EXPECT_DOUBLE_EQ(y.prob, 0.25);
}

TEST(PropagateLut, MisalignedInputsGlitch) {
  // A source at t=0 and a depth-1 signal at t=1 feeding an XOR: the output
  // can transition at t=1 (glitch) and t=2 (functional).
  const TimedSignal a = TimedSignal::source();
  const TimedSignal mid = propagate_lut(TruthTable::buf(), {&a});
  const TimedSignal b = TimedSignal::source();
  const TimedSignal y = propagate_lut(TruthTable::xor2(), {&b, &mid});
  EXPECT_EQ(y.functional_time, 2);
  ASSERT_EQ(y.acts.size(), 2u);
  EXPECT_EQ(y.acts[0].first, 1);
  EXPECT_EQ(y.acts[1].first, 2);
  EXPECT_GT(y.glitch_activity(), 0.0);
  EXPECT_GT(y.total_activity(), y.activity_at(y.functional_time));
}

TEST(PropagateLut, BufferChainsPreserveActivity) {
  TimedSignal s = TimedSignal::source();
  const TimedSignal* cur = &s;
  TimedSignal next;
  for (int i = 0; i < 4; ++i) {
    next = propagate_lut(TruthTable::buf(), {cur});
    EXPECT_NEAR(next.total_activity(), 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(next.glitch_activity(), 0.0);
    s = next;
    cur = &s;
  }
  EXPECT_EQ(s.functional_time, 4);
}

// Reference propagation: the time union as a std::set, each leaf read with
// activity_at, and each transition priced by lut_switching_activity (which
// recomputes P(y) per time). propagate_lut must agree to the last bit.
TimedSignal reference_propagate(const TruthTable& tt,
                                const std::vector<const TimedSignal*>& leaves) {
  const int k = tt.num_inputs();
  TimedSignal out;
  std::vector<double> p_in(k);
  for (int j = 0; j < k; ++j) p_in[j] = leaves[j]->prob;
  out.prob = lut_probability(tt, p_in);
  int f = 0;
  for (const auto* l : leaves) f = std::max(f, l->functional_time);
  out.functional_time = f + 1;
  std::set<int> times;
  for (const auto* l : leaves)
    for (const auto& [t, a] : l->acts)
      if (a > 0.0) times.insert(t);
  std::vector<double> act_in(k);
  for (int t : times) {
    for (int j = 0; j < k; ++j) act_in[j] = leaves[j]->activity_at(t);
    const double s = lut_switching_activity(tt, p_in, act_in);
    if (s > 0.0) out.acts.emplace_back(t + 1, s);
  }
  return out;
}

// A random leaf waveform. Leaf j draws its times from a window shared by
// all leaves (overlapping) or from its own window (disjoint); some leaves
// are quiet, some are sources, and some carry zero-activity entries, which
// count only when another leaf transitions at that time.
TimedSignal random_leaf(Rng& rng, int j, bool disjoint) {
  switch (rng.range(0, 5)) {
    case 0:
      return TimedSignal::source(rng.uniform(), rng.uniform());
    case 1:
      return TimedSignal::source(rng.uniform(), 0.0);  // quiet
    default:
      break;
  }
  TimedSignal s;
  s.prob = rng.chance(0.1) ? static_cast<double>(rng.range(0, 1))
                           : rng.uniform();
  const int base = disjoint ? 4 * j : 0;
  for (int t = base; t < base + 4; ++t) {
    if (!rng.chance(0.5)) continue;
    s.acts.emplace_back(t, rng.chance(0.1) ? 0.0 : rng.uniform());
  }
  s.functional_time = s.acts.empty() ? 0 : s.acts.back().first;
  return s;
}

TEST(PropagateLut, MatchesReferencePropagationBitForBit) {
  Rng rng(77);
  for (int trial = 0; trial < 400; ++trial) {
    const int k = rng.range(0, kMaxTtInputs);
    const bool disjoint = rng.chance(0.5);
    const TruthTable tt(k, rng.next_u64());
    std::vector<TimedSignal> leaf;
    for (int j = 0; j < k; ++j) leaf.push_back(random_leaf(rng, j, disjoint));
    std::vector<const TimedSignal*> leaves;
    for (const TimedSignal& l : leaf) leaves.push_back(&l);
    const TimedSignal got = propagate_lut(tt, leaves);
    const TimedSignal want = reference_propagate(tt, leaves);
    EXPECT_EQ(got.prob, want.prob) << "trial " << trial;
    EXPECT_EQ(got.functional_time, want.functional_time) << "trial " << trial;
    EXPECT_EQ(got.acts, want.acts) << "trial " << trial;
  }
}

TEST(EstimateActivity, BalancedTreeNoGlitches) {
  // A balanced XOR tree: all paths equal length -> no glitch SA.
  Netlist n("balanced");
  const NetId a = n.add_input("a"), b = n.add_input("b"),
              c = n.add_input("c"), d = n.add_input("d");
  const NetId x = n.add_gate_net("x", {a, b}, TruthTable::xor2());
  const NetId y = n.add_gate_net("y", {c, d}, TruthTable::xor2());
  n.add_output(n.add_gate_net("z", {x, y}, TruthTable::xor2()));
  const ActivityResult r = estimate_activity(n);
  EXPECT_NEAR(r.glitch_sa, 0.0, 1e-12);
  EXPECT_GT(r.total_sa, 0.0);
}

TEST(EstimateActivity, ChainGlitches) {
  // x1 = a^b; x2 = x1^c; x3 = x2^d — skewed arrivals at every level.
  Netlist n("chain");
  const NetId a = n.add_input("a"), b = n.add_input("b"),
              c = n.add_input("c"), d = n.add_input("d");
  const NetId x1 = n.add_gate_net("x1", {a, b}, TruthTable::xor2());
  const NetId x2 = n.add_gate_net("x2", {x1, c}, TruthTable::xor2());
  n.add_output(n.add_gate_net("x3", {x2, d}, TruthTable::xor2()));
  const ActivityResult r = estimate_activity(n);
  EXPECT_GT(r.glitch_sa, 0.05);
  EXPECT_NEAR(r.total_sa, r.functional_sa + r.glitch_sa, 1e-9);
}

TEST(EstimateActivity, ChainWorseThanTree) {
  // Same function (4-input XOR), different structure: the chain must be
  // estimated glitchier — the core premise of multiplexer balancing.
  Netlist tree("tree");
  {
    const NetId a = tree.add_input("a"), b = tree.add_input("b"),
                c = tree.add_input("c"), d = tree.add_input("d");
    const NetId x = tree.add_gate_net("x", {a, b}, TruthTable::xor2());
    const NetId y = tree.add_gate_net("y", {c, d}, TruthTable::xor2());
    tree.add_output(tree.add_gate_net("z", {x, y}, TruthTable::xor2()));
  }
  Netlist chain("chain");
  {
    const NetId a = chain.add_input("a"), b = chain.add_input("b"),
                c = chain.add_input("c"), d = chain.add_input("d");
    const NetId x1 = chain.add_gate_net("x1", {a, b}, TruthTable::xor2());
    const NetId x2 = chain.add_gate_net("x2", {x1, c}, TruthTable::xor2());
    chain.add_output(chain.add_gate_net("x3", {x2, d}, TruthTable::xor2()));
  }
  EXPECT_GT(estimate_activity(chain).total_sa,
            estimate_activity(tree).total_sa);
}

TEST(EstimateActivityZeroDelay, NeverGlitches) {
  const Netlist m = make_multiplier(4);
  const ActivityResult r = estimate_activity_zero_delay(m);
  EXPECT_NEAR(r.glitch_sa, 0.0, 1e-12);
  EXPECT_GT(r.total_sa, 0.0);
}

TEST(EstimateActivity, UnitDelayAtLeastZeroDelay) {
  for (const Netlist& n : {make_adder(6), make_multiplier(4)}) {
    const double glitchy = estimate_activity(n).total_sa;
    const double functional = estimate_activity_zero_delay(n).total_sa;
    EXPECT_GE(glitchy, functional * 0.999) << n.name();
  }
}

TEST(EstimateActivity, MultiplierGlitchierThanAdder) {
  // Absolute SA and glitch SA of the mapped multiplier dwarf the adder's —
  // why the paper uses beta=1000 for mult vs 30 for add (the beta values
  // scale the mux term to the magnitude of each FU's SA term).
  const MapResult add = tech_map(make_adder(8));
  const MapResult mult = tech_map(make_multiplier(8));
  const ActivityResult ra = estimate_activity(add.lut_netlist);
  const ActivityResult rm = estimate_activity(mult.lut_netlist);
  EXPECT_GT(rm.glitch_sa, 3.0 * ra.glitch_sa);
  EXPECT_GT(rm.total_sa, 3.0 * ra.total_sa);
}

TEST(EstimateActivity, TracksMeasuredGlitchOrdering) {
  // The estimator must rank a glitchy netlist above a quiet one the same
  // way unit-delay simulation does: compare mapped mux-imbalanced vs
  // balanced partial structures via adder widths.
  const MapResult small = tech_map(make_adder(4));
  const MapResult big = tech_map(make_multiplier(6));
  const double est_small = estimate_activity(small.lut_netlist).total_sa;
  const double est_big = estimate_activity(big.lut_netlist).total_sa;

  auto measure = [](const Netlist& n) {
    const auto frames =
        random_vectors(400, static_cast<int>(n.inputs().size()), 17);
    return simulate_frames(n, frames).transitions_per_cycle();
  };
  const double meas_small = measure(small.lut_netlist);
  const double meas_big = measure(big.lut_netlist);
  EXPECT_GT(est_big, est_small);
  EXPECT_GT(meas_big, meas_small);
}

TEST(EstimateActivity, EstimateCorrelatesWithSimulationMagnitude) {
  // On the mapped 6-bit multiplier the probabilistic estimate should land
  // within a small factor of measured transitions per cycle.
  const MapResult m = tech_map(make_multiplier(6));
  const double est = estimate_activity(m.lut_netlist).total_sa;
  const auto frames =
      random_vectors(600, static_cast<int>(m.lut_netlist.inputs().size()), 3);
  const double meas = simulate_frames(m.lut_netlist, frames).transitions_per_cycle();
  EXPECT_GT(est, 0.2 * meas);
  EXPECT_LT(est, 5.0 * meas);
}

}  // namespace
}  // namespace hlp
