// Tests for cut enumeration and K-LUT technology mapping: coverage,
// functional equivalence of mapped vs original netlists, depth behaviour,
// and the glitch-aware selection mode.
#include <gtest/gtest.h>

#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mapper/cuts.hpp"
#include "mapper/techmap.hpp"
#include "netlist/modules.hpp"
#include "power/activity.hpp"
#include "rtl/partial_datapath.hpp"
#include "sim/simulator.hpp"

namespace hlp {
namespace {

std::uint64_t eval_all(const Netlist& n, std::uint64_t input_bits) {
  UnitDelaySimulator sim(n);
  for (std::size_t j = 0; j < n.inputs().size(); ++j)
    sim.set_input(n.inputs()[j], (input_bits >> j) & 1u);
  sim.clock_edge();
  sim.settle_zero_delay(false);
  std::uint64_t out = 0;
  for (std::size_t j = 0; j < n.outputs().size(); ++j)
    if (sim.value(n.outputs()[j])) out |= 1ull << j;
  return out;
}

Netlist two_level() {
  // y = (a & b) | (c & d): classic 4-input function of 3 gates.
  Netlist n("t");
  const NetId a = n.add_input("a"), b = n.add_input("b"),
              c = n.add_input("c"), d = n.add_input("d");
  const NetId x1 = n.add_gate_net("x1", {a, b}, TruthTable::and2());
  const NetId x2 = n.add_gate_net("x2", {c, d}, TruthTable::and2());
  n.add_output(n.add_gate_net("y", {x1, x2}, TruthTable::or2()));
  return n;
}

TEST(Cuts, TrivialCutAlwaysPresent) {
  const Netlist n = two_level();
  const CutSet cs(n, CutParams{});
  const NetId y = n.find_net("y");
  bool found_trivial = false;
  for (const Cut& c : cs.cuts_of(y))
    if (c.is_trivial(y)) found_trivial = true;
  EXPECT_TRUE(found_trivial);
}

TEST(Cuts, FourInputCutCoversWholeCone) {
  const Netlist n = two_level();
  const CutSet cs(n, CutParams{4, 12});
  const NetId y = n.find_net("y");
  // Best depth must be 1: the whole cone fits one 4-LUT.
  EXPECT_EQ(cs.best_depth(y), 1);
  bool has_pi_cut = false;
  for (const Cut& c : cs.cuts_of(y))
    if (c.leaves.size() == 4) has_pi_cut = true;
  EXPECT_TRUE(has_pi_cut);
}

TEST(Cuts, K2ForcesTwoLevels) {
  const Netlist n = two_level();
  const CutSet cs(n, CutParams{2, 12});
  EXPECT_EQ(cs.best_depth(n.find_net("y")), 2);
}

TEST(Cuts, LeavesNeverExceedK) {
  const Netlist n = make_multiplier(4);
  const CutSet cs(n, CutParams{4, 10});
  for (NetId net = 0; net < n.num_nets(); ++net)
    for (const Cut& c : cs.cuts_of(net)) EXPECT_LE(c.leaves.size(), 4u);
}

TEST(Cuts, CutFunctionOfWholeCone) {
  const Netlist n = two_level();
  const NetId y = n.find_net("y");
  const std::vector<NetId> leaves = {n.find_net("a"), n.find_net("b"),
                                     n.find_net("c"), n.find_net("d")};
  const TruthTable tt = cut_function(n, y, leaves);
  for (std::uint32_t m = 0; m < 16; ++m) {
    const bool a = m & 1, b = m & 2, c = m & 4, d = m & 8;
    EXPECT_EQ(tt.eval(m), (a && b) || (c && d));
  }
}

// Reference for cut_function: evaluate the cone once per leaf minterm.
TruthTable reference_cut_function(const Netlist& n, NetId root,
                                  const std::vector<NetId>& leaves) {
  const int k = static_cast<int>(leaves.size());
  std::uint64_t bits = 0;
  for (std::uint32_t m = 0; m < (1u << k); ++m) {
    std::unordered_map<NetId, bool> value;
    for (int j = 0; j < k; ++j) value[leaves[j]] = (m >> j) & 1u;
    auto eval = [&](auto&& self, NetId net) -> bool {
      if (auto it = value.find(net); it != value.end()) return it->second;
      const Gate& g = n.gates()[n.driver_gate(net)];
      std::uint32_t gate_minterm = 0;
      for (std::size_t j = 0; j < g.ins.size(); ++j)
        if (self(self, g.ins[j])) gate_minterm |= 1u << j;
      return value[net] = g.tt.eval(gate_minterm);
    };
    if (eval(eval, root)) bits |= 1ull << m;
  }
  return TruthTable(k, bits);
}

TEST(Cuts, CutFunctionMatchesPerMintermReference) {
  // Every non-trivial cut of an SA-table partial datapath, under the SA
  // fill's cut parameters, and of the modules MapEquivalence maps.
  const std::pair<Netlist, CutParams> cases[] = {
      {make_partial_datapath(OpKind::kMult, 3, 2, 4), CutParams{}},
      {make_adder(4), CutParams{4, 10}},
      {make_multiplier(3), CutParams{4, 10}},
      {make_mux(5, 2), CutParams{4, 10}},
      {make_multiplier(4), CutParams{4, 10}}};
  for (const auto& [n, params] : cases) {
    const CutSet cs(n, params);
    int checked = 0;
    for (int gi : n.topo_gates()) {
      const NetId root = n.gates()[gi].out;
      for (const Cut& c : cs.cuts_of(root)) {
        if (c.is_trivial(root)) continue;
        EXPECT_EQ(cut_function(n, root, c.leaves),
                  reference_cut_function(n, root, c.leaves))
            << n.name() << " root " << n.net_name(root);
        ++checked;
      }
    }
    EXPECT_GT(checked, 0) << n.name();
  }
}

TEST(Cuts, CutFunctionRejectsNonCover) {
  const Netlist n = two_level();
  // {a, b} does not cover y's cone (c, d paths escape).
  EXPECT_THROW(
      cut_function(n, n.find_net("y"), {n.find_net("a"), n.find_net("b")}),
      Error);
}

TEST(Cuts, RejectsBadK) {
  const Netlist n = two_level();
  EXPECT_THROW(CutSet(n, CutParams{1, 12}), Error);
  EXPECT_THROW(CutSet(n, CutParams{7, 12}), Error);
}

TEST(TechMap, SingleLutForSmallCone) {
  const MapResult r = tech_map(two_level(), {CutParams{4, 12}, MapMode::kDepth});
  EXPECT_EQ(r.num_luts, 1);
  EXPECT_EQ(r.depth, 1);
}

struct MapCase {
  int which;   // module selector
  MapMode mode;
};

class MapEquivalence : public ::testing::TestWithParam<MapCase> {};

TEST_P(MapEquivalence, MappedNetlistIsFunctionallyIdentical) {
  const auto [which, mode] = GetParam();
  const Netlist orig = [&] {
    switch (which) {
      case 0:
        return make_adder(4);
      case 1:
        return make_multiplier(3);
      case 2:
        return make_mux(5, 2);
      default:
        return make_multiplier(4);
    }
  }();
  const MapResult r = tech_map(orig, {CutParams{4, 10}, mode});
  EXPECT_NO_THROW(r.lut_netlist.validate());
  ASSERT_EQ(r.lut_netlist.inputs().size(), orig.inputs().size());
  ASSERT_EQ(r.lut_netlist.outputs().size(), orig.outputs().size());
  Rng rng(which * 7 + 1);
  const int bits = static_cast<int>(orig.inputs().size());
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t v =
        rng.next_u64() & (bits == 64 ? ~0ull : (1ull << bits) - 1);
    EXPECT_EQ(eval_all(orig, v), eval_all(r.lut_netlist, v))
        << "module " << which << " inputs " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MapEquivalence,
    ::testing::Values(MapCase{0, MapMode::kDepth}, MapCase{0, MapMode::kArea},
                      MapCase{0, MapMode::kGlitchSa},
                      MapCase{1, MapMode::kDepth}, MapCase{1, MapMode::kArea},
                      MapCase{1, MapMode::kGlitchSa},
                      MapCase{2, MapMode::kDepth}, MapCase{2, MapMode::kGlitchSa},
                      MapCase{3, MapMode::kDepth}, MapCase{3, MapMode::kGlitchSa}));

TEST(TechMap, ReducesGateCount) {
  // Mapping 2-3 input gates into 4-LUTs must not increase node count, and
  // should shrink it substantially for arithmetic blocks.
  const Netlist add = make_adder(8);
  const MapResult r = tech_map(add, {CutParams{4, 10}, MapMode::kArea});
  EXPECT_LT(r.num_luts, add.num_gates());
}

TEST(TechMap, DepthModeIsNoDeeperThanAreaMode) {
  const Netlist m = make_multiplier(4);
  const MapResult depth = tech_map(m, {CutParams{4, 10}, MapMode::kDepth});
  const MapResult area = tech_map(m, {CutParams{4, 10}, MapMode::kArea});
  EXPECT_LE(depth.depth, area.depth);
}

TEST(TechMap, PreservesLatches) {
  Netlist n("seq");
  const NetId a = n.add_input("a");
  const NetId q = n.add_net("q");
  const NetId d = n.add_gate_net("d", {a, q}, TruthTable::xor2());
  n.add_latch(q, d);
  n.add_output(q);
  const MapResult r = tech_map(n);
  EXPECT_EQ(r.lut_netlist.num_latches(), 1);
  EXPECT_NO_THROW(r.lut_netlist.validate());
}

TEST(TechMap, GlitchSaModeNoWorseSaThanDepthMode) {
  // On the glitch-prone multiplier, SA-driven cut selection should not
  // produce a higher estimated SA than pure depth mapping.
  const Netlist m = make_multiplier(4);
  const MapResult by_sa = tech_map(m, {CutParams{4, 10}, MapMode::kGlitchSa});
  const MapResult by_depth = tech_map(m, {CutParams{4, 10}, MapMode::kDepth});
  const double sa_sa = estimate_activity(by_sa.lut_netlist).total_sa;
  const double sa_depth = estimate_activity(by_depth.lut_netlist).total_sa;
  EXPECT_LE(sa_sa, sa_depth * 1.02);
}

TEST(TechMap, StatsMatchNetlist) {
  const MapResult r = tech_map(make_adder(6));
  EXPECT_EQ(r.num_luts, r.lut_netlist.num_gates());
  EXPECT_EQ(r.depth, r.lut_netlist.depth());
}

}  // namespace
}  // namespace hlp
