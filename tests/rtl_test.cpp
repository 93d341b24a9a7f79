// Tests for datapath elaboration and VHDL emission. The decisive check is
// end-to-end functional correctness: the elaborated, technology-mapped,
// cycle-simulated datapath must compute exactly what interpreting the CDFG
// computes, for random inputs, for both binders.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "cdfg/benchmarks.hpp"
#include "common/error.hpp"
#include "core/hlpower.hpp"
#include "lopass/lopass.hpp"
#include "mapper/techmap.hpp"
#include "rtl/datapath.hpp"
#include "rtl/flow.hpp"
#include "rtl/vhdl.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/vectors.hpp"

namespace hlp {
namespace {

SaCache& shared_cache() {
  static SaCache cache(4);
  return cache;
}

// Reference interpretation of a CDFG over width-w modular arithmetic.
std::vector<std::uint64_t> interpret(const Cdfg& g,
                                     const std::vector<std::uint64_t>& in,
                                     int width) {
  const std::uint64_t mask = (1ull << width) - 1;
  std::vector<std::uint64_t> val(num_values(g));
  for (int i = 0; i < g.num_inputs(); ++i) val[i] = in[i] & mask;
  for (int i = 0; i < g.num_ops(); ++i) {
    const auto& o = g.op(i);
    const std::uint64_t a = val[value_id(g, o.lhs)];
    const std::uint64_t b = val[value_id(g, o.rhs)];
    val[g.num_inputs() + i] =
        (o.kind == OpKind::kAdd ? a + b : a * b) & mask;
  }
  std::vector<std::uint64_t> out(g.num_outputs());
  for (int i = 0; i < g.num_outputs(); ++i)
    out[i] = val[value_id(g, g.output(i).value)];
  return out;
}

// Run one sample through the (possibly mapped) datapath netlist and read
// back every CDFG output from its register.
std::vector<std::uint64_t> run_datapath(const Cdfg& g, const Binding& bind,
                                        const DatapathPlan& plan,
                                        const Netlist& net,
                                        const std::vector<std::uint64_t>& in) {
  UnitDelaySimulator sim(net);
  const auto frames = make_frames(net, plan, {in});
  for (const auto& frame : frames) {
    for (std::size_t j = 0; j < frame.size(); ++j)
      sim.set_input(net.inputs()[j], frame[j] != 0);
    sim.clock_edge();
    sim.settle();
  }
  // One more edge latches the results of the final control step.
  sim.clock_edge();
  sim.settle();
  std::vector<std::uint64_t> out(g.num_outputs());
  for (int i = 0; i < g.num_outputs(); ++i) {
    const int r = bind.regs.reg_of_value[value_id(g, g.output(i).value)];
    std::uint64_t word = 0;
    for (int j = 0; j < plan.width; ++j) {
      const NetId q =
          net.find_net("r" + std::to_string(r) + "_q" + std::to_string(j));
      HLP_CHECK(q != kNoNet, "register net missing");
      if (sim.value(q)) word |= 1ull << j;
    }
    out[i] = word;
  }
  return out;
}

struct E2eCase {
  int seed;
  bool use_hlpower;
  bool map_first;
};

class DatapathE2e : public ::testing::TestWithParam<E2eCase> {};

TEST_P(DatapathE2e, ComputesCdfgSemantics) {
  const auto [seed, use_hlpower, map_first] = GetParam();
  const int width = 4;
  const Cdfg g = make_random_dfg(4, 3, 14, seed);
  const ResourceConstraint rc{2, 2};
  const Schedule s = list_schedule(g, rc);
  const Binding bind = use_hlpower
                           ? bind_hlpower(g, s, rc, shared_cache())
                           : bind_lopass(g, s, rc);
  const Datapath dp = elaborate_datapath(g, s, bind, DatapathParams{width});
  const Netlist* net = &dp.netlist;
  MapResult mapped;
  if (map_first) {
    mapped = tech_map(dp.netlist, {CutParams{4, 10}, MapMode::kDepth});
    net = &mapped.lut_netlist;
  }
  const auto samples = random_words(5 * g.num_inputs(), width, seed + 7);
  for (int t = 0; t < 5; ++t) {
    std::vector<std::uint64_t> in(samples.begin() + t * g.num_inputs(),
                                  samples.begin() + (t + 1) * g.num_inputs());
    EXPECT_EQ(run_datapath(g, bind, dp, *net, in), interpret(g, in, width))
        << "seed " << seed << " hlpower " << use_hlpower << " mapped "
        << map_first;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DatapathE2e,
    ::testing::Values(E2eCase{1, true, false}, E2eCase{1, false, false},
                      E2eCase{1, true, true}, E2eCase{2, false, true},
                      E2eCase{3, true, true}, E2eCase{4, false, false},
                      E2eCase{5, true, true}, E2eCase{6, false, true}));

TEST(Datapath, ControlPlanShape) {
  const Cdfg g = make_random_dfg(4, 2, 10, 2);
  const ResourceConstraint rc{2, 1};
  const Schedule s = list_schedule(g, rc);
  const Binding bind = bind_lopass(g, s, rc);
  const Datapath dp = elaborate_datapath(g, s, bind, DatapathParams{4});
  EXPECT_EQ(dp.num_phases, s.num_steps + 1);
  EXPECT_EQ(dp.data_input_pos.size(), static_cast<std::size_t>(g.num_inputs()));
  for (const auto& cg : dp.controls)
    EXPECT_EQ(cg.select_by_phase.size(), static_cast<std::size_t>(dp.num_phases));
  // One register-mux control group per register.
  EXPECT_GE(dp.controls.size(), static_cast<std::size_t>(bind.regs.num_registers));
}

TEST(Datapath, FrameDimensions) {
  const Cdfg g = make_random_dfg(3, 2, 8, 4);
  const ResourceConstraint rc{2, 1};
  const Schedule s = list_schedule(g, rc);
  const Binding bind = bind_lopass(g, s, rc);
  const Datapath dp = elaborate_datapath(g, s, bind, DatapathParams{4});
  const auto frames = make_frames(dp.netlist, dp, {{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(frames.size(), static_cast<std::size_t>(2 * dp.num_phases));
  for (const auto& f : frames)
    EXPECT_EQ(f.size(), dp.netlist.inputs().size());
}

TEST(Datapath, SampleArityChecked) {
  const Cdfg g = make_random_dfg(3, 2, 8, 4);
  const ResourceConstraint rc{2, 1};
  const Schedule s = list_schedule(g, rc);
  const Binding bind = bind_lopass(g, s, rc);
  const Datapath dp = elaborate_datapath(g, s, bind, DatapathParams{4});
  EXPECT_THROW(make_frames(dp.netlist, dp, {{1, 2}}), Error);
}

TEST(Vhdl, ContainsExpectedStructure) {
  const Cdfg g = make_random_dfg(3, 2, 8, 6);
  const ResourceConstraint rc{2, 1};
  const Schedule s = list_schedule(g, rc);
  const Binding bind = bind_lopass(g, s, rc);
  const std::string v = emit_vhdl(g, s, bind, VhdlParams{8});
  EXPECT_NE(v.find("entity random is"), std::string::npos);
  EXPECT_NE(v.find("architecture rtl of random"), std::string::npos);
  EXPECT_NE(v.find("rising_edge(clk)"), std::string::npos);
  EXPECT_NE(v.find("use ieee.numeric_std.all"), std::string::npos);
  // One signal declaration per register and per FU output.
  for (int r = 0; r < bind.regs.num_registers; ++r)
    EXPECT_NE(v.find("signal r" + std::to_string(r) + " "), std::string::npos);
  for (int f = 0; f < bind.fus.num_fus(); ++f)
    EXPECT_NE(v.find("f" + std::to_string(f) + "_y"), std::string::npos);
  // Multiplier FUs use resize(), adders plain +.
  if (bind.fus.num_fus_of_kind(OpKind::kMult) > 0) {
    EXPECT_NE(v.find("resize("), std::string::npos);
  }
}

TEST(Flow, ProducesConsistentReport) {
  const Cdfg g = make_random_dfg(4, 3, 16, 8);
  const ResourceConstraint rc{2, 2};
  const Schedule s = list_schedule(g, rc);
  const Binding bind = bind_lopass(g, s, rc);
  FlowParams fp;
  fp.width = 4;
  fp.num_vectors = 40;
  const FlowResult r = run_flow(g, s, bind, fp);
  EXPECT_GT(r.report.dynamic_power_mw, 0.0);
  EXPECT_GT(r.clock_period_ns, 0.0);
  EXPECT_EQ(r.report.num_luts, r.mapped.num_luts);
  EXPECT_GT(r.sim.total_transitions, r.sim.functional_transitions);
  EXPECT_EQ(r.sim.num_cycles,
            static_cast<std::uint64_t>(40 * (s.num_steps + 1)));
  EXPECT_GE(r.report.glitch_fraction, 0.0);
  EXPECT_LT(r.report.glitch_fraction, 1.0);
}

TEST(Flow, DeterministicAcrossRuns) {
  const Cdfg g = make_random_dfg(4, 3, 14, 9);
  const ResourceConstraint rc{2, 2};
  const Schedule s = list_schedule(g, rc);
  const Binding bind = bind_lopass(g, s, rc);
  FlowParams fp;
  fp.width = 4;
  fp.num_vectors = 20;
  const FlowResult a = run_flow(g, s, bind, fp);
  const FlowResult b = run_flow(g, s, bind, fp);
  EXPECT_EQ(a.sim.total_transitions, b.sim.total_transitions);
  EXPECT_DOUBLE_EQ(a.report.dynamic_power_mw, b.report.dynamic_power_mw);
}

TEST(Flow, VectorsFromEnvFallback) {
  // Without the env var set, the fallback is returned. The variable is
  // unset for this test only, so an exported HLP_VECTORS neither fails it
  // nor is lost for the tests after it.
  const char* exported = std::getenv("HLP_VECTORS");
  const std::optional<std::string> saved =
      exported ? std::optional<std::string>(exported) : std::nullopt;
  unsetenv("HLP_VECTORS");
  EXPECT_EQ(vectors_from_env(123), 123);
  if (saved) setenv("HLP_VECTORS", saved->c_str(), 1);
}

}  // namespace
}  // namespace hlp
