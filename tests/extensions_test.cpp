// Tests for the library extensions beyond the paper's core algorithm:
// force-directed scheduling and post-binding port refinement.
#include <gtest/gtest.h>

#include "binding/datapath_stats.hpp"
#include "binding/register_binder.hpp"
#include "cdfg/benchmarks.hpp"
#include "common/error.hpp"
#include "core/hlpower.hpp"
#include "core/port_refine.hpp"
#include "lopass/lopass.hpp"
#include "sched/asap_alap.hpp"
#include "sched/force_directed.hpp"
#include "sched/list_scheduler.hpp"

namespace hlp {
namespace {

SaCache& shared_cache() {
  static SaCache cache(4);
  return cache;
}

class FdsRandom : public ::testing::TestWithParam<int> {};

TEST_P(FdsRandom, ProducesValidSchedules) {
  const Cdfg g = make_random_dfg(5, 3, 30, GetParam());
  const int latency = g.depth() + 3;
  const Schedule s = force_directed_schedule(g, latency);
  EXPECT_NO_THROW(s.validate(g));
  EXPECT_EQ(s.num_steps, latency);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdsRandom, ::testing::Range(0, 15));

TEST(ForceDirected, RejectsLatencyBelowDepth) {
  const Cdfg g = make_random_dfg(4, 2, 12, 1);
  EXPECT_THROW(force_directed_schedule(g, g.depth() - 1), Error);
}

TEST(ForceDirected, SmoothsDensityVersusAsapExtremes) {
  // With slack, FDS should not exceed the density of the (greedy,
  // latency-oriented) ASAP schedule; usually it is strictly lower.
  int fds_wins = 0, trials = 0;
  for (int seed = 0; seed < 10; ++seed) {
    const Cdfg g = make_random_dfg(6, 4, 36, 200 + seed);
    const int latency = g.depth() + 4;
    const Schedule fds = force_directed_schedule(g, latency);
    const Schedule asap = asap_schedule(g);
    for (int k = 0; k < kNumOpKinds; ++k) {
      const OpKind kind = static_cast<OpKind>(k);
      if (g.num_ops_of_kind(kind) == 0) continue;
      ++trials;
      if (fds.max_density(g, kind) <= asap.max_density(g, kind)) ++fds_wins;
    }
  }
  EXPECT_GE(fds_wins * 10, trials * 8) << fds_wins << "/" << trials;
}

TEST(ForceDirected, DeterministicForSeedAndLatency) {
  const Cdfg g = make_random_dfg(5, 3, 25, 7);
  const Schedule a = force_directed_schedule(g, g.depth() + 2);
  const Schedule b = force_directed_schedule(g, g.depth() + 2);
  EXPECT_EQ(a.cstep_of_op, b.cstep_of_op);
}

TEST(PortRefine, NeverIncreasesCost) {
  for (int seed = 0; seed < 6; ++seed) {
    const Cdfg g = make_random_dfg(5, 3, 28, 50 + seed);
    const ResourceConstraint rc{2, 2};
    const Schedule s = list_schedule(g, rc);
    const RegisterBinding regs = bind_registers(g, s, seed);
    const FuBinding fus = bind_fus_lopass(g, s, regs, rc, LopassParams{4});
    const PortRefineResult r = refine_ports(g, regs, fus, shared_cache());
    EXPECT_LE(r.cost_after, r.cost_before + 1e-9) << "seed " << seed;
    EXPECT_NO_THROW(r.fus.validate(g, s, rc));
    // FU assignment unchanged; only orientations may differ.
    EXPECT_EQ(r.fus.fu_of_op, fus.fu_of_op);
  }
}

TEST(PortRefine, FixedPointIsStable) {
  const Cdfg g = make_random_dfg(5, 3, 26, 77);
  const ResourceConstraint rc{2, 2};
  const Schedule s = list_schedule(g, rc);
  const RegisterBinding regs = bind_registers(g, s);
  const FuBinding fus = bind_fus_lopass(g, s, regs, rc, LopassParams{4});
  const PortRefineResult r1 = refine_ports(g, regs, fus, shared_cache());
  const PortRefineResult r2 = refine_ports(g, regs, r1.fus, shared_cache());
  EXPECT_EQ(r2.flips_applied, 0);
  EXPECT_NEAR(r2.cost_after, r1.cost_after, 1e-12);
}

TEST(PortRefine, PreservesDatapathSemantics) {
  // Flips permute commutative operands; mux stats may change but the set of
  // registers read by each FU (over both ports) is preserved.
  const Cdfg g = make_random_dfg(4, 2, 16, 9);
  const ResourceConstraint rc{2, 2};
  const Schedule s = list_schedule(g, rc);
  const RegisterBinding regs = bind_registers(g, s);
  const FuBinding fus = bind_fus_lopass(g, s, regs, rc, LopassParams{4});
  const PortRefineResult r = refine_ports(g, regs, fus, shared_cache());
  for (int op = 0; op < g.num_ops(); ++op) {
    std::pair<int, int> before{regs.port_a_reg(g, op), regs.port_b_reg(g, op)};
    std::pair<int, int> after{r.fus.port_a_reg(g, regs, op),
                              r.fus.port_b_reg(g, regs, op)};
    EXPECT_TRUE(after == before ||
                (after.first == before.second && after.second == before.first));
  }
}

}  // namespace
}  // namespace hlp
