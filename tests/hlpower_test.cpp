// Tests for the HLPower binder (Algorithm 1) and Eq. 4 edge weights,
// including a property-test of Theorem 1 (minimum resource constraints are
// always reachable for single-cycle libraries).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

#include "binding/datapath_stats.hpp"
#include "binding/register_binder.hpp"
#include "cdfg/benchmarks.hpp"
#include "common/error.hpp"
#include "common/text_codec.hpp"
#include "core/edge_weight.hpp"
#include "core/hlpower.hpp"
#include "flow/flow_context.hpp"
#include "sched/list_scheduler.hpp"

namespace hlp {
namespace {

SaCache& shared_cache() {
  static SaCache cache(4);  // narrow width keeps tests quick
  return cache;
}

TEST(EdgeWeight, AlphaOneIsPureSa) {
  EdgeWeightParams p;
  p.alpha = 1.0;
  const auto w = edge_weight(OpKind::kAdd, 2, 2, shared_cache(), p);
  EXPECT_NEAR(w.weight, 1.0 / w.sa, 1e-12);
}

TEST(EdgeWeight, AlphaZeroIsPureMuxDiff) {
  EdgeWeightParams p;
  p.alpha = 0.0;
  const auto w = edge_weight(OpKind::kAdd, 4, 1, shared_cache(), p);
  EXPECT_EQ(w.mux_diff, 3);
  EXPECT_NEAR(w.weight, 1.0 / ((3 + 1) * p.beta_add), 1e-12);
}

TEST(EdgeWeight, BalancedBeatsUnbalancedAtAlphaHalf) {
  EdgeWeightParams p;  // alpha = 0.5
  const auto balanced = edge_weight(OpKind::kAdd, 3, 3, shared_cache(), p);
  const auto skewed = edge_weight(OpKind::kAdd, 5, 1, shared_cache(), p);
  EXPECT_GT(balanced.weight, skewed.weight);
}

TEST(EdgeWeight, BetaSelectsPerKind) {
  EdgeWeightParams p;
  p.alpha = 0.0;
  const auto add = edge_weight(OpKind::kAdd, 2, 2, shared_cache(), p);
  const auto mult = edge_weight(OpKind::kMult, 2, 2, shared_cache(), p);
  EXPECT_NEAR(add.weight / mult.weight, p.beta_mult / p.beta_add, 1e-9);
}

TEST(EdgeWeight, RejectsBadAlpha) {
  EdgeWeightParams p;
  p.alpha = 1.5;
  EXPECT_THROW(edge_weight(OpKind::kAdd, 1, 1, shared_cache(), p), Error);
}

TEST(Hlpower, BindsTinyToMinimum) {
  Cdfg g("tiny");
  const int a = g.add_input("a"), b = g.add_input("b"), c = g.add_input("c");
  const int s1 = g.add_op("s1", OpKind::kAdd, ValueRef::input(a), ValueRef::input(b));
  const int s2 = g.add_op("s2", OpKind::kAdd, ValueRef::input(a), ValueRef::input(c));
  const int m = g.add_op("m", OpKind::kMult, ValueRef::op(s1), ValueRef::op(s2));
  g.add_output("o", ValueRef::op(m));
  const Schedule s = list_schedule(g, {1, 1});
  const ResourceConstraint rc{1, 1};
  const Binding bind = bind_hlpower(g, s, rc, shared_cache());
  EXPECT_NO_THROW(bind.fus.validate(g, s, rc));
  EXPECT_EQ(bind.fus.num_fus_of_kind(OpKind::kAdd), 1);
  EXPECT_EQ(bind.fus.num_fus_of_kind(OpKind::kMult), 1);
  // Both adds on the same FU despite different steps.
  EXPECT_EQ(bind.fus.fu_of_op[s1], bind.fus.fu_of_op[s2]);
  (void)m;
}

TEST(Hlpower, InfeasibleConstraintThrows) {
  const Cdfg g = make_random_dfg(4, 3, 20, 3);
  const Schedule s = list_schedule(g, {3, 3});
  if (s.max_density(g, OpKind::kAdd) > 1) {
    EXPECT_THROW(bind_hlpower(g, s, {1, 3}, shared_cache()), Error);
  }
}

// Theorem 1 as a property test: with constraint = per-type max density, the
// iterative bipartite procedure always terminates with that allocation.
class Theorem1 : public ::testing::TestWithParam<int> {};

TEST_P(Theorem1, MinimumAllocationAlwaysMet) {
  const Cdfg g = make_random_dfg(5, 4, 24 + GetParam() % 7, GetParam());
  const Schedule s = list_schedule(g, {2, 2});
  const ResourceConstraint min_rc{s.max_density(g, OpKind::kAdd),
                                  s.max_density(g, OpKind::kMult)};
  const RegisterBinding rb = bind_registers(g, s, GetParam());
  const HlpowerResult r =
      bind_fus_hlpower(g, s, rb, min_rc, shared_cache());
  EXPECT_NO_THROW(r.fus.validate(g, s, min_rc));
  EXPECT_EQ(r.fus.num_fus_of_kind(OpKind::kAdd), min_rc.adders);
  EXPECT_EQ(r.fus.num_fus_of_kind(OpKind::kMult), min_rc.multipliers);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1, ::testing::Range(0, 25));

TEST(Hlpower, StopsExactlyAtLooserConstraint) {
  // With a constraint above the minimum the binder must stop at the
  // constraint, not merge all the way down.
  const Cdfg g = make_random_dfg(5, 4, 30, 11);
  const Schedule s = list_schedule(g, {2, 2});
  const int min_add = s.max_density(g, OpKind::kAdd);
  const ResourceConstraint rc{min_add + 2, s.max_density(g, OpKind::kMult) + 1};
  const RegisterBinding rb = bind_registers(g, s, 11);
  const HlpowerResult r = bind_fus_hlpower(g, s, rb, rc, shared_cache());
  EXPECT_EQ(r.fus.num_fus_of_kind(OpKind::kAdd), rc.adders);
  EXPECT_EQ(r.fus.num_fus_of_kind(OpKind::kMult), rc.multipliers);
}

TEST(Hlpower, DeterministicGivenSeed) {
  const Cdfg g = make_random_dfg(5, 4, 28, 13);
  const Schedule s = list_schedule(g, {2, 2});
  const ResourceConstraint rc{2, 2};
  const Binding a = bind_hlpower(g, s, rc, shared_cache(), {}, 5);
  const Binding b = bind_hlpower(g, s, rc, shared_cache(), {}, 5);
  EXPECT_EQ(a.fus.fu_of_op, b.fus.fu_of_op);
}

TEST(Hlpower, IterationAndEdgeCountsReported) {
  const Cdfg g = make_random_dfg(5, 3, 26, 17);
  const Schedule s = list_schedule(g, {2, 2});
  const ResourceConstraint rc{s.max_density(g, OpKind::kAdd),
                              s.max_density(g, OpKind::kMult)};
  const RegisterBinding rb = bind_registers(g, s);
  const HlpowerResult r = bind_fus_hlpower(g, s, rb, rc, shared_cache());
  EXPECT_GT(r.iterations, 0);
  EXPECT_GT(r.edges_evaluated, 0);
}

// The paper's central mechanism: alpha=0.5 yields better-balanced muxes
// (lower mean muxDiff) than alpha=1 (no balancing term) on average.
TEST(Hlpower, AlphaHalfBalancesBetterThanAlphaOneOnAverage) {
  double diff_sum_a1 = 0.0, diff_sum_a05 = 0.0;
  for (int seed = 0; seed < 8; ++seed) {
    const Cdfg g = make_random_dfg(6, 4, 36, 100 + seed);
    const Schedule s = list_schedule(g, {2, 2});
    const ResourceConstraint rc{s.max_density(g, OpKind::kAdd),
                                s.max_density(g, OpKind::kMult)};
    const RegisterBinding rb = bind_registers(g, s, seed);
    HlpowerParams p1;
    p1.weight.alpha = 1.0;
    HlpowerParams p05;
    p05.weight.alpha = 0.5;
    const auto r1 = bind_fus_hlpower(g, s, rb, rc, shared_cache(), p1);
    const auto r05 = bind_fus_hlpower(g, s, rb, rc, shared_cache(), p05);
    diff_sum_a1 += compute_datapath_stats(g, rb, r1.fus).muxdiff_mean;
    diff_sum_a05 += compute_datapath_stats(g, rb, r05.fus).muxdiff_mean;
  }
  EXPECT_LE(diff_sum_a05, diff_sum_a1 + 1e-9);
}

// One FNV-1a digest over a binding's FU ids and operand flips, in op order.
std::uint64_t binding_digest(const FuBinding& fus) {
  std::string text;
  for (std::size_t op = 0; op < fus.fu_of_op.size(); ++op)
    text += std::to_string(fus.fu_of_op[op]) + ":" +
            std::to_string(static_cast<int>(fus.flipped[op])) + " ";
  return fnv1a64(text);
}

TEST(Hlpower, PaperDesignBindingsArePinned) {
  // The seven paper designs at width 4, schedule-minimum allocation,
  // alpha = 0.5, one estimate-mode cache shared in paper_benchmarks()
  // order. A change to how the binder reads the SA table (batching,
  // ordering, threads) must leave every binding, every iteration and edge
  // count and the cache's miss count where they are.
  struct Row {
    const char* name;
    std::uint64_t digest;
    int iterations;
    int edges;
  };
  const Row rows[] = {
      {"chem", 0xee58a9ff0b74dde5ull, 175, 59870},
      {"dir", 0xb794d0013601640eull, 83, 11004},
      {"honda", 0xaeb88ec76befb938ull, 51, 4632},
      {"mcm", 0xc62b88d6527262e6ull, 63, 4902},
      {"pr", 0xe6a8f1e34abc9a8eull, 25, 890},
      {"steam", 0x693c6d6004240292ull, 114, 24030},
      {"wang", 0x5b7ece06706d8edeull, 25, 1112},
  };
  const auto& profiles = paper_benchmarks();
  ASSERT_EQ(profiles.size(), std::size(rows));
  SaCache cache(4, SaMode::kEstimated);
  HlpowerParams params;
  params.weight.alpha = 0.5;
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const Row& row = rows[d];
    ASSERT_EQ(profiles[d].name, row.name);
    flow::ContextOptions opt;
    opt.width = 4;
    opt.sa_mode = SaMode::kEstimated;
    flow::FlowContext ctx(make_paper_benchmark(row.name), {0, 0},
                          std::move(opt), &cache);
    const HlpowerResult r = bind_fus_hlpower(
        ctx.cdfg(), ctx.schedule(), ctx.regs(), ctx.rc(), cache, params);
    EXPECT_EQ(binding_digest(r.fus), row.digest)
        << row.name << ": got 0x" << std::hex << binding_digest(r.fus);
    EXPECT_EQ(r.iterations, row.iterations) << row.name;
    EXPECT_EQ(r.edges_evaluated, row.edges) << row.name;
  }
  EXPECT_EQ(cache.size(), 455u);
  EXPECT_EQ(cache.misses(), 455u);
}

}  // namespace
}  // namespace hlp
