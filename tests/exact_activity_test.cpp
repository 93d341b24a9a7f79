// Tests for the exact (per-cone BDD) switching-activity engine.
//
// The headline property is *bit-for-bit* agreement with exhaustive
// enumeration: every value the engine reports is a dyadic rational over
// the cone's (prev, curr) frame pairs, so for any cone with <= 8 support
// sources (16 BDD variables, 4^8 = 65536 pairs) the analytic density and
// the enumerated toggle count divided by the pair count are THE SAME
// double — not merely close. The enumeration oracle is the bit-parallel
// unit-delay simulator itself, so the test also pins the engine's settle
// model (Jacobi trajectory, glitches included) to the simulator's.
//
// On top of that: the Monte-Carlo sampler must converge to the exact
// probabilities as the vector count grows (fixed seeds, Hoeffding-sized
// tolerances — deterministic, no flakes), and a cone that blows the node
// budget must fall back to exactly the shared simulate_activity answer
// while reporting which engine ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cdfg/benchmarks.hpp"
#include "common/error.hpp"
#include "flow/flow_context.hpp"
#include "flow/pipeline.hpp"
#include "mapper/techmap.hpp"
#include "power/activity.hpp"
#include "power/exact_activity.hpp"
#include "rtl/partial_datapath.hpp"
#include "sim/bit_sim_engine.hpp"

namespace hlp {
namespace {

using Sim = BitSimulatorT<std::uint64_t>;

// Mapped LUT netlist of one paper benchmark at width 4 (small widths keep
// the enumeration spaces and the pipeline head cheap), read from the
// context's StageCache entry the pipeline run published. The SA mode is
// pinned to estimate so the binding itself never depends on HLP_SA_MODE —
// this test exercises exact_activity directly, not the cache.
Netlist benchmark_netlist(const std::string& name) {
  flow::ContextOptions opt;
  opt.width = 4;
  opt.sa_mode = SaMode::kEstimated;
  flow::FlowContext ctx(make_paper_benchmark(name), {0, 0}, std::move(opt));
  flow::RunSpec rs;
  rs.num_vectors = 2;  // the simulate/power tail is irrelevant here
  flow::Pipeline::run(ctx, rs);
  const auto entry = ctx.stage_cache().find(
      ctx.binding_hash(rs.binder, rs.map, rs.timing),
      sa_mode_name(SaMode::kEstimated));
  HLP_REQUIRE(entry, "the pipeline run published no StageCache entry");
  return entry->mapped.lut_netlist;
}

// Exhaustively enumerate every (prev, curr) frame pair of one support set
// (all other sources held at 0 in both frames — they cannot influence a
// net whose support is inside `sup`) and count unit-delay transitions of
// the `targets`, 64 pairs per simulator word. Returns, per target, the
// pair of (transition count, settled-change count) over 4^|sup| pairs.
struct EnumCounts {
  std::uint64_t toggles = 0;     // all unit-delay transitions (glitches in)
  std::uint64_t functional = 0;  // pairs whose settled value changed
};

std::map<NetId, EnumCounts> enumerate_support(
    const Netlist& n, const std::vector<NetId>& sup,
    const std::vector<NetId>& targets) {
  const int s = static_cast<int>(sup.size());
  const std::uint64_t pairs = 1ull << (2 * s);
  Sim sim(n);
  sim.settle_zero_delay();  // a defined all-zero baseline state

  std::vector<std::uint64_t> toggles(n.num_nets(), 0);
  std::map<NetId, EnumCounts> out;
  for (const NetId t : targets) out[t] = EnumCounts{};

  std::vector<std::uint64_t> prev_w(s), curr_w(s), settled_prev;
  for (std::uint64_t base = 0; base < pairs; base += 64) {
    const int lanes = static_cast<int>(std::min<std::uint64_t>(64, pairs - base));
    std::fill(prev_w.begin(), prev_w.end(), 0);
    std::fill(curr_w.begin(), curr_w.end(), 0);
    for (int lane = 0; lane < lanes; ++lane) {
      const std::uint64_t pair = base + lane;
      for (int j = 0; j < s; ++j) {
        prev_w[j] |= ((pair >> (2 * j)) & 1ull) << lane;
        curr_w[j] |= ((pair >> (2 * j + 1)) & 1ull) << lane;
      }
    }
    // Adopt the previous frame (no counting), then apply the current frame
    // and count every unit-delay transition on the way to quiescence. Idle
    // lanes past `lanes` hold 0 in both frames and contribute nothing.
    for (int j = 0; j < s; ++j) sim.stage_source(sup[j], prev_w[j]);
    sim.settle(nullptr);
    settled_prev = sim.state();
    for (int j = 0; j < s; ++j) sim.stage_source(sup[j], curr_w[j]);
    sim.settle(&toggles);
    for (auto& [net, counts] : out)
      counts.functional += static_cast<std::uint64_t>(
          __builtin_popcountll(settled_prev[net] ^ sim.word(net)));
  }
  for (auto& [net, counts] : out) counts.toggles = toggles[net];
  return out;
}

std::vector<std::string> paper_design_names() {
  std::vector<std::string> names;
  for (const auto& profile : paper_benchmarks()) names.push_back(profile.name);
  return names;
}

// One case per paper design, so ctest can run the designs side by side
// (CMakeLists.txt registers one entry per design).
class ExactActivityOnDesign : public ::testing::TestWithParam<std::string> {};

TEST_P(ExactActivityOnDesign, MatchesEnumerationBitForBit) {
  const Netlist n = benchmark_netlist(GetParam());
  const ExactActivityResult r = exact_activity(n);

  // Sources carry the closed-form values by construction.
  for (const NetId net : n.inputs()) {
    EXPECT_EQ(r.sa[net], 0.5);
    EXPECT_EQ(r.engine[net], ConeEngine::kExact);
    EXPECT_EQ(r.support[net], std::vector<NetId>{net});
  }

  // Group every exact gate net with <= 8 support sources by its support
  // set; one enumeration per set validates all of its nets.
  std::map<std::vector<NetId>, std::vector<NetId>> by_support;
  int checked = 0;
  for (NetId net = 0; net < n.num_nets(); ++net) {
    if (n.is_comb_source(net)) continue;
    if (r.engine[net] != ConeEngine::kExact) continue;
    if (r.support[net].size() > 8) continue;
    by_support[r.support[net]].push_back(net);
    ++checked;
  }
  ASSERT_GT(checked, 0) << "benchmark has no enumerable cones";

  for (const auto& [sup, targets] : by_support) {
    const auto counts = enumerate_support(n, sup, targets);
    const double pairs = std::pow(4.0, static_cast<double>(sup.size()));
    for (const NetId net : targets) {
      // Bit-for-bit: both sides are the same dyadic rational, so the
      // doubles must be EQUAL, not just near.
      EXPECT_EQ(r.sa[net], counts.at(net).toggles / pairs)
          << "net '" << n.net_name(net) << "' (support " << sup.size()
          << " sources)";
      EXPECT_EQ(r.functional[net], counts.at(net).functional / pairs)
          << "net '" << n.net_name(net) << "' functional";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperDesigns, ExactActivityOnDesign,
    ::testing::ValuesIn(paper_design_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(ExactActivity, KnownClosedFormsOnHandBuiltNetlists) {
  // y = a AND b: settled values are iid Bernoulli(1/4) across the frames,
  // so P[change] = 2 * (1/4) * (3/4) = 3/8, with no glitches at depth 1.
  Netlist n("and2");
  const NetId a = n.add_input("a"), b = n.add_input("b");
  const NetId y = n.add_gate_net("y", {a, b}, TruthTable::and2());
  n.add_output(y);
  const ExactActivityResult r = exact_activity(n);
  EXPECT_EQ(r.sa[y], 0.375);
  EXPECT_EQ(r.functional[y], 0.375);
  EXPECT_FALSE(r.fell_back);
  EXPECT_EQ(r.num_sampled, 0);
  // Totals: two sources at 1/2 plus the gate.
  EXPECT_EQ(r.total_sa, 0.5 + 0.5 + 0.375);
  EXPECT_EQ(r.glitch_sa, 0.0);
}

TEST(ExactActivity, GlitchesCountedOnSkewedChain) {
  // x1 = a ^ b; x2 = x1 ^ c: c arrives at x2 one unit before x1, so x2
  // can transition twice per cycle. Enumeration is tiny (3 sources);
  // assert the exact engine sees glitch activity where the settled-change
  // probability alone would not.
  Netlist n("chain");
  const NetId a = n.add_input("a"), b = n.add_input("b"),
              c = n.add_input("c");
  const NetId x1 = n.add_gate_net("x1", {a, b}, TruthTable::xor2());
  const NetId x2 = n.add_gate_net("x2", {x1, c}, TruthTable::xor2());
  n.add_output(x2);
  const ExactActivityResult r = exact_activity(n);
  EXPECT_GT(r.sa[x2], r.functional[x2]);
  EXPECT_GT(r.glitch_sa, 0.0);
  const auto counts = enumerate_support(n, {a, b, c}, {x2});
  EXPECT_EQ(r.sa[x2], counts.at(x2).toggles / 64.0);
  EXPECT_EQ(r.functional[x2], counts.at(x2).functional / 64.0);
}

TEST(ExactActivity, SimulatorConvergesToExactProbabilities) {
  // Monte-Carlo cross-validation on a real mapped structure (the adder
  // partial datapath the SaCache prices): as the vector count grows the
  // sampled per-net SA must approach the analytic value within a
  // Hoeffding-style envelope. Seeds are fixed, so this is deterministic —
  // the binomial bound just documents WHY the tolerances are safe: a
  // net at level L transitions at most L times per cycle, so the mean of
  // V cycles deviates by more than L * sqrt(ln(2N/d) / (2V)) with
  // probability < d over N nets (d = 1e-6 here), plus an O(L/V) term for
  // the non-uniform first frame.
  const Netlist n =
      tech_map(make_partial_datapath(OpKind::kAdd, 2, 2, 4), MapParams{})
          .lut_netlist;
  // The MSB cone sees all 18 sources and needs more than the default
  // budget under the rank variable order; this test is about convergence,
  // so lift the meter and keep every net analytic.
  ExactActivityOptions unmetered;
  unmetered.node_budget = 1 << 22;
  const ExactActivityResult exact = exact_activity(n, unmetered);
  ASSERT_FALSE(exact.fell_back) << "unmetered adder cones must stay exact";

  // Structural per-net level bounds the per-cycle transition range.
  std::vector<int> level(n.num_nets(), 0);
  for (const int gi : n.topo_gates()) {
    const Gate& g = n.gates()[gi];
    int l = 0;
    for (const NetId in : g.ins) l = std::max(l, level[in]);
    level[g.out] = l + 1;
  }

  double prev_err = 2.0;
  for (const int vectors : {250, 1000, 4000, 16000}) {
    const SimActivityResult sim = simulate_activity(n, vectors, /*seed=*/7);
    EXPECT_EQ(sim.vectors_used, vectors);
    EXPECT_EQ(sim.seed, 7u);
    EXPECT_EQ(sim.engine, SimEngine::kBatched);
    const double slack =
        std::sqrt(std::log(2.0 * n.num_nets() / 1e-6) / (2.0 * vectors));
    double max_err = 0.0;
    for (NetId net = 0; net < n.num_nets(); ++net) {
      const double l = std::max(1, level[net]);
      const double err = std::abs(sim.sa[net] - exact.sa[net]);
      EXPECT_LE(err, l * slack + l / vectors)
          << "net '" << n.net_name(net) << "' at " << vectors << " vectors";
      max_err = std::max(max_err, err);
    }
    // The envelope shrinks as 1/sqrt(V); the worst-case error must follow
    // it down (fixed seeds make this exactly reproducible).
    EXPECT_LT(max_err, prev_err);
    prev_err = max_err;
  }
  EXPECT_LT(prev_err, 0.05);
}

TEST(ExactActivity, BlownBudgetFallsBackToTheSampledAnswer) {
  // A budget of one node cannot even build a single-variable trajectory,
  // so every gate cone blows and the whole netlist (minus the sources,
  // which are free) is answered by the one shared Monte-Carlo run — and
  // the result must SAY so, per net and globally.
  const Netlist n =
      tech_map(make_partial_datapath(OpKind::kMult, 2, 2, 4), MapParams{})
          .lut_netlist;
  ExactActivityOptions opt;
  opt.node_budget = 1;
  opt.fallback_vectors = 64;
  opt.fallback_seed = 5;
  const ExactActivityResult r = exact_activity(n, opt);

  EXPECT_TRUE(r.fell_back);
  const SimActivityResult sim =
      simulate_activity(n, opt.fallback_vectors, opt.fallback_seed);
  int sources = 0;
  double total = 0.0;
  for (NetId net = 0; net < n.num_nets(); ++net) {
    if (n.is_comb_source(net)) {
      ++sources;
      EXPECT_EQ(r.engine[net], ConeEngine::kExact);
      EXPECT_EQ(r.sa[net], 0.5);
    } else {
      EXPECT_EQ(r.engine[net], ConeEngine::kSampled);
      // The Monte-Carlo answer, bit for bit — the fallback must not
      // rescale or re-seed what simulate_activity reports.
      EXPECT_EQ(r.sa[net], sim.sa[net]) << n.net_name(net);
      EXPECT_EQ(r.functional[net], 0.0);
    }
    total += r.sa[net];
  }
  EXPECT_EQ(r.num_exact, sources);
  EXPECT_EQ(r.num_sampled, n.num_nets() - sources);
  EXPECT_EQ(r.total_sa, total);

  // An unmetered budget keeps the same netlist fully exact (4-bit
  // multiplier BDDs are small), and the hybrid total differs from the
  // sampled one only through the sampled nets.
  ExactActivityOptions roomy;
  roomy.node_budget = 1 << 20;
  const ExactActivityResult e = exact_activity(n, roomy);
  EXPECT_FALSE(e.fell_back);
  EXPECT_EQ(e.num_sampled, 0);
  EXPECT_EQ(e.num_exact, n.num_nets());
}

TEST(ExactActivity, RejectsNonPositiveBudget) {
  Netlist n("tiny");
  const NetId a = n.add_input("a");
  n.add_output(n.add_gate_net("y", {a}, TruthTable::buf()));
  ExactActivityOptions opt;
  opt.node_budget = 0;
  try {
    exact_activity(n, opt);
    FAIL() << "expected a budget rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("0"), std::string::npos);
  }
}

}  // namespace
}  // namespace hlp
