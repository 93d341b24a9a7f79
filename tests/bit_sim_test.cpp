// Tests for the bit-parallel batched simulation engine: randomized
// netlists x seeds asserting simulate_frames_batched (char frames as
// one-phase samples on the sample-lane engine, whose fix-up loop these
// sequential netlists drive) reproduces the scalar simulate_frames exactly
// — per-net toggles, total and functional transition counts, and the
// glitch split — including non-multiple-of-64 frame counts, and the same
// equivalence for every SIMD word width the build/CPU supports (u64/x2/
// x4/x8 portable limbs plus the AVX-512 backend): one randomized grid,
// every backend, bit for bit. The SimdMode tests pin how `auto` picks a
// word.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mapper/techmap.hpp"
#include "netlist/modules.hpp"
#include "rtl/lane_sim.hpp"
#include "sim/bit_sim.hpp"
#include "sim/schedule_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/vectors.hpp"

namespace hlp {
namespace {

// A random LUT DAG with registers: `num_inputs` PIs, `num_gates` gates of
// random fanin 1..4 and random truth tables over earlier nets, and
// `num_latches` register bits fed from random nets (so each lane's start
// state depends on the lanes before it).
Netlist random_netlist(std::uint64_t seed, int num_inputs = 5,
                       int num_gates = 30, int num_latches = 4) {
  Rng rng(seed);
  Netlist n("rand" + std::to_string(seed));
  std::vector<NetId> pool;
  for (int i = 0; i < num_inputs; ++i)
    pool.push_back(n.add_input("i" + std::to_string(i)));
  // Latch Qs are combinational sources: create them up front so gates can
  // read registered state; D pins are connected at the end.
  std::vector<NetId> qs;
  for (int i = 0; i < num_latches; ++i) {
    qs.push_back(n.add_net("q" + std::to_string(i)));
    pool.push_back(qs.back());
  }
  for (int i = 0; i < num_gates; ++i) {
    const int k = rng.range(1, 4);
    std::vector<NetId> ins(k);
    for (auto& in : ins) in = pool[rng.below(static_cast<int>(pool.size()))];
    const std::uint64_t bits = rng.next_u64();
    const NetId out = n.add_gate_net("g" + std::to_string(i), ins,
                                     TruthTable(k, bits));
    pool.push_back(out);
  }
  for (int i = 0; i < num_latches; ++i) {
    // D from any net except the Q itself (self-loops through a latch are
    // legal but a direct q->q hold never toggles; keep it interesting).
    NetId d = qs[i];
    while (d == qs[i]) d = pool[rng.below(static_cast<int>(pool.size()))];
    n.add_latch(qs[i], d);
  }
  n.add_output(pool.back());
  n.validate();
  return n;
}

void expect_identical(const CycleSimStats& scalar, const CycleSimStats& batched,
                      const std::string& what) {
  EXPECT_EQ(scalar.num_cycles, batched.num_cycles) << what;
  EXPECT_EQ(scalar.toggles, batched.toggles) << what;
  EXPECT_EQ(scalar.total_transitions, batched.total_transitions) << what;
  EXPECT_EQ(scalar.functional_transitions, batched.functional_transitions)
      << what;
  EXPECT_EQ(scalar.glitch_transitions(), batched.glitch_transitions()) << what;
}

TEST(BitSim, MatchesScalarOnRandomNetlists) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Netlist n = random_netlist(seed);
    for (int num_frames : {1, 3, 63, 64, 65, 130}) {
      const auto frames = random_vectors(
          num_frames, static_cast<int>(n.inputs().size()), seed * 1000 + 7);
      expect_identical(
          simulate_frames(n, frames), simulate_frames_batched(n, frames),
          "seed " + std::to_string(seed) + " T=" + std::to_string(num_frames));
    }
  }
}

TEST(BitSim, MatchesScalarOnPureCombinational) {
  // No latches: every lane's end state depends on its own frame only.
  const Netlist n = random_netlist(11, 6, 40, /*num_latches=*/0);
  const auto frames =
      random_vectors(100, static_cast<int>(n.inputs().size()), 13);
  expect_identical(simulate_frames(n, frames), simulate_frames_batched(n, frames),
                   "combinational");
  EXPECT_GT(simulate_frames_batched(n, frames).total_transitions, 0u);
}

TEST(BitSim, MatchesScalarOnMappedMultiplier) {
  // A tech-mapped module netlist: the exact shape the flow pipeline feeds
  // the simulate stage (K-LUTs, deep glitchy logic).
  const MapResult mapped = tech_map(make_multiplier(4));
  const Netlist& n = mapped.lut_netlist;
  auto frames = random_vectors(200, static_cast<int>(n.inputs().size()), 17);
  // Any nonzero byte is a 1, as the scalar oracle reads it: write the ones
  // of every other frame as the byte 2.
  for (std::size_t t = 1; t < frames.size(); t += 2)
    for (char& bit : frames[t]) bit = static_cast<char>(bit * 2);
  const CycleSimStats scalar = simulate_frames(n, frames);
  expect_identical(scalar, simulate_frames_batched(n, frames), "mapped mult");
  EXPECT_GT(scalar.glitch_transitions(), 0u);  // the comparison is non-trivial
}

TEST(BitSim, MatchesScalarOnWideGates) {
  // k=5/6 gates exceed the packed-record operand slots, so they must stay
  // on the CSR Shannon fallback — including wide parity/AND/OR shapes
  // that LOOK like the specialised k<=4 patterns (regression: classifying
  // them used to read past the packed input array).
  Netlist n("wide");
  std::vector<NetId> pis;
  for (int i = 0; i < 6; ++i)
    pis.push_back(n.add_input("i" + std::to_string(i)));
  std::uint64_t parity5 = 0, parity6 = 0;
  for (std::uint32_t m = 0; m < 64; ++m) {
    if (std::popcount(m & 31u) & 1) parity5 |= 1ull << (m & 31u);
    if (std::popcount(m) & 1) parity6 |= 1ull << m;
  }
  const std::vector<NetId> five(pis.begin(), pis.begin() + 5);
  const NetId x5 = n.add_gate_net("xor5", five, TruthTable(5, parity5));
  const NetId x6 = n.add_gate_net("xor6", pis, TruthTable(6, parity6));
  const NetId a5 = n.add_gate_net("and5", five,
                                  TruthTable(5, 1ull << 31));  // AND of 5
  const NetId o6 = n.add_gate_net("or6", pis, TruthTable(6, ~1ull));
  const NetId mix = n.add_gate_net("mix", {x5, x6, a5, o6},
                                   TruthTable(4, 0x96c3));
  n.add_output(mix);
  n.validate();
  const auto frames =
      random_vectors(130, static_cast<int>(n.inputs().size()), 41);
  expect_identical(simulate_frames(n, frames),
                   simulate_frames_batched(n, frames), "wide gates");
}

TEST(BitSim, EmptyFrameListAndArityChecks) {
  const Netlist n = random_netlist(21);
  const CycleSimStats st = simulate_frames_batched(n, {});
  EXPECT_EQ(st.num_cycles, 0u);
  EXPECT_EQ(st.total_transitions, 0u);
  EXPECT_EQ(st.toggles, std::vector<std::uint64_t>(n.num_nets(), 0));
  EXPECT_THROW(simulate_frames_batched(n, {{1, 0}}), Error);
}

// Every concrete SimdMode this build + CPU can execute (kU64 first).
std::vector<SimdMode> supported_modes() {
  std::vector<SimdMode> modes;
  for (const SimdMode mode : all_simd_modes())
    if (mode != SimdMode::kAuto && simd_mode_supported(mode))
      modes.push_back(mode);
  return modes;
}

TEST(BitSimWidths, FramesBatchedMatchesScalarAtEveryWidth) {
  // Frame counts straddling every word boundary: 1 (deep partial word),
  // 130 (partial at >=256 lanes), 513 (partial at 512 lanes, multi-block
  // at every width) — the cross-block latch-state carry must line up at
  // every lane count. kAuto rides along: it resolves to the widest word.
  const Netlist n = random_netlist(93);
  const int num_inputs = static_cast<int>(n.inputs().size());
  std::vector<SimdMode> modes = supported_modes();
  modes.push_back(SimdMode::kAuto);
  for (const int num_frames : {1, 130, 513}) {
    const auto frames = random_vectors(num_frames, num_inputs, 811);
    const CycleSimStats scalar = simulate_frames(n, frames);
    for (const SimdMode mode : modes)
      expect_identical(scalar, simulate_frames_batched(n, frames, mode),
                       std::string(simd_mode_name(mode)) + " T=" +
                           std::to_string(num_frames));
  }
}

// ---- word selection ------------------------------------------------------

TEST(SimdMode, LaneWidths) {
  EXPECT_EQ(simd_lanes(SimdMode::kU64), 64);
  EXPECT_EQ(simd_lanes(SimdMode::kX2), 128);
  EXPECT_EQ(simd_lanes(SimdMode::kX4), 256);
  EXPECT_EQ(simd_lanes(SimdMode::kX8), 512);
  EXPECT_EQ(simd_lanes(SimdMode::kAvx512), 512);
  EXPECT_THROW(simd_lanes(SimdMode::kAuto), Error);  // resolve first
}

TEST(SimdMode, PortableModesAlwaysResolve) {
  for (const SimdMode mode :
       {SimdMode::kU64, SimdMode::kX2, SimdMode::kX4, SimdMode::kX8}) {
    EXPECT_TRUE(simd_mode_supported(mode)) << simd_mode_name(mode);
    EXPECT_EQ(resolve_simd_mode(mode), mode) << simd_mode_name(mode);
  }
}

TEST(SimdMode, DemandFreeAutoPicksTheWidestWord) {
  const SimdMode widest = simd_mode_supported(SimdMode::kAvx512)
                              ? SimdMode::kAvx512
                              : SimdMode::kX8;
  EXPECT_EQ(resolve_simd_mode(SimdMode::kAuto), widest);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto), widest);
}

TEST(SimdMode, UnsupportedAvx512ThrowsNotDowngrade) {
  if (simd_mode_supported(SimdMode::kAvx512)) {
    EXPECT_EQ(resolve_simd_mode(SimdMode::kAvx512), SimdMode::kAvx512);
    return;
  }
  // This CPU/build cannot honour the request: resolve must die loudly
  // (naming the mode), never quietly hand back a narrower backend.
  try {
    resolve_simd_mode(SimdMode::kAvx512);
    FAIL() << "expected throw for avx512";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("avx512"), std::string::npos);
  }
}

TEST(SimdMode, LanesAwareAutoNeverOverallocates) {
  // Auto sizes the word to the batch: narrowest supported backend that
  // covers the lane demand.
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 1), SimdMode::kU64);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 64), SimdMode::kU64);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 65), SimdMode::kX2);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 128), SimdMode::kX2);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 129), SimdMode::kX4);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 256), SimdMode::kX4);
  const SimdMode want512 = simd_mode_supported(SimdMode::kAvx512)
                               ? SimdMode::kAvx512
                               : SimdMode::kX8;
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 257), want512);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 10000), want512);
  // Explicit modes are never narrowed.
  EXPECT_EQ(effective_simd_mode(SimdMode::kX8, 1), SimdMode::kX8);
}

// ---- bit-sliced lane counters ---------------------------------------------

// Random adds spread over two counter sets, then the second merged into the
// first: each set's read-out, and the merged one, must equal a plain
// per-lane count. Dense masks push most counts past 2^(planes-1), so carries
// reach the top plane.
template <typename W>
void expect_counters_match_naive(std::uint64_t seed) {
  using T = WordTraits<W>;
  constexpr int kItems = 7;
  constexpr std::uint64_t kAddsPerItem = 400;  // every count's bound
  LaneCountersT<W> sets[2] = {LaneCountersT<W>(kItems, kAddsPerItem),
                              LaneCountersT<W>(kItems, kAddsPerItem)};
  ASSERT_EQ(sets[0].planes(), 9);
  std::vector<std::uint64_t> naive[2] = {
      std::vector<std::uint64_t>(kItems * T::kLanes, 0),
      std::vector<std::uint64_t>(kItems * T::kLanes, 0)};
  Rng rng(seed);
  for (int item = 0; item < kItems; ++item)
    for (std::uint64_t a = 0; a < kAddsPerItem; ++a) {
      W mask = T::zero();
      for (int l = 0; l < T::kLanes; ++l)
        T::or_lane(mask, l, rng.below(4) != 0 ? 1u : 0u);
      const int set = rng.below(2);
      sets[set].add(item, mask);
      for (int l = 0; l < T::kLanes; ++l)
        naive[set][item * T::kLanes + l] += T::lane(mask, l);
    }
  std::vector<std::uint64_t> got(T::kLanes);
  const auto expect_counts = [&](const LaneCountersT<W>& c,
                                 const std::vector<std::uint64_t>& want,
                                 const char* what) {
    for (int item = 0; item < kItems; ++item) {
      c.counts(item, got.data());
      for (int l = 0; l < T::kLanes; ++l)
        ASSERT_EQ(got[l], want[item * T::kLanes + l])
            << what << " item " << item << " lane " << l;
    }
  };
  expect_counts(sets[0], naive[0], "first set");
  expect_counts(sets[1], naive[1], "second set");
  sets[0].add(sets[1]);
  std::vector<std::uint64_t> sum(naive[0]);
  bool top_plane = false;
  for (std::size_t i = 0; i < sum.size(); ++i) {
    sum[i] += naive[1][i];
    top_plane = top_plane || sum[i] >= 256;
  }
  EXPECT_TRUE(top_plane);
  expect_counts(sets[0], sum, "merged");
}

TEST(LaneCounters, AddMergeAndReadOutMatchNaiveCounts) {
  expect_counters_match_naive<std::uint64_t>(11);
  expect_counters_match_naive<SimdX8>(12);
}

TEST(LaneCounters, PassingTheBoundThrows) {
  LaneCountersT<std::uint64_t> c(2, 5);  // 3 planes: counts up to 7
  ASSERT_EQ(c.planes(), 3);
  for (int i = 0; i < 7; ++i) c.add(1, 0x5);
  c.add(0, ~0ull);
  EXPECT_THROW(c.add(1, 0x4), Error);

  // A merge whose sum needs a fourth plane throws too.
  LaneCountersT<std::uint64_t> a(1, 5), b(1, 5);
  for (int i = 0; i < 4; ++i) {
    a.add(0, 0x1);
    b.add(0, 0x1);
  }
  EXPECT_THROW(a.add(b), Error);
  EXPECT_THROW(a.add(LaneCountersT<std::uint64_t>(2, 5)), Error);

  // Planes are sized from the bound, at most 64.
  EXPECT_EQ(LaneCountersT<std::uint64_t>(1, 1).planes(), 1);
  EXPECT_EQ(LaneCountersT<std::uint64_t>(1, 4).planes(), 3);
  EXPECT_EQ(LaneCountersT<std::uint64_t>(1, ~0ull).planes(), 64);
}

// ---- settle step counts --------------------------------------------------

TEST(BitSimSteps, SettleStepsAreTheMaxOverLanesOfScalarSteps) {
  // Both settle loops count one pass per unit step while anything changed,
  // so a word settle takes as many steps as its slowest lane: the max over
  // lanes of UnitDelaySimulator::settle on the same per-lane stimulus.
  const Netlist n = random_netlist(97, 5, 40, 0);
  const auto& pis = n.inputs();
  BitSimulator sim(n);
  sim.settle_zero_delay();
  std::vector<UnitDelaySimulator> lanes;
  lanes.reserve(BitSimulator::kLanes);
  for (int l = 0; l < BitSimulator::kLanes; ++l) lanes.emplace_back(n);
  Rng rng(271828);
  bool lanes_differ = false;
  for (int edge = 0; edge < 32; ++edge) {
    for (const NetId pi : pis) {
      const std::uint64_t w = rng.next_u64();
      sim.stage_source(pi, w);
      for (int l = 0; l < BitSimulator::kLanes; ++l)
        lanes[l].set_input(pi, (w >> l) & 1);
    }
    int slowest = 0;
    for (UnitDelaySimulator& lane : lanes) {
      const int steps = lane.settle();
      lanes_differ = lanes_differ || (slowest > 0 && steps != slowest);
      slowest = std::max(slowest, steps);
    }
    EXPECT_GT(slowest, 0) << "edge " << edge;
    const int steps = sim.settle(nullptr);
    EXPECT_EQ(steps, slowest) << "edge " << edge;
    EXPECT_LE(steps, sim.num_levels()) << "edge " << edge;
  }
  // The max is only a real check if lanes disagree somewhere.
  EXPECT_TRUE(lanes_differ);

  // Re-staging the words the sources already hold is a zero-step no-op:
  // no toggles, state untouched.
  const std::vector<std::uint64_t> before = sim.state();
  for (const NetId pi : pis) sim.stage_source(pi, sim.word(pi));
  std::vector<std::uint64_t> toggles(n.num_nets(), 0);
  EXPECT_EQ(sim.settle(&toggles), 0);
  EXPECT_EQ(toggles, std::vector<std::uint64_t>(n.num_nets(), 0));
  EXPECT_EQ(sim.state(), before);
}

TEST(BitSimulator, WordEvalMatchesTruthTable) {
  // Direct engine check: an xor3 gate evaluated on word lanes agrees with
  // per-minterm truth-table evaluation.
  Netlist n("xor3");
  const NetId a = n.add_input("a"), b = n.add_input("b"), c = n.add_input("c");
  const NetId y = n.add_gate_net("y", {a, b, c}, TruthTable::xor3());
  n.add_output(y);
  BitSimulator sim(n);
  // Lane l carries minterm l & 7.
  std::uint64_t wa = 0, wb = 0, wc = 0;
  for (int l = 0; l < 64; ++l) {
    if (l & 1) wa |= 1ull << l;
    if (l & 2) wb |= 1ull << l;
    if (l & 4) wc |= 1ull << l;
  }
  sim.stage_source(a, wa);
  sim.stage_source(b, wb);
  sim.stage_source(c, wc);
  sim.settle_zero_delay();
  for (int l = 0; l < 64; ++l)
    EXPECT_EQ((sim.word(y) >> l) & 1,
              TruthTable::xor3().eval(l & 7) ? 1u : 0u)
        << "lane " << l;
}

}  // namespace
}  // namespace hlp
