// Tests for the precalculated SA table (Section 5.2.2): cache/dynamic
// agreement, the bit-exact text dump, and monotonicity of the SA values in
// mux size (bigger input stages -> more estimated switching).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "power/sa_cache.hpp"

namespace hlp {
namespace {

// Small width keeps partial-datapath mapping fast in unit tests.
SaCache small_cache() { return SaCache(4); }

TEST(SaCache, CachedEqualsUncached) {
  // "This method provided us with the same results as running the
  // algorithm with dynamic SA estimation" — exact agreement required.
  SaCache c = small_cache();
  const double cached = c.switching_activity(OpKind::kAdd, 2, 3);
  const double dynamic = c.compute_uncached(OpKind::kAdd, 2, 3);
  EXPECT_DOUBLE_EQ(cached, dynamic);
}

TEST(SaCache, MemoisesLookups) {
  SaCache c = small_cache();
  c.switching_activity(OpKind::kAdd, 2, 2);
  const auto misses_before = c.misses();
  c.switching_activity(OpKind::kAdd, 2, 2);
  EXPECT_EQ(c.misses(), misses_before);
  c.switching_activity(OpKind::kAdd, 2, 3);
  EXPECT_EQ(c.misses(), misses_before + 1);
}

TEST(SaCache, PositiveAndFinite) {
  SaCache c = small_cache();
  for (int a = 1; a <= 3; ++a)
    for (int b = 1; b <= 3; ++b) {
      const double sa = c.switching_activity(OpKind::kMult, a, b);
      EXPECT_GT(sa, 0.0);
      EXPECT_LT(sa, 1e6);
    }
}

TEST(SaCache, MultExceedsAdd) {
  SaCache c = small_cache();
  EXPECT_GT(c.switching_activity(OpKind::kMult, 2, 2),
            c.switching_activity(OpKind::kAdd, 2, 2));
}

TEST(SaCache, GrowsWithMuxSize) {
  // More mux arms -> more logic -> more estimated SA. This is what makes
  // Eq. 4's 1/SA term area-aware.
  SaCache c = small_cache();
  const double s11 = c.switching_activity(OpKind::kAdd, 1, 1);
  const double s22 = c.switching_activity(OpKind::kAdd, 2, 2);
  const double s44 = c.switching_activity(OpKind::kAdd, 4, 4);
  EXPECT_LT(s11, s22);
  EXPECT_LT(s22, s44);
}

TEST(SaCache, PrecomputeFillsAllCombinations) {
  SaCache c = small_cache();
  c.precompute(2, 2);
  EXPECT_EQ(c.size(), 2u * 2u * 2u);  // kinds * a-sizes * b-sizes
  const auto misses = c.misses();
  c.switching_activity(OpKind::kAdd, 2, 2);
  c.switching_activity(OpKind::kMult, 1, 2);
  EXPECT_EQ(c.misses(), misses);
}

TEST(SaCache, SaveDumpsEveryEntryBitExactly) {
  SaCache c = small_cache();
  c.precompute(2, 2);
  std::ostringstream text;
  c.save(text);

  std::istringstream in(text.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "# SaCache width=4 k=4 mode=estimate");
  // One line per entry, in key order: kind, then muxA, then muxB.
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (int a = 1; a <= 2; ++a)
      for (int b = 1; b <= 2; ++b) {
        const OpKind k = static_cast<OpKind>(kind);
        ASSERT_TRUE(std::getline(in, line));
        std::istringstream fields(line);
        std::string name, sa_text;
        int got_a = 0, got_b = 0;
        fields >> name >> got_a >> got_b >> sa_text;
        EXPECT_EQ(name, to_string(k)) << line;
        EXPECT_EQ(got_a, a) << line;
        EXPECT_EQ(got_b, b) << line;
        // 17 significant digits: the value parses back to the same bits.
        EXPECT_EQ(std::strtod(sa_text.c_str(), nullptr),
                  c.switching_activity(k, a, b))
            << line;
      }
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "# end 8");
  EXPECT_FALSE(std::getline(in, line)) << "trailing line '" << line << "'";
}

TEST(SaCache, RejectsBadArguments) {
  SaCache c = small_cache();
  EXPECT_THROW(c.switching_activity(OpKind::kAdd, 0, 1), Error);
  EXPECT_THROW(SaCache(0), Error);
  EXPECT_THROW(SaCache(4, MapParams{}, SaMode::kEstimated, 0), Error);
}

TEST(SaCache, ShardedMissesStayExactUnderConcurrency) {
  // Distinct cold keys from many threads: every insertion lands in some
  // shard exactly once, and the summed miss counter equals the number of
  // unique keys even though no single lock serialises the table.
  SaCache c = small_cache();
  constexpr int kThreads = 8;
  constexpr int kMaxMux = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (int kind = 0; kind < kNumOpKinds; ++kind)
        for (int a = 1; a <= kMaxMux; ++a)
          for (int b = 1; b <= kMaxMux; ++b)
            c.switching_activity(static_cast<OpKind>(kind), a, b);
    });
  }
  for (auto& th : pool) th.join();
  const auto unique_keys =
      static_cast<std::size_t>(kNumOpKinds * kMaxMux * kMaxMux);
  EXPECT_EQ(c.size(), unique_keys);
  // Exactly one miss per unique key: racing duplicate computations exist,
  // but only the winning insertion of each key is counted.
  EXPECT_EQ(c.misses(), unique_keys);
}

TEST(SaCache, SimulatedModeIsDeterministicAndCached) {
  // Monte-Carlo backend through the bit-parallel batch engine.
  SaCache c(4, MapParams{}, SaMode::kSimulated, /*sim_vectors=*/64);
  EXPECT_EQ(c.mode(), SaMode::kSimulated);
  const double cached = c.switching_activity(OpKind::kAdd, 2, 2);
  EXPECT_GT(cached, 0.0);
  EXPECT_DOUBLE_EQ(cached, c.compute_uncached(OpKind::kAdd, 2, 2));
  EXPECT_DOUBLE_EQ(cached, c.switching_activity(OpKind::kAdd, 2, 2));
}

TEST(SaCache, SimulatedAndEstimatedAreDistinctBackends) {
  SaCache est = small_cache();
  SaCache sim(4, MapParams{}, SaMode::kSimulated, /*sim_vectors=*/64);
  const double e = est.switching_activity(OpKind::kAdd, 2, 2);
  const double s = sim.switching_activity(OpKind::kAdd, 2, 2);
  // Both are positive SA numbers for the same partial datapath; the
  // Monte-Carlo value is an empirical counterpart, not the same formula.
  EXPECT_GT(e, 0.0);
  EXPECT_GT(s, 0.0);
}

TEST(SaCacheExact, ExactModeIsDeterministicAndCached) {
  // BDD-analytic backend (hybridised with sampling past HLP_EXACT_BUDGET).
  SaCache c(4, MapParams{}, SaMode::kExact, /*sim_vectors=*/64);
  EXPECT_EQ(c.mode(), SaMode::kExact);
  const double cached = c.switching_activity(OpKind::kAdd, 1, 1);
  EXPECT_GT(cached, 0.0);
  EXPECT_DOUBLE_EQ(cached, c.compute_uncached(OpKind::kAdd, 1, 1));
  EXPECT_DOUBLE_EQ(cached, c.switching_activity(OpKind::kAdd, 1, 1));
}

TEST(SaCacheExact, ThreeBackendsDisagreeOnValues) {
  // The mode axis changes entry VALUES (unlike the word width) — that is
  // the whole reason it keys caches, store entries and manifests. The
  // analytic estimate, the sampler and the exact engine price the same
  // partial datapath differently.
  SaCache est(4);
  SaCache sim(4, MapParams{}, SaMode::kSimulated, /*sim_vectors=*/64);
  SaCache exact(4, MapParams{}, SaMode::kExact, /*sim_vectors=*/64);
  const double e = est.switching_activity(OpKind::kAdd, 1, 1);
  const double s = sim.switching_activity(OpKind::kAdd, 1, 1);
  const double x = exact.switching_activity(OpKind::kAdd, 1, 1);
  EXPECT_GT(e, 0.0);
  EXPECT_GT(s, 0.0);
  EXPECT_GT(x, 0.0);
  EXPECT_NE(e, x);
}

}  // namespace
}  // namespace hlp
