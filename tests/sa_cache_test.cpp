// Tests for the precalculated SA table (Section 5.2.2): cache/dynamic
// agreement, the bit-exact text dump, golden values of the estimate table,
// and monotonicity of the SA values in mux size (bigger input stages -> more
// estimated switching).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ios>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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

TEST(SaCache, FillMatchesOneKeyAtATime) {
  // A batch fill must leave the table exactly as switching_activity one
  // key at a time does: the same values to the bit, the same size and the
  // same miss count. The list repeats every key, starts with one the table
  // already holds, and holds more missing keys than the machine has
  // threads, so every helper the budget grants gets work.
  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  int m = 1;
  while (static_cast<std::size_t>(kNumOpKinds * m * m) < threads + 4) ++m;
  std::vector<SaCache::Key> grid;
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (int a = 1; a <= m; ++a)
      for (int b = 1; b <= m; ++b)
        grid.push_back({static_cast<OpKind>(kind), a, b});
  std::vector<SaCache::Key> keys = grid;
  keys.insert(keys.end(), grid.rbegin(), grid.rend());

  SaCache batch = small_cache();
  SaCache single = small_cache();
  for (SaCache* c : {&batch, &single})
    c->switching_activity(grid[0].kind, grid[0].n_mux_a, grid[0].n_mux_b);
  batch.fill({});  // an empty list is a no-op
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.misses(), 1u);

  batch.fill(keys);
  for (const SaCache::Key& k : keys)
    single.switching_activity(k.kind, k.n_mux_a, k.n_mux_b);
  EXPECT_EQ(batch.size(), grid.size());
  EXPECT_EQ(batch.size(), single.size());
  EXPECT_EQ(batch.misses(), single.misses());
  const auto misses = batch.misses();
  for (const SaCache::Key& k : grid)
    EXPECT_EQ(batch.switching_activity(k.kind, k.n_mux_a, k.n_mux_b),
              single.switching_activity(k.kind, k.n_mux_a, k.n_mux_b))
        << to_string(k.kind) << " " << k.n_mux_a << " " << k.n_mux_b;
  EXPECT_EQ(batch.misses(), misses) << "fill left a key uncomputed";
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
  // The table key holds 20 bits per mux size: (add, 1, 2^20 + 1) would
  // alias (add, 2, 1). Larger sizes are refused before any datapath is
  // built, with the limit in the message.
  constexpr int kTooBig = 1 << 20;
  for (const auto& [a, b] : {std::pair{1, kTooBig + 1}, std::pair{kTooBig, 1},
                             std::pair{kTooBig, kTooBig}}) {
    EXPECT_THROW(c.switching_activity(OpKind::kAdd, a, b), Error);
    EXPECT_THROW(c.compute_uncached(OpKind::kMult, a, b), Error);
  }
  try {
    c.switching_activity(OpKind::kAdd, 1, kTooBig);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1048575"), std::string::npos)
        << e.what();
  }
  // fill validates the whole list first: valid keys ahead of the bad one
  // never reach the table.
  for (const auto& [a, b] : {std::pair{0, 1}, std::pair{1, 0},
                             std::pair{2, kTooBig}, std::pair{kTooBig, 2}}) {
    try {
      c.fill({{OpKind::kAdd, 1, 1},
              {OpKind::kMult, 2, 2},
              {OpKind::kAdd, a, b}});
      FAIL() << "expected throw for " << a << " " << b;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("1048575"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(SaCache, EstimateTableIsPinned) {
  // Golden values of the width-8 estimate table, in hexfloat and compared
  // with ==. Every HLPower binding, store object and perfbench expected
  // result depends on these bits. A change that moves them on purpose
  // updates the literals and says why in CHANGES.md.
  struct Row {
    OpKind kind;
    int a, b;
    double sa;
  };
  const Row rows[] = {
      {OpKind::kAdd, 1, 1, 0x1.7c9p+3},
      {OpKind::kAdd, 2, 3, 0x1.bee58p+4},
      {OpKind::kAdd, 5, 4, 0x1.b2872ap+5},
      {OpKind::kAdd, 12, 7, 0x1.cd53676ep+6},
      {OpKind::kAdd, 24, 23, 0x1.1cce276f62p+8},
      {OpKind::kMult, 1, 1, 0x1.fbebf14a43eeep+5},
      {OpKind::kMult, 2, 3, 0x1.62c3e57a8b118p+6},
      {OpKind::kMult, 5, 4, 0x1.f9a8e8467080fp+6},
      {OpKind::kMult, 12, 7, 0x1.9c8b6c1001b46p+7},
      {OpKind::kMult, 24, 23, 0x1.8a70ee288dedap+8},
  };
  SaCache c(8);
  for (const Row& r : rows) {
    const double sa = c.switching_activity(r.kind, r.a, r.b);
    EXPECT_EQ(sa, r.sa) << to_string(r.kind) << " " << r.a << " " << r.b
                        << ": got " << std::hexfloat << sa;
  }
}

TEST(SaCache, SimulatedTableIsPinned) {
  // The same keys under the `sim` backend, whose Monte-Carlo runs go
  // through simulate_frames_batched: every engine change must leave these
  // bits where they are.
  struct Row {
    OpKind kind;
    int a, b;
    double sa;
  };
  const Row rows[] = {
      {OpKind::kAdd, 1, 1, 0x1.3c6p+4},
      {OpKind::kAdd, 2, 3, 0x1.83ep+5},
      {OpKind::kAdd, 5, 4, 0x1.74c8p+6},
      {OpKind::kAdd, 12, 7, 0x1.8874p+7},
      {OpKind::kAdd, 24, 23, 0x1.ddacp+8},
      {OpKind::kMult, 1, 1, 0x1.0408p+6},
      {OpKind::kMult, 2, 3, 0x1.9054p+6},
      {OpKind::kMult, 5, 4, 0x1.2a4ep+7},
      {OpKind::kMult, 12, 7, 0x1.140bp+8},
      {OpKind::kMult, 24, 23, 0x1.1f788p+9},
  };
  SaCache c(8, SaMode::kSimulated);
  for (const Row& r : rows) {
    const double sa = c.switching_activity(r.kind, r.a, r.b);
    EXPECT_EQ(sa, r.sa) << to_string(r.kind) << " " << r.a << " " << r.b
                        << ": got " << std::hexfloat << sa;
  }
}

TEST(SaCache, ShardedMissesStayExactUnderConcurrency) {
  // Cold keys from many threads: every insertion lands in some shard
  // exactly once, and the summed miss counter equals the number of unique
  // keys even though no single lock serialises the table. Two inputs: each
  // thread looks every key up one at a time, or each thread fills an
  // overlapping half of the keys in one batch (their helpers share one
  // budget).
  constexpr int kThreads = 8;
  constexpr int kMaxMux = 4;
  std::vector<SaCache::Key> grid;
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (int a = 1; a <= kMaxMux; ++a)
      for (int b = 1; b <= kMaxMux; ++b)
        grid.push_back({static_cast<OpKind>(kind), a, b});
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "fill" : "switching_activity");
    SaCache c = small_cache();
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&c, &grid, batched, t] {
        if (!batched) {
          for (const SaCache::Key& k : grid)
            c.switching_activity(k.kind, k.n_mux_a, k.n_mux_b);
          return;
        }
        std::vector<SaCache::Key> half;
        for (std::size_t i = 0; i < grid.size() / 2; ++i)
          half.push_back(grid[(t * grid.size() / kThreads + i) % grid.size()]);
        c.fill(half);
      });
    }
    for (auto& th : pool) th.join();
    // Exactly one miss per unique key: racing duplicate computations
    // exist, but only the winning insertion of each key is counted.
    EXPECT_EQ(c.size(), grid.size());
    EXPECT_EQ(c.misses(), grid.size());
  }
}

TEST(SaCache, SimulatedModeIsDeterministicAndCached) {
  // Monte-Carlo backend through the bit-parallel batch engine.
  SaCache c(4, SaMode::kSimulated);
  EXPECT_EQ(c.mode(), SaMode::kSimulated);
  const double cached = c.switching_activity(OpKind::kAdd, 2, 2);
  EXPECT_GT(cached, 0.0);
  EXPECT_DOUBLE_EQ(cached, c.compute_uncached(OpKind::kAdd, 2, 2));
  EXPECT_DOUBLE_EQ(cached, c.switching_activity(OpKind::kAdd, 2, 2));
}

TEST(SaCache, SimulatedAndEstimatedAreDistinctBackends) {
  // The mode axis changes entry VALUES (unlike the word width) — that is
  // the whole reason it keys caches, store entries and manifests.
  SaCache est = small_cache();
  SaCache sim(4, SaMode::kSimulated);
  const double e = est.switching_activity(OpKind::kAdd, 2, 2);
  const double s = sim.switching_activity(OpKind::kAdd, 2, 2);
  // Both are positive SA numbers for the same partial datapath; the
  // Monte-Carlo value is an empirical counterpart, not the same formula.
  EXPECT_GT(e, 0.0);
  EXPECT_GT(s, 0.0);
  EXPECT_NE(e, s);
}

}  // namespace
}  // namespace hlp
