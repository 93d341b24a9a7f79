// Precalculated switching-activity table (Section 5.2.2).
//
// "As dynamic calculation of the switching activities for each edge during
// the binding iterations can be time consuming, in our experiments we
// precalculate the switching activities for all combinations of
// multiplexers and functional units... stored in a text file. A hash table
// is then generated when HLPower is initially run."
//
// SaCache computes, for a key (op kind, muxA size, muxB size), the SA of
// the 4-LUT-mapped partial datapath, memoises it in memory and can dump
// the table as text. The table is not persisted: a warm rerun is served by
// the artifact store (store/artifact_store.hpp), which caches the whole
// bind-fus..time span that reads it. Three SA backends are supported
// (power/sa_mode.hpp): the paper's analytic glitch-aware estimator
// (kEstimated, the default), Monte-Carlo unit-delay simulation through the
// bit-parallel batch engine (kSimulated), and analytic per-cone BDD
// densities with a budgeted Monte-Carlo fallback (kExact,
// power/exact_activity.hpp). The backends produce different values, so a
// cache is fixed to one mode and the dump's header names it.
//
// The memo table is sharded by key hash (kNumShards independent mutex+map
// shards) so large ExperimentRunner fleets hammering the hot lookup path do
// not contend on a single lock. Miss counts stay exact via per-shard
// counters summed on read.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cdfg/cdfg.hpp"
#include "mapper/techmap.hpp"
#include "power/sa_mode.hpp"

namespace hlp {

class SaCache {
 public:
  /// Number of independent mutex+map shards of the memo table.
  static constexpr int kNumShards = 16;

  /// `width`: datapath bit width; `map_params`: mapper configuration used
  /// for every partial datapath; `mode` selects the SA backend
  /// (kSimulated uses `sim_vectors` random frames from `sim_seed` through
  /// the batched unit-delay engine; kExact resolves its per-cone node
  /// budget from HLP_EXACT_BUDGET here, once, and reuses the same
  /// vectors/seed for its Monte-Carlo fallback on blown cones). The mode
  /// is fixed for the cache's life — callers resolving it from the
  /// environment should go through effective_sa_mode.
  explicit SaCache(int width = 8, MapParams map_params = {},
                   SaMode mode = SaMode::kEstimated, int sim_vectors = 256,
                   std::uint64_t sim_seed = 1);

  /// Glitch-aware SA for (kind, nA-input muxA, nB-input muxB); computed on
  /// demand and memoised. 1 <= nA/nB <= 2^20 - 1 (1 = direct connection;
  /// the table key holds 20 bits per size).
  ///
  /// Safe to call concurrently: each key maps to one of kNumShards
  /// mutex-guarded table shards, and the (deterministic) SA computation
  /// itself runs outside the lock so concurrent misses do not serialise.
  /// Two threads racing on the same cold key both compute the same value;
  /// exactly one insertion wins and is counted as the miss.
  double switching_activity(OpKind kind, int n_mux_a, int n_mux_b);

  /// Always-compute variant (ignores and does not touch the memo) — used to
  /// verify that precalculated and dynamic estimation agree (§5.2.2). Same
  /// size limits as switching_activity.
  double compute_uncached(OpKind kind, int n_mux_a, int n_mux_b) const;

  /// Precompute all combinations up to the given mux sizes (the paper's
  /// "all combinations" table).
  void precompute(int max_mux_a, int max_mux_b);

  /// Text dump of the table, in key order: a "# SaCache width=<w> k=<k>
  /// mode=<mode>" header, one "<kind> <nA> <nB> <sa>" line per entry (17
  /// significant digits, so each value parses back bit-exactly) and a
  /// "# end <count>" footer.
  void save(std::ostream& os) const;

  std::size_t size() const;
  int width() const { return width_; }
  SaMode mode() const { return mode_; }

  /// Number of cache misses (table insertions from on-demand computation) —
  /// used by the ablation bench to show the precalc speedup. Exact: summed
  /// over the per-shard counters.
  std::uint64_t misses() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, double> table;
    std::uint64_t misses = 0;
  };

  static std::uint64_t key(OpKind kind, int a, int b);
  Shard& shard_for(std::uint64_t key) const;

  int width_;
  MapParams map_params_;
  SaMode mode_;
  int sim_vectors_;
  std::uint64_t sim_seed_;
  int exact_budget_;  // kExact only: resolved from HLP_EXACT_BUDGET at ctor
  mutable std::array<Shard, kNumShards> shards_;
};

}  // namespace hlp
