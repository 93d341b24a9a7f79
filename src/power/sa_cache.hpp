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
// the table as text. It fills on demand: one key at a time through
// switching_activity, or a batch of keys through fill, which computes the
// batch's misses in parallel (HLPower fills each iteration's keys this way
// before it weighs the iteration's edges). The table is not persisted: a
// warm rerun is served by the artifact store (store/artifact_store.hpp),
// which caches the whole bind-fus..time span that reads it. Two SA
// backends are supported (power/sa_mode.hpp): the paper's analytic
// glitch-aware estimator (kEstimated, the default) and Monte-Carlo
// unit-delay simulation through the bit-parallel batch engine
// (kSimulated). The backends produce different values, so a cache is fixed
// to one mode and the dump's header names it. Every partial datapath is
// mapped with the default MapParams.
//
// Concurrency. The memo table is sharded by key hash (kNumShards
// independent mutex+map shards) so large ExperimentRunner fleets hammering
// the hot lookup path do not contend on a single lock. Values are computed
// outside every lock, so concurrent misses run in parallel; a value is
// deterministic, so two threads racing on one cold key compute the same
// bits, and only the insertion that wins counts as a miss. Both fill paths
// insert through the same code, so misses() stays exact: it is the number
// of distinct keys the table holds that it computed itself. fill's helper
// threads come from the process-wide helper budget
// (common/helper_budget.hpp): hardware_concurrency() - 1 slots shared by
// every cache, every calling thread and the seed-chunk simulator, so
// concurrent fills never run more helpers than that; the caller computes
// alongside its helpers and does all the work itself when the budget is
// spent. Helper threads are not runner threads and are not counted in
// HLP_JOBS.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cdfg/cdfg.hpp"
#include "power/sa_mode.hpp"

namespace hlp {

class SaCache {
 public:
  /// Number of independent mutex+map shards of the memo table.
  static constexpr int kNumShards = 16;

  /// kSimulated's stimulus: kSimVectors random frames from seed kSimSeed
  /// through the batched unit-delay engine.
  static constexpr int kSimVectors = 256;
  static constexpr std::uint64_t kSimSeed = 1;

  /// One table key: a `kind` FU behind an nA-input muxA and an nB-input
  /// muxB. 1 <= nA/nB <= 2^20 - 1 (1 = direct connection; the table key
  /// holds 20 bits per size).
  struct Key {
    OpKind kind;
    int n_mux_a;
    int n_mux_b;
  };

  /// `width`: datapath bit width; `mode` selects the SA backend. The mode
  /// is fixed for the cache's life — callers resolving it from the
  /// environment should go through effective_sa_mode.
  explicit SaCache(int width = 8, SaMode mode = SaMode::kEstimated);

  /// Glitch-aware SA for (kind, nA-input muxA, nB-input muxB); computed on
  /// demand and memoised. Safe to call concurrently (see the header
  /// comment).
  double switching_activity(OpKind kind, int n_mux_a, int n_mux_b);

  /// Batch fill: makes the table hold every key of `keys`. Every key is
  /// validated before anything is computed. Duplicates and keys the table
  /// already holds are dropped; the rest are computed on the calling
  /// thread plus up to (rest - 1) helper threads from the process-wide
  /// budget, then inserted exactly as switching_activity inserts a miss.
  /// A helper that cannot be started leaves its share to the caller. An
  /// exception thrown by a computation reaches the caller once every
  /// helper has been joined, and nothing of that batch is inserted. Safe
  /// to call concurrently with itself and with switching_activity.
  void fill(const std::vector<Key>& keys);

  /// Always-compute variant (ignores and does not touch the memo) — used to
  /// verify that precalculated and dynamic estimation agree (§5.2.2). Same
  /// size limits as switching_activity.
  double compute_uncached(OpKind kind, int n_mux_a, int n_mux_b) const;

  /// Precompute all combinations up to the given mux sizes (the paper's
  /// "all combinations" table): one fill over that grid.
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

  static std::uint64_t pack(OpKind kind, int a, int b);
  static Key unpack(std::uint64_t packed);
  Shard& shard_for(std::uint64_t packed) const;
  std::optional<double> lookup(std::uint64_t packed) const;
  /// Inserts a computed value unless the key is already held; counts the
  /// miss only when this insertion wins. Returns the value the table holds.
  double insert(std::uint64_t packed, double sa);

  int width_;
  SaMode mode_;
  mutable std::array<Shard, kNumShards> shards_;
};

}  // namespace hlp
