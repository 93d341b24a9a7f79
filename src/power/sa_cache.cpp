#include "power/sa_cache.hpp"

#include <map>
#include <ostream>

#include "common/error.hpp"
#include "power/activity.hpp"
#include "power/exact_activity.hpp"
#include "rtl/partial_datapath.hpp"

namespace hlp {
namespace {

// key() packs each mux size into 20 bits.
constexpr int kMaxMuxSize = (1 << 20) - 1;

void require_keyable(int n_mux_a, int n_mux_b) {
  HLP_REQUIRE(n_mux_a <= kMaxMuxSize && n_mux_b <= kMaxMuxSize,
              "mux sizes must be <= " << kMaxMuxSize << ", got " << n_mux_a
                                      << " and " << n_mux_b);
}

}  // namespace

SaCache::SaCache(int width, MapParams map_params, SaMode mode, int sim_vectors,
                 std::uint64_t sim_seed)
    : width_(width),
      map_params_(map_params),
      mode_(mode),
      sim_vectors_(sim_vectors),
      sim_seed_(sim_seed),
      // Resolve the budget once, here: every entry of one cache must be
      // computed under the same budget, or one table would mix accuracies.
      exact_budget_(mode == SaMode::kExact
                        ? exact_budget_from_env(kDefaultExactBudget)
                        : kDefaultExactBudget) {
  HLP_REQUIRE(width >= 1, "width must be >= 1");
  HLP_REQUIRE(sim_vectors >= 1, "sim_vectors must be >= 1");
}

std::uint64_t SaCache::key(OpKind kind, int a, int b) {
  return (static_cast<std::uint64_t>(op_kind_index(kind)) << 40) |
         (static_cast<std::uint64_t>(a) << 20) | static_cast<std::uint64_t>(b);
}

SaCache::Shard& SaCache::shard_for(std::uint64_t key) const {
  // Fibonacci mixing: consecutive (kind, a, b) keys spread across shards.
  return shards_[((key * 0x9e3779b97f4a7c15ull) >> 48) % kNumShards];
}

double SaCache::compute_uncached(OpKind kind, int n_mux_a, int n_mux_b) const {
  require_keyable(n_mux_a, n_mux_b);
  const Netlist dp = make_partial_datapath(kind, n_mux_a, n_mux_b, width_);
  const MapResult mapped = tech_map(dp, map_params_);
  if (mode_ == SaMode::kSimulated)
    return simulate_activity(mapped.lut_netlist, sim_vectors_, sim_seed_)
        .total_sa;
  if (mode_ == SaMode::kExact) {
    ExactActivityOptions opt;
    opt.node_budget = exact_budget_;
    opt.fallback_vectors = sim_vectors_;
    opt.fallback_seed = sim_seed_;
    return exact_activity(mapped.lut_netlist, opt).total_sa;
  }
  return estimate_activity(mapped.lut_netlist).total_sa;
}

double SaCache::switching_activity(OpKind kind, int n_mux_a, int n_mux_b) {
  HLP_REQUIRE(n_mux_a >= 1 && n_mux_b >= 1, "mux sizes must be >= 1");
  require_keyable(n_mux_a, n_mux_b);
  const std::uint64_t k = key(kind, n_mux_a, n_mux_b);
  Shard& shard = shard_for(k);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.table.find(k);
    if (it != shard.table.end()) return it->second;
  }
  // Compute outside the lock so concurrent misses run in parallel. The
  // computation is deterministic, so a racing duplicate for the same key
  // produces the identical value; first insertion wins.
  const double sa = compute_uncached(kind, n_mux_a, n_mux_b);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.table.emplace(k, sa);
  if (inserted) ++shard.misses;
  return it->second;
}

std::size_t SaCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.table.size();
  }
  return total;
}

std::uint64_t SaCache::misses() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.misses;
  }
  return total;
}

void SaCache::precompute(int max_mux_a, int max_mux_b) {
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (int a = 1; a <= max_mux_a; ++a)
      for (int b = 1; b <= max_mux_b; ++b)
        switching_activity(static_cast<OpKind>(kind), a, b);
}

void SaCache::save(std::ostream& os) const {
  // Snapshot into one ordered map so the file is stable across shard
  // layouts and hash orders.
  std::map<std::uint64_t, double> snapshot;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    snapshot.insert(shard.table.begin(), shard.table.end());
  }
  os << "# SaCache width=" << width_ << " k=" << map_params_.cuts.k
     << " mode=" << sa_mode_name(mode_) << "\n";
  os.precision(17);  // bit-exact double round trip
  for (const auto& [k, sa] : snapshot) {
    const int kind = static_cast<int>(k >> 40);
    const int a = static_cast<int>((k >> 20) & 0xfffff);
    const int b = static_cast<int>(k & 0xfffff);
    os << to_string(static_cast<OpKind>(kind)) << " " << a << " " << b << " "
       << sa << "\n";
  }
  // Footer: the entry count, so a reader can tell a complete dump from one
  // cut short.
  os << "# end " << snapshot.size() << "\n";
}

}  // namespace hlp
