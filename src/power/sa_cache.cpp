#include "power/sa_cache.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <ostream>
#include <thread>

#include "common/error.hpp"
#include "common/helper_budget.hpp"
#include "mapper/techmap.hpp"
#include "power/activity.hpp"
#include "rtl/partial_datapath.hpp"

namespace hlp {
namespace {

// pack() holds each mux size in 20 bits.
constexpr int kMaxMuxSize = (1 << 20) - 1;

void require_keyable(int n_mux_a, int n_mux_b) {
  HLP_REQUIRE(n_mux_a >= 1 && n_mux_b >= 1 && n_mux_a <= kMaxMuxSize &&
                  n_mux_b <= kMaxMuxSize,
              "mux sizes must be in [1, " << kMaxMuxSize << "], got "
                                          << n_mux_a << " and " << n_mux_b);
}

}  // namespace

SaCache::SaCache(int width, SaMode mode) : width_(width), mode_(mode) {
  HLP_REQUIRE(width >= 1, "width must be >= 1");
}

std::uint64_t SaCache::pack(OpKind kind, int a, int b) {
  return (static_cast<std::uint64_t>(op_kind_index(kind)) << 40) |
         (static_cast<std::uint64_t>(a) << 20) | static_cast<std::uint64_t>(b);
}

SaCache::Key SaCache::unpack(std::uint64_t packed) {
  return {static_cast<OpKind>(packed >> 40),
          static_cast<int>((packed >> 20) & 0xfffff),
          static_cast<int>(packed & 0xfffff)};
}

SaCache::Shard& SaCache::shard_for(std::uint64_t packed) const {
  // Fibonacci mixing: consecutive (kind, a, b) keys spread across shards.
  return shards_[((packed * 0x9e3779b97f4a7c15ull) >> 48) % kNumShards];
}

std::optional<double> SaCache::lookup(std::uint64_t packed) const {
  const Shard& shard = shard_for(packed);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.table.find(packed);
  if (it == shard.table.end()) return std::nullopt;
  return it->second;
}

double SaCache::insert(std::uint64_t packed, double sa) {
  Shard& shard = shard_for(packed);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.table.emplace(packed, sa);
  if (inserted) ++shard.misses;
  return it->second;
}

double SaCache::compute_uncached(OpKind kind, int n_mux_a, int n_mux_b) const {
  require_keyable(n_mux_a, n_mux_b);
  const Netlist dp = make_partial_datapath(kind, n_mux_a, n_mux_b, width_);
  const MapResult mapped = tech_map(dp);
  if (mode_ == SaMode::kSimulated)
    return simulate_activity(mapped.lut_netlist, kSimVectors, kSimSeed)
        .total_sa;
  return estimate_activity(mapped.lut_netlist).total_sa;
}

double SaCache::switching_activity(OpKind kind, int n_mux_a, int n_mux_b) {
  require_keyable(n_mux_a, n_mux_b);
  const std::uint64_t packed = pack(kind, n_mux_a, n_mux_b);
  if (const auto held = lookup(packed)) return *held;
  // Compute outside the lock so concurrent misses run in parallel.
  return insert(packed, compute_uncached(kind, n_mux_a, n_mux_b));
}

void SaCache::fill(const std::vector<Key>& keys) {
  std::vector<std::uint64_t> missing;
  missing.reserve(keys.size());
  for (const Key& k : keys) {
    require_keyable(k.n_mux_a, k.n_mux_b);
    missing.push_back(pack(k.kind, k.n_mux_a, k.n_mux_b));
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  std::erase_if(missing, [this](std::uint64_t packed) {
    return lookup(packed).has_value();
  });
  if (missing.empty()) return;

  // The caller and its helpers claim keys through one counter. A failed
  // key keeps its exception in its own slot and stops further claims, so
  // nothing escapes a helper thread.
  std::vector<double> values(missing.size());
  std::vector<std::exception_ptr> errors(missing.size());
  std::atomic<std::size_t> next(0);
  auto work = [&] {
    for (std::size_t i = next++; i < missing.size(); i = next++) {
      try {
        const Key k = unpack(missing[i]);
        values[i] = compute_uncached(k.kind, k.n_mux_a, k.n_mux_b);
      } catch (...) {
        errors[i] = std::current_exception();
        next.store(missing.size());
      }
    }
  };
  {
    const HelperLease lease(missing.size() - 1);
    std::vector<std::jthread> helpers;  // joined before the lease ends
    for (int h = 0; h < lease.granted(); ++h) {
      try {
        helpers.emplace_back(work);
      } catch (const std::exception&) {
        break;  // the caller's loop takes the keys this helper would have
      }
    }
    work();
  }
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);

  for (std::size_t i = 0; i < missing.size(); ++i)
    insert(missing[i], values[i]);
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
  std::vector<Key> grid;
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (int a = 1; a <= max_mux_a; ++a)
      for (int b = 1; b <= max_mux_b; ++b)
        grid.push_back({static_cast<OpKind>(kind), a, b});
  fill(grid);
}

void SaCache::save(std::ostream& os) const {
  // Snapshot into one ordered map so the file is stable across shard
  // layouts and hash orders.
  std::map<std::uint64_t, double> snapshot;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    snapshot.insert(shard.table.begin(), shard.table.end());
  }
  os << "# SaCache width=" << width_ << " k=" << CutParams{}.k
     << " mode=" << sa_mode_name(mode_) << "\n";
  os.precision(17);  // bit-exact double round trip
  for (const auto& [packed, sa] : snapshot) {
    const Key k = unpack(packed);
    os << to_string(k.kind) << " " << k.n_mux_a << " " << k.n_mux_b << " "
       << sa << "\n";
  }
  // Footer: the entry count, so a reader can tell a complete dump from one
  // cut short.
  os << "# end " << snapshot.size() << "\n";
}

}  // namespace hlp
