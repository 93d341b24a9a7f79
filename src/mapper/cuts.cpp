#include "mapper/cuts.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.hpp"

namespace hlp {
namespace {

std::uint64_t signature_of(const std::vector<NetId>& leaves) {
  std::uint64_t sig = 0;
  for (NetId l : leaves) sig |= 1ull << (static_cast<unsigned>(l) % 64u);
  return sig;
}

// True when a's leaves are a subset of b's (a dominates b: any LUT that can
// be fed by b's leaves can be fed by a's).
bool subset_of(const Cut& a, const Cut& b) {
  if ((a.signature & ~b.signature) != 0) return false;
  return std::includes(b.leaves.begin(), b.leaves.end(), a.leaves.begin(),
                       a.leaves.end());
}

// Merge two sorted leaf sets; empty result when it would exceed k leaves.
std::vector<NetId> merge_leaves(const std::vector<NetId>& a,
                                const std::vector<NetId>& b, int k) {
  std::vector<NetId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  if (static_cast<int>(out.size()) > k) out.clear();
  return out;
}

}  // namespace

CutSet::CutSet(const Netlist& n, const CutParams& params) : params_(params) {
  HLP_REQUIRE(params.k >= 2 && params.k <= kMaxTtInputs,
              "K must be in [2," << kMaxTtInputs << "], got " << params.k);
  HLP_REQUIRE(params.max_cuts >= 2, "cut budget must be >= 2");
  cuts_.resize(n.num_nets());
  best_depth_.assign(n.num_nets(), 0);

  auto trivial = [](NetId net) {
    Cut c;
    c.leaves = {net};
    c.signature = signature_of(c.leaves);
    c.depth = 0;
    return c;
  };
  for (NetId net = 0; net < n.num_nets(); ++net)
    if (n.is_comb_source(net)) cuts_[net] = {trivial(net)};

  for (int gi : n.topo_gates()) {
    const Gate& g = n.gates()[gi];
    HLP_REQUIRE(static_cast<int>(g.ins.size()) <= params_.k,
                "gate '" << n.net_name(g.out) << "' has " << g.ins.size()
                         << " inputs; K=" << params_.k
                         << " mapping cannot cover it");
    const NetId root = g.out;
    std::vector<Cut> result;

    // Cross product of fanin cut sets, built input by input.
    std::vector<Cut> partial = {Cut{{}, 0, 0}};
    for (NetId in : g.ins) {
      HLP_CHECK(!cuts_[in].empty(),
                "fanin net '" << n.net_name(in) << "' has no cuts");
      std::vector<Cut> next;
      for (const Cut& p : partial) {
        for (const Cut& fc : cuts_[in]) {
          auto leaves = merge_leaves(p.leaves, fc.leaves, params_.k);
          if (leaves.empty() && !(p.leaves.empty() && fc.leaves.empty()))
            continue;
          Cut c;
          c.signature = signature_of(leaves);
          c.leaves = std::move(leaves);
          // Depth of a cut: 1 + max over leaves of their best depth.
          int d = 0;
          for (NetId l : c.leaves) d = std::max(d, best_depth_[l]);
          c.depth = d + 1;
          next.push_back(std::move(c));
        }
      }
      partial = std::move(next);
      if (partial.empty()) break;
    }

    // Dominance filter + priority pruning.
    std::sort(partial.begin(), partial.end(), [](const Cut& a, const Cut& b) {
      if (a.depth != b.depth) return a.depth < b.depth;
      return a.leaves.size() < b.leaves.size();
    });
    for (auto& c : partial) {
      bool dominated = false;
      for (const Cut& kept : result)
        if (subset_of(kept, c)) {
          dominated = true;
          break;
        }
      if (!dominated) result.push_back(std::move(c));
      if (static_cast<int>(result.size()) >= params_.max_cuts - 1) break;
    }
    // Always keep the trivial cut so larger cuts above can end here.
    result.push_back(trivial(root));
    best_depth_[root] = result.front().depth;
    cuts_[root] = std::move(result);
  }
}

const std::vector<Cut>& CutSet::cuts_of(NetId n) const {
  HLP_CHECK(n >= 0 && n < static_cast<NetId>(cuts_.size()), "net out of range");
  HLP_CHECK(!cuts_[n].empty(), "net " << n << " has no cuts (undriven?)");
  return cuts_[n];
}

int CutSet::best_depth(NetId n) const {
  HLP_CHECK(n >= 0 && n < static_cast<NetId>(best_depth_.size()),
            "net out of range");
  return best_depth_[n];
}

TruthTable cut_function(const Netlist& n, NetId root,
                        const std::vector<NetId>& leaves) {
  HLP_REQUIRE(static_cast<int>(leaves.size()) <= kMaxTtInputs,
              "cut has " << leaves.size() << " leaves, max " << kMaxTtInputs);
  const int k = static_cast<int>(leaves.size());
  const std::uint64_t full_mask =
      k == 6 ? ~0ull : ((1ull << (1u << k)) - 1ull);
  // Projection of variable j: bit m is ((m >> j) & 1).
  static constexpr std::uint64_t kProjection[kMaxTtInputs] = {
      0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
      0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
  // Truth table of each net over the leaf variables, computed bottom-up.
  // A cone holds a handful of nets, so a linear scan beats hashing. The
  // scan runs newest first, so a repeated leaf takes its last position.
  std::vector<std::pair<NetId, std::uint64_t>> memo;
  memo.reserve(16);
  for (int j = 0; j < k; ++j)
    memo.emplace_back(leaves[j], kProjection[j] & full_mask);
  auto eval = [&](auto&& self, NetId net) -> std::uint64_t {
    for (auto it = memo.rbegin(); it != memo.rend(); ++it)
      if (it->first == net) return it->second;
    const int gi = n.driver_gate(net);
    HLP_REQUIRE(gi >= 0, "cut of '" << n.net_name(root)
                                    << "' does not cover source net '"
                                    << n.net_name(net) << "'");
    const Gate& g = n.gates()[gi];
    const int fanin = static_cast<int>(g.ins.size());
    std::uint64_t in_tts[kMaxTtInputs];
    for (int j = 0; j < fanin; ++j) in_tts[j] = self(self, g.ins[j]);
    // OR, over the gate's ON minterms, of the AND of each input's literal.
    std::uint64_t out = 0;
    for (std::uint64_t on = g.tt.bits(); on != 0; on &= on - 1) {
      const unsigned gate_minterm = static_cast<unsigned>(std::countr_zero(on));
      std::uint64_t cube = full_mask;
      for (int j = 0; j < fanin; ++j)
        cube &= ((gate_minterm >> j) & 1u) ? in_tts[j] : ~in_tts[j];
      out |= cube;
    }
    memo.emplace_back(net, out);
    return out;
  };
  return TruthTable(k, eval(eval, root));
}

}  // namespace hlp
