#include "power/exact_activity.hpp"

#include <algorithm>
#include <climits>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "power/activity.hpp"
#include "sim/bit_sim_engine.hpp"

namespace hlp {

namespace {

// Minimal ROBDD manager: unique table, ite with memo, analytic density.
// Node ids are indices into nodes_; 0/1 are the false/true terminals.
// The per-cone budget meters *created* nodes between begin_cone and
// end_cone; exceeding it throws BudgetExceeded, and rollback_cone drops
// every node the abandoned cone allocated so blown cones cost no
// residency.
class Bdd {
 public:
  struct BudgetExceeded {};
  static constexpr int kFalse = 0;
  static constexpr int kTrue = 1;

  Bdd() {
    nodes_.push_back({kTermVar, kFalse, kFalse});
    nodes_.push_back({kTermVar, kTrue, kTrue});
  }

  /// The BDD of a bare variable.
  int var(int v) { return mk(v, kFalse, kTrue); }

  int bnot(int f) { return ite(f, kFalse, kTrue); }
  int band(int f, int g) { return ite(f, g, kFalse); }
  int bor(int f, int g) { return ite(f, kTrue, g); }
  int bxor(int f, int g) { return ite(f, bnot(g), g); }

  int ite(int f, int g, int h) {
    if (f == kTrue) return g;
    if (f == kFalse) return h;
    if (g == h) return g;
    if (g == kTrue && h == kFalse) return f;
    const Key k{f, g, h};
    if (auto it = ite_memo_.find(k); it != ite_memo_.end()) return it->second;
    const int v =
        std::min(top_var(f), std::min(top_var(g), top_var(h)));
    const int r0 = ite(cof(f, v, 0), cof(g, v, 0), cof(h, v, 0));
    const int r1 = ite(cof(f, v, 1), cof(g, v, 1), cof(h, v, 1));
    const int r = mk(v, r0, r1);
    ite_memo_.emplace(k, r);
    return r;
  }

  /// P[f = 1] under independent uniform variables. The recursion
  /// p(node) = (p(lo) + p(hi)) / 2 marginalises skipped variable levels
  /// correctly (lo/hi are independent of the node's variable), and every
  /// step is a dyadic halving — with <= 16 support variables the doubles
  /// are exact, which is what makes the bit-for-bit enumeration test
  /// possible.
  double density(int f) {
    if (f == kFalse) return 0.0;
    if (f == kTrue) return 1.0;
    if (auto it = prob_.find(f); it != prob_.end()) return it->second;
    const double p = 0.5 * (density(nodes_[f].lo) + density(nodes_[f].hi));
    prob_.emplace(f, p);
    return p;
  }

  void begin_cone(int budget) {
    mark_ = nodes_.size();
    budget_ = budget;
  }
  void end_cone() { budget_ = -1; }

  /// Undo an abandoned cone: drop its nodes from the arena and the unique
  /// table. Memo tables may reference dropped ids, so they are cleared
  /// wholesale — recomputation is cheap next to a dangling reference.
  void rollback_cone() {
    for (auto it = unique_.begin(); it != unique_.end();) {
      if (it->second >= static_cast<int>(mark_))
        it = unique_.erase(it);
      else
        ++it;
    }
    nodes_.resize(mark_);
    ite_memo_.clear();
    prob_.clear();
    budget_ = -1;
  }

  std::size_t num_nodes() const { return nodes_.size() - 2; }  // sans terminals

 private:
  static constexpr int kTermVar = INT_MAX;
  struct Node {
    int var, lo, hi;
  };
  struct Key {
    int a, b, c;
    bool operator==(const Key& o) const {
      return a == o.a && b == o.b && c == o.c;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = static_cast<std::uint32_t>(k.a);
      h = (h * 0x9e3779b97f4a7c15ull) ^ static_cast<std::uint32_t>(k.b);
      h = (h * 0x9e3779b97f4a7c15ull) ^ static_cast<std::uint32_t>(k.c);
      h *= 0x9e3779b97f4a7c15ull;
      return static_cast<std::size_t>(h >> 24);
    }
  };

  int top_var(int f) const { return nodes_[f].var; }
  int cof(int f, int v, int which) const {
    const Node& nd = nodes_[f];
    if (nd.var != v) return f;
    return which ? nd.hi : nd.lo;
  }
  int mk(int v, int lo, int hi) {
    if (lo == hi) return lo;
    const Key k{v, lo, hi};
    if (auto it = unique_.find(k); it != unique_.end()) return it->second;
    if (budget_ >= 0 &&
        nodes_.size() - mark_ >= static_cast<std::size_t>(budget_))
      throw BudgetExceeded{};
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back({v, lo, hi});
    unique_.emplace(k, id);
    return id;
  }

  std::vector<Node> nodes_;
  std::unordered_map<Key, int, KeyHash> unique_;
  std::unordered_map<Key, int, KeyHash> ite_memo_;
  std::unordered_map<int, double> prob_;
  std::size_t mark_ = 0;
  int budget_ = -1;  // < 0: unmetered (source variables)
};

/// Shannon expansion of a truth table into a BDD over xs[0..k). Row
/// semantics match BitSimulatorT::eval_gate's cofactor fold: bit j of a
/// row index is the value of input j, so input k-1 selects between the
/// low and high halves of the table.
int build_from_tt(Bdd& m, std::uint64_t tt, const std::vector<int>& xs,
                  int k) {
  if (k == 0) return (tt & 1) ? Bdd::kTrue : Bdd::kFalse;
  const std::uint32_t half = 1u << (k - 1);
  const std::uint64_t lo_tt =
      half >= 64 ? tt : tt & ((1ull << half) - 1);
  const std::uint64_t hi_tt = half >= 64 ? 0 : tt >> half;
  const int lo = build_from_tt(m, lo_tt, xs, k - 1);
  const int hi = build_from_tt(m, hi_tt, xs, k - 1);
  return m.ite(xs[k - 1], hi, lo);
}

/// One gate function over input BDDs, mirroring eval_gate's classified
/// semantics exactly: the inv flag applies to the specialised ops but NOT
/// to the Shannon fallbacks, whose (support-reduced) truth tables are
/// already complete.
int build_gate(Bdd& m, const detail::GatePlan& plan,
               const detail::PackedGate& g, const std::vector<int>& xs) {
  const bool inv = g.inv != 0;
  switch (g.op) {
    case detail::kOpConst:
      return inv ? Bdd::kTrue : Bdd::kFalse;
    case detail::kOpBuf:
      return inv ? m.bnot(xs[0]) : xs[0];
    case detail::kOpMux: {
      const int w = m.ite(xs[0], xs[1], xs[2]);
      return inv ? m.bnot(w) : w;
    }
    case detail::kOpMaj: {
      const int w =
          m.bor(m.band(xs[0], xs[1]), m.band(m.bor(xs[0], xs[1]), xs[2]));
      return inv ? m.bnot(w) : w;
    }
    case detail::kOpParity: {
      int w = inv ? Bdd::kTrue : Bdd::kFalse;
      for (int j = 0; j < g.k; ++j) w = m.bxor(w, xs[j]);
      return w;
    }
    case detail::kOpAndPol: {
      int w = Bdd::kTrue;
      for (int j = 0; j < g.k; ++j)
        w = m.band(w, ((g.pol >> j) & 1) ? m.bnot(xs[j]) : xs[j]);
      return inv ? m.bnot(w) : w;
    }
    case detail::kOpShannon:
      return build_from_tt(m, g.tt, xs, g.k);
    case detail::kOpShannonBig:
      return build_from_tt(m, plan.tt_bits[g.idx], xs, g.k);
  }
  HLP_CHECK(false, "invalid GateOp in exact_activity");
}

/// Per-net settle trajectory as BDDs: prev is V(net, -1), timed[t] is
/// V(net, t) for t in [0, level] (stable from level on). For gates
/// timed[0] == prev (only sources change at t = 0); for sources prev and
/// timed[0] are the two independent frame variables.
struct Traj {
  int level = 0;
  int prev = Bdd::kFalse;
  std::vector<int> timed;
  bool exact = true;
  bool built = false;
};

int value_at(const Traj& t, int time) {
  if (time < 0) return t.prev;
  return t.timed[static_cast<std::size_t>(std::min(time, t.level))];
}

}  // namespace

ExactActivityResult exact_activity(const Netlist& n,
                                   const ExactActivityOptions& opt) {
  HLP_REQUIRE(opt.node_budget >= 1, "exact_activity node budget must be >= 1 "
                                    "(got " << opt.node_budget << ")");
  const detail::GatePlan plan = detail::build_gate_plan(n);
  const int num_nets = plan.num_nets;

  ExactActivityResult r;
  r.sa.assign(num_nets, 0.0);
  r.engine.assign(num_nets, ConeEngine::kExact);
  r.functional.assign(num_nets, 0.0);
  r.support.resize(num_nets);

  Bdd mgr;
  std::vector<Traj> traj(num_nets);

  // Sources: two variables each (prev at 2r, curr at 2r + 1, interleaved
  // by rank so a cone's prev/curr pairs stay adjacent in the order). A
  // source toggles iff its frames differ: probability exactly 1/2, no
  // densities needed.
  int rank = 0;
  for (NetId net = 0; net < num_nets; ++net) {
    if (!n.is_comb_source(net)) continue;
    Traj& t = traj[net];
    t.prev = mgr.var(2 * rank);
    t.timed = {mgr.var(2 * rank + 1)};
    t.built = true;
    r.support[net] = {net};
    r.sa[net] = 0.5;
    r.functional[net] = 0.5;
    ++rank;
  }

  for (const int gi : plan.topo) {
    const detail::PackedGate& g = plan.gates[gi];
    const int k = g.k;
    const auto in_net = [&](int j) -> NetId {
      return g.op == detail::kOpShannonBig
                 ? plan.in_nets[plan.in_start[g.idx] + j]
                 : g.in[j];
    };

    Traj& t = traj[g.out];
    bool inputs_exact = true;
    int in_level = 0;
    std::vector<NetId>& sup = r.support[g.out];
    for (int j = 0; j < k; ++j) {
      const Traj& in = traj[in_net(j)];
      HLP_CHECK(in.built, "exact_activity: gate input net '"
                              << n.net_name(in_net(j))
                              << "' has no driver before its reader");
      inputs_exact = inputs_exact && in.exact;
      in_level = std::max(in_level, in.level);
      sup.insert(sup.end(), r.support[in_net(j)].begin(),
                 r.support[in_net(j)].end());
    }
    std::sort(sup.begin(), sup.end());
    sup.erase(std::unique(sup.begin(), sup.end()), sup.end());
    t.level = k ? in_level + 1 : 0;
    t.built = true;

    // Inexactness is transitive: a cone containing a blown sub-cone has
    // no trajectory to build on.
    if (!inputs_exact) {
      t.exact = false;
      r.engine[g.out] = ConeEngine::kSampled;
      continue;
    }

    mgr.begin_cone(opt.node_budget);
    try {
      t.timed.assign(static_cast<std::size_t>(t.level) + 1, Bdd::kFalse);
      std::vector<int> xs(k), prev_xs(k);
      for (int tau = 0; tau <= t.level; ++tau) {
        for (int j = 0; j < k; ++j) xs[j] = value_at(traj[in_net(j)], tau - 1);
        // Once every input has stabilised the output repeats verbatim.
        t.timed[tau] = (tau > 0 && xs == prev_xs)
                           ? t.timed[tau - 1]
                           : build_gate(mgr, plan, g, xs);
        std::swap(xs, prev_xs);
      }
      t.prev = t.timed[0];

      double sa = 0.0;
      for (int tau = 1; tau <= t.level; ++tau) {
        if (t.timed[tau] == t.timed[tau - 1]) continue;
        sa += mgr.density(mgr.bxor(t.timed[tau], t.timed[tau - 1]));
      }
      r.sa[g.out] = sa;
      r.functional[g.out] =
          t.timed[t.level] == t.prev
              ? 0.0
              : mgr.density(mgr.bxor(t.timed[t.level], t.prev));
      mgr.end_cone();
    } catch (const Bdd::BudgetExceeded&) {
      mgr.rollback_cone();
      t.exact = false;
      t.timed.clear();
      r.engine[g.out] = ConeEngine::kSampled;
    }
  }

  r.bdd_nodes = mgr.num_nodes();
  std::vector<NetId> sampled;
  for (NetId net = 0; net < num_nets; ++net)
    if (r.engine[net] == ConeEngine::kSampled) sampled.push_back(net);
  r.num_sampled = static_cast<int>(sampled.size());
  r.num_exact = num_nets - r.num_sampled;
  r.fell_back = !sampled.empty();

  // One shared Monte-Carlo run answers for every blown cone — the exact
  // engine deduplicates the per-seed work the sampler would repeat, and
  // the sampler covers only what the budget priced out.
  if (r.fell_back) {
    const SimActivityResult sim =
        simulate_activity(n, opt.fallback_vectors, opt.fallback_seed);
    for (const NetId net : sampled) r.sa[net] = sim.sa[net];
  }

  for (NetId net = 0; net < num_nets; ++net) {
    r.total_sa += r.sa[net];
    if (r.engine[net] == ConeEngine::kExact) {
      r.functional_sa += r.functional[net];
      r.glitch_sa += r.sa[net] - r.functional[net];
    }
  }
  return r;
}

}  // namespace hlp
