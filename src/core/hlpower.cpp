#include "core/hlpower.hpp"

#include <algorithm>

#include "binding/register_binder.hpp"
#include "common/error.hpp"
#include "graph/bipartite.hpp"

namespace hlp {
namespace {

// A graph node: a set of same-kind operations already sharing one FU.
struct Group {
  OpKind kind;
  std::vector<int> ops;
  std::vector<char> flips;   // parallel to ops: operand orientation
  std::vector<int> csteps;   // sorted
  std::vector<int> regs_a;   // distinct source registers, port A, sorted
  std::vector<int> regs_b;
};

void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

bool disjoint_sorted(const std::vector<int>& a, const std::vector<int>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return false;
    if (a[i] < b[j])
      ++i;
    else
      ++j;
  }
  return true;
}

// |a ∪ b| for sorted, duplicate-free a and b: the mux size a merged group
// would need, without building the merged list.
int union_size(const std::vector<int>& a, const std::vector<int>& b) {
  std::size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<int>(a.size() + b.size() - common);
}

std::vector<int> merged_sorted(const std::vector<int>& a,
                               const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  sort_unique(out);
  return out;
}

Group make_group(const Cdfg& g, const Schedule& s, const RegisterBinding& regs,
                 int op) {
  Group gr;
  gr.kind = g.op(op).kind;
  gr.ops = {op};
  gr.flips = {0};
  gr.csteps = {s.cstep_of_op[op]};
  gr.regs_a = {regs.port_a_reg(g, op)};
  gr.regs_b = {regs.port_b_reg(g, op)};
  return gr;
}

}  // namespace

HlpowerResult bind_fus_hlpower(const Cdfg& g, const Schedule& s,
                               const RegisterBinding& regs,
                               const ResourceConstraint& rc, SaCache& cache,
                               const HlpowerParams& params) {
  s.validate(g);
  regs.validate(g, s);
  for (int k = 0; k < kNumOpKinds; ++k) {
    const OpKind kind = static_cast<OpKind>(k);
    HLP_REQUIRE(rc.limit(kind) >= s.max_density(g, kind),
                "constraint " << rc.limit(kind) << " for " << to_string(kind)
                              << " is below the schedule's max density "
                              << s.max_density(g, kind));
  }
  params.weight.validate();

  HlpowerResult result;

  // Lines 5-6: U = ops of the densest control step per type; V = the rest.
  std::vector<Group> u_groups, v_groups;
  std::vector<char> in_u(g.num_ops(), 0);
  for (int k = 0; k < kNumOpKinds; ++k)
    for (int op : s.densest_step_ops(g, static_cast<OpKind>(k))) in_u[op] = 1;
  for (int op = 0; op < g.num_ops(); ++op)
    (in_u[op] ? u_groups : v_groups).push_back(make_group(g, s, regs, op));

  auto groups_of_kind = [&](OpKind kind) {
    int n = 0;
    for (const auto& gr : u_groups)
      if (gr.kind == kind) ++n;
    for (const auto& gr : v_groups)
      if (gr.kind == kind) ++n;
    return n;
  };
  auto constraint_met = [&]() {
    for (int k = 0; k < kNumOpKinds; ++k)
      if (groups_of_kind(static_cast<OpKind>(k)) >
          rc.limit(static_cast<OpKind>(k)))
        return false;
    return true;
  };

  // Line 7: iterate until the resource constraint is met.
  while (!constraint_met()) {
    ++result.iterations;
    HLP_CHECK(result.iterations <= g.num_ops() + 1,
              "binding failed to converge");

    // Lines 8-13: weighted bipartite graph between U and V. Only kinds
    // still above their limit participate; edges join compatible nodes.
    std::vector<char> kind_active(kNumOpKinds, 0);
    for (int k = 0; k < kNumOpKinds; ++k)
      kind_active[k] = groups_of_kind(static_cast<OpKind>(k)) >
                       rc.limit(static_cast<OpKind>(k));

    // Lines 10-12: mux sizes if combined -> SA lookup -> Eq. 4. Both
    // resource kinds are commutative, so the incoming group may also join
    // with its operand orientation flipped (port assignment optimisation);
    // keep the better of the two orientations. The iteration's mux sizes
    // are collected first, so the SA table fills all of its misses in one
    // batch (SaCache::fill, in parallel) before any edge is weighed.
    struct Candidate {
      std::size_t i, j;
      int mux_a[2], mux_b[2];  // per orientation: [0] as is, [1] flipped
    };
    std::vector<Candidate> candidates;
    std::vector<SaCache::Key> keys;
    for (std::size_t i = 0; i < u_groups.size(); ++i) {
      const Group& a = u_groups[i];
      if (!kind_active[op_kind_index(a.kind)]) continue;
      for (std::size_t j = 0; j < v_groups.size(); ++j) {
        const Group& b = v_groups[j];
        if (b.kind != a.kind) continue;
        if (!disjoint_sorted(a.csteps, b.csteps)) continue;
        Candidate c{i, j, {}, {}};
        for (int flip = 0; flip < 2; ++flip) {
          c.mux_a[flip] = union_size(a.regs_a, flip ? b.regs_b : b.regs_a);
          c.mux_b[flip] = union_size(a.regs_b, flip ? b.regs_a : b.regs_b);
          keys.push_back({a.kind, c.mux_a[flip], c.mux_b[flip]});
        }
        candidates.push_back(c);
      }
    }
    HLP_CHECK(!candidates.empty(),
              "no compatible merge exists but the constraint is unmet");
    cache.fill(keys);

    std::vector<std::vector<double>> weight(
        u_groups.size(), std::vector<double>(v_groups.size(), 0.0));
    std::vector<std::vector<char>> flip_choice(
        u_groups.size(), std::vector<char>(v_groups.size(), 0));
    for (const Candidate& c : candidates) {
      double best_w = 0.0;
      char best_flip = 0;
      for (int flip = 0; flip < 2; ++flip) {
        const auto w = edge_weight(u_groups[c.i].kind, c.mux_a[flip],
                                   c.mux_b[flip], cache, params.weight);
        ++result.edges_evaluated;
        if (w.weight > best_w) {
          best_w = w.weight;
          best_flip = static_cast<char>(flip);
        }
      }
      weight[c.i][c.j] = best_w;
      flip_choice[c.i][c.j] = best_flip;
    }

    // Line 14: maximum-weight matching.
    const MatchingResult m = max_weight_matching(weight);

    // Line 15: combine matched nodes. When stop_at_constraint is set, only
    // apply the highest-weight merges needed to reach each kind's limit.
    struct Merge {
      std::size_t u, v;
      double w;
    };
    std::vector<Merge> merges;
    for (std::size_t i = 0; i < u_groups.size(); ++i)
      if (m.match_of_left[i] >= 0)
        merges.push_back({i, static_cast<std::size_t>(m.match_of_left[i]),
                          weight[i][m.match_of_left[i]]});
    std::sort(merges.begin(), merges.end(),
              [](const Merge& a, const Merge& b) { return a.w > b.w; });

    std::vector<int> budget(kNumOpKinds, g.num_ops());
    if (params.stop_at_constraint)
      for (int k = 0; k < kNumOpKinds; ++k)
        budget[k] = groups_of_kind(static_cast<OpKind>(k)) -
                    rc.limit(static_cast<OpKind>(k));

    std::vector<char> v_consumed(v_groups.size(), 0);
    for (const Merge& mg : merges) {
      Group& a = u_groups[mg.u];
      int& left = budget[op_kind_index(a.kind)];
      if (left <= 0) continue;
      --left;
      const Group& b = v_groups[mg.v];
      const bool flip = flip_choice[mg.u][mg.v] != 0;
      a.ops.insert(a.ops.end(), b.ops.begin(), b.ops.end());
      for (char f : b.flips)
        a.flips.push_back(static_cast<char>(flip ? !f : f));
      a.csteps = merged_sorted(a.csteps, b.csteps);
      a.regs_a = merged_sorted(a.regs_a, flip ? b.regs_b : b.regs_a);
      a.regs_b = merged_sorted(a.regs_b, flip ? b.regs_a : b.regs_b);
      v_consumed[mg.v] = 1;
    }
    std::vector<Group> remaining;
    remaining.reserve(v_groups.size());
    for (std::size_t j = 0; j < v_groups.size(); ++j)
      if (!v_consumed[j]) remaining.push_back(std::move(v_groups[j]));
    v_groups = std::move(remaining);
  }

  // Emit the FU binding: every surviving group is one allocated unit.
  result.fus.fu_of_op.assign(g.num_ops(), -1);
  result.fus.flipped.assign(g.num_ops(), 0);
  auto emit = [&](const Group& gr) {
    const int f = result.fus.num_fus();
    result.fus.kind_of_fu.push_back(gr.kind);
    for (std::size_t k = 0; k < gr.ops.size(); ++k) {
      result.fus.fu_of_op[gr.ops[k]] = f;
      result.fus.flipped[gr.ops[k]] = gr.flips[k];
    }
  };
  for (const auto& gr : u_groups) emit(gr);
  for (const auto& gr : v_groups) emit(gr);
  result.fus.validate(g, s, rc);
  return result;
}

Binding bind_hlpower(const Cdfg& g, const Schedule& s,
                     const ResourceConstraint& rc, SaCache& cache,
                     const HlpowerParams& params, std::uint64_t reg_seed) {
  Binding b;
  b.regs = bind_registers(g, s, reg_seed);
  b.fus = bind_fus_hlpower(g, s, b.regs, rc, cache, params).fus;
  return b;
}

}  // namespace hlp
