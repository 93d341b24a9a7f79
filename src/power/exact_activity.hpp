// Exact switching activity via per-cone BDDs (the ROADMAP's
// "BDDs/#SAT, hybridised with simulation" item, in the style of esta's
// SharpSatBddEvaluator).
//
// Model: one clock cycle of the unit-delay simulator under *independent
// uniform sources* — every combinational source (primary input or latch
// Q) draws its previous-cycle and current-cycle values independently and
// uniformly. Each source therefore contributes two BDD variables,
// interleaved by source rank (prev at 2r, curr at 2r+1). Over those
// variables the engine builds, per net x, the full unit-delay settle
// trajectory as BDDs:
//
//   V(x, -1) = settled value under the previous frame
//   V(s, t)  = curr_s for t >= 0                      (sources commit at 0)
//   V(g, t)  = f_g(V(ins, t-1)) for t >= 0            (Jacobi step)
//
// which stabilises at the net's support-reduced logic level L. The engine
// then reads off *analytically* exactly what the simulator counts
// empirically:
//
//   sa[x]         = sum over t of P[V(x,t) != V(x,t-1)]   (all transitions,
//                   glitches included; sources toggle at t = 0 with
//                   probability 1/2)
//   functional[x] = P[V(x,L) != V(x,-1)]                  (settled change)
//
// Each probability is a BDD density — P[f] = (P[f|var=0] + P[f|var=1])/2
// down to the terminals — so the numbers carry no seed, no variance and
// no vector count. Every value is a dyadic rational; with a support of
// <= 16 transition variables the doubles are *bit-for-bit* equal to
// exhaustive enumeration (tests/exact_activity_test.cpp pins this).
//
// Budget and fallback: BDD sizes can explode (multiplier cones are the
// canonical offender). Construction of each net's trajectory is metered
// against a *marginal* node budget — nodes newly created while building
// that cone — and a cone that exceeds it is abandoned: the net (and,
// transitively, every net it feeds) is marked kSampled and its sa comes
// from ONE shared simulate_activity run over the fallback parameters.
// The result reports per net which engine answered, so a hybrid total is
// never mistaken for a fully exact one.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace hlp {

/// Which engine produced a net's activity value in an ExactActivityResult.
enum class ConeEngine : std::uint8_t {
  kExact,    // analytic BDD density
  kSampled,  // Monte-Carlo fallback (budget exceeded on this cone or an
             // upstream one)
};

/// Default node budget: marginal BDD nodes per cone before the
/// Monte-Carlo fallback takes over. Sized so the linear-BDD structures
/// (adders, muxes, steering logic) stay exact at datapath widths while
/// multiplier cones — whose BDDs are exponential in width — fall back
/// quickly instead of stalling a sweep.
inline constexpr int kDefaultExactBudget = 20000;

struct ExactActivityOptions {
  /// Marginal BDD-node budget per cone (>= 1). A cone that allocates more
  /// than this many *new* unique nodes while its trajectory is built falls
  /// back to the sampler.
  int node_budget = kDefaultExactBudget;
  /// Parameters of the single shared simulate_activity fallback run (only
  /// executed if at least one cone blew the budget).
  int fallback_vectors = 256;
  std::uint64_t fallback_seed = 1;
};

struct ExactActivityResult {
  /// Per net: expected unit-delay transitions per cycle. Exact nets carry
  /// the analytic density; sampled nets carry the fallback run's estimate.
  std::vector<double> sa;
  /// Per net: which engine produced sa[net].
  std::vector<ConeEngine> engine;
  /// Per net: P[settled value changes across the cycle]. Analytic for
  /// exact nets; 0 for sampled nets (the sampler has no per-net split).
  std::vector<double> functional;
  /// Per net: the combinational sources the net's (support-reduced) cone
  /// actually depends on, sorted by net id. This is what bounds the
  /// enumeration space: a net with s support sources ranges over 4^s
  /// (prev, curr) frame pairs.
  std::vector<std::vector<NetId>> support;

  /// Sum of sa over ALL nets (sources included, like
  /// CycleSimStats::total_transitions) — hybrid when fell_back.
  double total_sa = 0.0;
  /// Sums of the functional/glitch split over the EXACT nets only (the
  /// sampler cannot attribute per-net functional transitions).
  double functional_sa = 0.0;
  double glitch_sa = 0.0;

  bool fell_back = false;  // true iff any cone is kSampled
  int num_exact = 0;       // nets answered analytically
  int num_sampled = 0;     // nets answered by the fallback run
  std::size_t bdd_nodes = 0;  // unique BDD nodes created in total
};

/// Exact (budgeted-hybrid) switching activity of a netlist. Pure function
/// of (n, opt) — reads no environment. The accuracy oracle the estimator
/// and the Monte-Carlo engine are measured against; not an SaCache mode.
ExactActivityResult exact_activity(const Netlist& n,
                                   const ExactActivityOptions& opt = {});

}  // namespace hlp
