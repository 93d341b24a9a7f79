// Signal probability and transition-density primitives (Section 4).
//
// Following Najm [17]: the signal probability P(y) is the fraction of time a
// signal is 1; the transition density / switching activity s(y) is the
// probability of y differing between t and t+T. Chou & Roy [7] give the
// simultaneous-switching-aware form used here (Eq. 2 of the paper):
//
//     s(y) = 2 * ( P(y) - P(y(t) * y(t+T)) )
//
// Both P(y) and the joint term are computed exactly over a gate/LUT's
// truth table under the input-independence assumption: each input i is a
// two-state process with marginal P_i and per-step switching activity a_i,
// giving the joint pair distribution
//     p11 = P_i - a_i/2,  p01 = p10 = a_i/2,  p00 = 1 - P_i - a_i/2.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/truth_table.hpp"

namespace hlp {

/// Exact P(f = 1) given independent input probabilities (2^k enumeration:
/// ON minterms ascending, each term a left-to-right product from input 0).
double lut_probability(const TruthTable& tt, const std::vector<double>& p_in);

/// Exact P(f(t) = 1 AND f(t+T) = 1) given independent per-input marginals
/// and per-step activities (4^k enumeration).
///
/// The floating-point evaluation order is part of the contract: the sum
/// runs over ON-minterm pairs (u, v) with u ascending in the outer loop and
/// v ascending in the inner one; each pair's product multiplies the
/// per-input factors left to right from input 0 and stops at the first
/// partial product that is not > 0. Every SA value depends on this order,
/// and through them the SaCache tables, the artifact store's objects,
/// perfbench's expected results and the tier-1 golden pins. An algebraic
/// rewrite (for example factoring the ON x ON sum input by input) changes
/// values in the last bits, so it is a change of results, not an
/// optimisation.
double lut_joint_prob(const TruthTable& tt, const std::vector<double>& p_in,
                      const std::vector<double>& act_in);

/// Chou-Roy switching activity of a gate output for one time step:
/// s = 2 (P - P(y y+)). Inputs that do not switch in this step pass
/// act_in = 0.
double lut_switching_activity(const TruthTable& tt,
                              const std::vector<double>& p_in,
                              const std::vector<double>& act_in);

/// Signal probability of the Boolean difference P(df/dx_j) under input
/// probabilities — the Najm Eq. (1) building block (exposed for tests and
/// the documentation examples).
double boolean_difference_prob(const TruthTable& tt, int j,
                               const std::vector<double>& p_in);

/// Per-net signal probabilities over a whole netlist (zero-delay, topo
/// propagation, sources at 0.5 unless overridden).
std::vector<double> netlist_probabilities(const Netlist& n,
                                          double source_prob = 0.5);

}  // namespace hlp
