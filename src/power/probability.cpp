#include "power/probability.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace hlp {
namespace {

// Clamp probabilities away from impossible values produced by float error.
double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

double lut_probability(const TruthTable& tt, const std::vector<double>& p_in) {
  HLP_CHECK(static_cast<int>(p_in.size()) == tt.num_inputs(),
            "probability vector size mismatch");
  const int k = tt.num_inputs();
  // factor[j][b] = P(input j == b).
  double factor[kMaxTtInputs][2];
  for (int j = 0; j < k; ++j) {
    factor[j][0] = 1.0 - p_in[j];
    factor[j][1] = p_in[j];
  }
  double p = 0.0;
  for (std::uint64_t on = tt.bits(); on != 0; on &= on - 1) {
    const unsigned m = static_cast<unsigned>(std::countr_zero(on));
    double term = 1.0;
    for (int j = 0; j < k; ++j) term *= factor[j][(m >> j) & 1u];
    p += term;
  }
  return clamp01(p);
}

// The evaluation order below is part of the contract (see the header):
// every SA value, store object and golden pin depends on it, so an
// optimisation may only change the overhead around these operations.
double lut_joint_prob(const TruthTable& tt, const std::vector<double>& p_in,
                      const std::vector<double>& act_in) {
  const int k = tt.num_inputs();
  HLP_CHECK(static_cast<int>(p_in.size()) == k &&
                static_cast<int>(act_in.size()) == k,
            "joint probability input size mismatch");
  // Per-input joint pair distribution, indexed by 2 * (value at t) +
  // (value at t+T): p00, p01, p10, p11.
  double joint[kMaxTtInputs][4];
  for (int j = 0; j < k; ++j) {
    const double a = std::min(act_in[j], 2.0 * std::min(p_in[j], 1.0 - p_in[j]));
    joint[j][3] = clamp01(p_in[j] - a / 2.0);
    joint[j][0] = clamp01(1.0 - p_in[j] - a / 2.0);
    joint[j][1] = a / 2.0;
    joint[j][2] = a / 2.0;
  }
  const std::uint64_t on_set = tt.bits();
  double p = 0.0;
  for (std::uint64_t us = on_set; us != 0; us &= us - 1) {
    const unsigned u = static_cast<unsigned>(std::countr_zero(us));
    // row[j][bv]: input j's factor given its value bit of u at time t.
    const double* row[kMaxTtInputs];
    for (int j = 0; j < k; ++j) row[j] = joint[j] + 2 * ((u >> j) & 1u);
    for (std::uint64_t vs = on_set; vs != 0; vs &= vs - 1) {
      const unsigned v = static_cast<unsigned>(std::countr_zero(vs));
      double term = 1.0;
      for (int j = 0; j < k && term > 0.0; ++j) term *= row[j][(v >> j) & 1u];
      p += term;
    }
  }
  return clamp01(p);
}

double lut_switching_activity(const TruthTable& tt,
                              const std::vector<double>& p_in,
                              const std::vector<double>& act_in) {
  const double p = lut_probability(tt, p_in);
  const double pj = lut_joint_prob(tt, p_in, act_in);
  return clamp01(2.0 * (p - pj));
}

double boolean_difference_prob(const TruthTable& tt, int j,
                               const std::vector<double>& p_in) {
  HLP_CHECK(j >= 0 && j < tt.num_inputs(), "input index out of range");
  // df/dx_j = f|x_j=0 XOR f|x_j=1: enumerate over the remaining inputs.
  double p = 0.0;
  for (std::uint32_t m = 0; m < tt.num_rows(); ++m) {
    if ((m >> j) & 1u) continue;  // iterate with x_j = 0
    if (tt.eval(m) == tt.eval(m | (1u << j))) continue;
    double term = 1.0;
    for (int i = 0; i < tt.num_inputs(); ++i) {
      if (i == j) continue;
      term *= ((m >> i) & 1u) ? p_in[i] : 1.0 - p_in[i];
    }
    p += term;
  }
  return clamp01(p);
}

std::vector<double> netlist_probabilities(const Netlist& n,
                                          double source_prob) {
  std::vector<double> prob(n.num_nets(), source_prob);
  for (int gi : n.topo_gates()) {
    const Gate& g = n.gates()[gi];
    std::vector<double> pin;
    pin.reserve(g.ins.size());
    for (NetId in : g.ins) pin.push_back(prob[in]);
    prob[g.out] = lut_probability(g.tt, pin);
  }
  return prob;
}

}  // namespace hlp
