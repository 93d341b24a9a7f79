// Tests for the probabilistic primitives of Section 4: signal probability,
// Boolean-difference probability (Najm, Eq. 1) and the Chou-Roy
// simultaneous-switching activity (Eq. 2). Several results are checked
// against hand-derived closed forms; lut_probability and lut_joint_prob are
// also checked bit for bit against row-by-row reference enumerations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "netlist/modules.hpp"
#include "power/probability.hpp"

namespace hlp {
namespace {

TEST(Probability, And2) {
  EXPECT_DOUBLE_EQ(lut_probability(TruthTable::and2(), {0.5, 0.5}), 0.25);
  EXPECT_DOUBLE_EQ(lut_probability(TruthTable::and2(), {0.3, 0.7}), 0.21);
}

TEST(Probability, Or2AndXor2) {
  EXPECT_DOUBLE_EQ(lut_probability(TruthTable::or2(), {0.5, 0.5}), 0.75);
  // P(xor) = p(1-q) + q(1-p)
  EXPECT_NEAR(lut_probability(TruthTable::xor2(), {0.3, 0.8}),
              0.3 * 0.2 + 0.8 * 0.7, 1e-12);
}

TEST(Probability, Inverter) {
  EXPECT_DOUBLE_EQ(lut_probability(TruthTable::not1(), {0.2}), 0.8);
}

TEST(Probability, Constants) {
  EXPECT_DOUBLE_EQ(lut_probability(TruthTable::const1(), {}), 1.0);
  EXPECT_DOUBLE_EQ(lut_probability(TruthTable::const0(), {}), 0.0);
}

TEST(Probability, ExtremeInputs) {
  EXPECT_DOUBLE_EQ(lut_probability(TruthTable::and2(), {1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(lut_probability(TruthTable::and2(), {0.0, 1.0}), 0.0);
}

TEST(BooleanDifference, Xor2IsAlwaysSensitive) {
  // d(xor)/da = 1 for any b.
  EXPECT_DOUBLE_EQ(boolean_difference_prob(TruthTable::xor2(), 0, {0.5, 0.5}),
                   1.0);
  EXPECT_DOUBLE_EQ(boolean_difference_prob(TruthTable::xor2(), 1, {0.9, 0.1}),
                   1.0);
}

TEST(BooleanDifference, And2SensitiveWhenOtherIsOne) {
  // d(ab)/da = b, so P = P(b).
  EXPECT_DOUBLE_EQ(boolean_difference_prob(TruthTable::and2(), 0, {0.5, 0.7}),
                   0.7);
  EXPECT_DOUBLE_EQ(boolean_difference_prob(TruthTable::and2(), 1, {0.2, 0.9}),
                   0.2);
}

TEST(JointProb, QuietInputsGiveStaticJoint) {
  // With zero switching, P(y(t)y(t+T)) = P(y).
  for (const TruthTable& tt :
       {TruthTable::and2(), TruthTable::or2(), TruthTable::xor2()}) {
    const std::vector<double> p{0.4, 0.6};
    EXPECT_NEAR(lut_joint_prob(tt, p, {0.0, 0.0}), lut_probability(tt, p),
                1e-12);
  }
}

TEST(SwitchingActivity, QuietInputsNoOutput) {
  EXPECT_DOUBLE_EQ(
      lut_switching_activity(TruthTable::and2(), {0.4, 0.6}, {0.0, 0.0}), 0.0);
}

TEST(SwitchingActivity, BufferPassesActivity) {
  EXPECT_NEAR(lut_switching_activity(TruthTable::buf(), {0.5}, {0.3}), 0.3,
              1e-12);
  EXPECT_NEAR(lut_switching_activity(TruthTable::not1(), {0.5}, {0.3}), 0.3,
              1e-12);
}

TEST(SwitchingActivity, Xor2ClosedForm) {
  // For independent inputs: s(y) = s1(1-s2) + s2(1-s1) for XOR.
  const double s1 = 0.4, s2 = 0.2;
  EXPECT_NEAR(
      lut_switching_activity(TruthTable::xor2(), {0.5, 0.5}, {s1, s2}),
      s1 * (1 - s2) + s2 * (1 - s1), 1e-12);
}

TEST(SwitchingActivity, And2ClosedForm) {
  // Najm-style: with P=0.5 inputs, s(ab) via exact pairwise enumeration;
  // cross-check the closed form s = s1*P(b held) ... computed by hand:
  // p11 = 0.5 - s/2 per input. P(y)=0.25.
  const double s1 = 0.3, s2 = 0.3;
  // joint = P(a1 a2 a1' a2') summed: independence per input.
  const double a11 = 0.5 - s1 / 2;  // P(a=1,a'=1)
  const double b11 = 0.5 - s2 / 2;
  const double expected = 2 * (0.25 - a11 * b11);
  EXPECT_NEAR(
      lut_switching_activity(TruthTable::and2(), {0.5, 0.5}, {s1, s2}),
      expected, 1e-12);
}

TEST(SwitchingActivity, MonotoneInInputActivity) {
  double prev = 0.0;
  for (double s = 0.0; s <= 1.0; s += 0.1) {
    const double cur =
        lut_switching_activity(TruthTable::and2(), {0.5, 0.5}, {s, 0.0});
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

TEST(SwitchingActivity, ClampedToValidRange) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> p{rng.uniform(), rng.uniform(), rng.uniform()};
    const std::vector<double> a{rng.uniform(), rng.uniform(), rng.uniform()};
    for (const TruthTable& tt :
         {TruthTable::maj3(), TruthTable::xor3(), TruthTable::mux2()}) {
      const double s = lut_switching_activity(tt, p, a);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(NetlistProbabilities, PropagatesThroughAdder) {
  const Netlist add = make_adder(4);
  const auto p = netlist_probabilities(add);
  // Sum bit 0 is a XOR of two 0.5 inputs: exactly 0.5.
  EXPECT_NEAR(p[add.find_net("s0")], 0.5, 1e-9);
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(NetlistProbabilities, SourceOverride) {
  Netlist n("t");
  const NetId a = n.add_input("a");
  const NetId y = n.add_gate_net("y", {a}, TruthTable::buf());
  n.add_output(y);
  const auto p = netlist_probabilities(n, 0.9);
  EXPECT_DOUBLE_EQ(p[y], 0.9);
}

// Row-by-row enumerations through TruthTable::eval: the reference forms of
// lut_probability and lut_joint_prob. The library versions walk the ON-set
// words instead and must agree to the last bit, since every SA value, store
// object and pinned golden number depends on these sums.
double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

double reference_probability(const TruthTable& tt,
                             const std::vector<double>& p_in) {
  double p = 0.0;
  for (std::uint32_t m = 0; m < tt.num_rows(); ++m) {
    if (!tt.eval(m)) continue;
    double term = 1.0;
    for (int j = 0; j < tt.num_inputs(); ++j)
      term *= ((m >> j) & 1u) ? p_in[j] : 1.0 - p_in[j];
    p += term;
  }
  return clamp01(p);
}

double reference_joint_prob(const TruthTable& tt,
                            const std::vector<double>& p_in,
                            const std::vector<double>& act_in) {
  const int k = tt.num_inputs();
  struct Pair {
    double p00, p01, p10, p11;
  };
  std::vector<Pair> joint(k);
  for (int j = 0; j < k; ++j) {
    const double a = std::min(act_in[j], 2.0 * std::min(p_in[j], 1.0 - p_in[j]));
    joint[j].p11 = clamp01(p_in[j] - a / 2.0);
    joint[j].p00 = clamp01(1.0 - p_in[j] - a / 2.0);
    joint[j].p01 = a / 2.0;
    joint[j].p10 = a / 2.0;
  }
  double p = 0.0;
  for (std::uint32_t u = 0; u < tt.num_rows(); ++u) {
    if (!tt.eval(u)) continue;
    for (std::uint32_t v = 0; v < tt.num_rows(); ++v) {
      if (!tt.eval(v)) continue;
      double term = 1.0;
      for (int j = 0; j < k && term > 0.0; ++j) {
        const bool bu = (u >> j) & 1u;
        const bool bv = (v >> j) & 1u;
        const Pair& pj = joint[j];
        term *= bu ? (bv ? pj.p11 : pj.p10) : (bv ? pj.p01 : pj.p00);
      }
      p += term;
    }
  }
  return clamp01(p);
}

// A probability: usually in (0, 1), sometimes exactly 0 or 1.
double draw_probability(Rng& rng) {
  switch (rng.range(0, 7)) {
    case 0:
      return 0.0;
    case 1:
      return 1.0;
    default:
      return rng.uniform();
  }
}

// An activity for an input of probability p: usually in (0, 1), sometimes
// 0, 1, or above 2 min(p, 1 - p) so lut_joint_prob's clamp engages.
double draw_activity(Rng& rng, double p) {
  switch (rng.range(0, 7)) {
    case 0:
      return 0.0;
    case 1:
      return 1.0;
    case 2:
      return 2.0 * std::min(p, 1.0 - p) + rng.uniform();
    default:
      return rng.uniform();
  }
}

TEST(Probability, MatchesReferenceEnumerationBitForBit) {
  Rng rng(2024);
  for (int k = 0; k <= kMaxTtInputs; ++k) {
    for (int trial = 0; trial < 60; ++trial) {
      const TruthTable tt(k, rng.next_u64());
      std::vector<double> p(k), a(k);
      for (int j = 0; j < k; ++j) {
        p[j] = draw_probability(rng);
        a[j] = draw_activity(rng, p[j]);
      }
      const double pj = reference_joint_prob(tt, p, a);
      EXPECT_EQ(lut_probability(tt, p), reference_probability(tt, p))
          << "k=" << k << " tt=" << tt.to_string();
      EXPECT_EQ(lut_joint_prob(tt, p, a), pj)
          << "k=" << k << " tt=" << tt.to_string();
      EXPECT_EQ(lut_switching_activity(tt, p, a),
                clamp01(2.0 * (reference_probability(tt, p) - pj)))
          << "k=" << k << " tt=" << tt.to_string();
    }
  }
}

// Monte-Carlo cross-check: probability propagation matches simulation on a
// random single-LUT function (independence holds exactly at one level).
class ProbabilityMc : public ::testing::TestWithParam<int> {};

TEST_P(ProbabilityMc, MatchesSampling) {
  Rng rng(GetParam() + 500);
  const int k = rng.range(1, 4);
  const TruthTable tt(k, rng.next_u64());
  std::vector<double> p(k);
  for (auto& x : p) x = 0.1 + 0.8 * rng.uniform();
  const double predicted = lut_probability(tt, p);
  int hits = 0;
  const int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) {
    std::uint32_t m = 0;
    for (int j = 0; j < k; ++j)
      if (rng.chance(p[j])) m |= 1u << j;
    hits += tt.eval(m);
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, predicted, 0.02)
      << "k=" << k << " tt=" << tt.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbabilityMc, ::testing::Range(0, 12));

}  // namespace
}  // namespace hlp
