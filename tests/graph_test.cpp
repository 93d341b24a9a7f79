// Tests for bipartite matching and min-cost assignment, including
// brute-force cross-checks on random instances (the matching quality
// directly determines the quality of every binding the library produces).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/bipartite.hpp"

namespace hlp {
namespace {

// Exhaustive maximum-weight matching for small instances.
double brute_force_best(const std::vector<std::vector<double>>& w) {
  const int n = static_cast<int>(w.size());
  const int m = n ? static_cast<int>(w[0].size()) : 0;
  double best = 0.0;
  std::vector<int> match(n, -1);
  auto rec = [&](auto&& self, int i, std::vector<char>& used,
                 double acc) -> void {
    if (i == n) {
      best = std::max(best, acc);
      return;
    }
    self(self, i + 1, used, acc);  // leave i unmatched
    for (int j = 0; j < m; ++j) {
      if (used[j] || w[i][j] <= 0.0) continue;
      used[j] = 1;
      self(self, i + 1, used, acc + w[i][j]);
      used[j] = 0;
    }
  };
  std::vector<char> used(m, 0);
  rec(rec, 0, used, 0.0);
  return best;
}

TEST(Bipartite, EmptyGraph) {
  const auto r = max_weight_matching({});
  EXPECT_EQ(r.cardinality(), 0);
  EXPECT_EQ(r.total_weight, 0.0);
}

TEST(Bipartite, SingleEdge) {
  const auto r = max_weight_matching({{5.0}});
  EXPECT_EQ(r.match_of_left[0], 0);
  EXPECT_DOUBLE_EQ(r.total_weight, 5.0);
}

TEST(Bipartite, NoEdges) {
  const auto r = max_weight_matching({{0.0, 0.0}, {0.0, 0.0}});
  EXPECT_EQ(r.cardinality(), 0);
}

TEST(Bipartite, PrefersHeavyEdge) {
  // Left 0 can take the heavy right-1; left 1 then takes right-0.
  const auto r = max_weight_matching({{1.0, 10.0}, {1.0, 9.0}});
  EXPECT_EQ(r.match_of_left[0], 1);
  EXPECT_EQ(r.match_of_left[1], 0);
  EXPECT_DOUBLE_EQ(r.total_weight, 11.0);
}

TEST(Bipartite, MatchingIsValid) {
  const auto r = max_weight_matching(
      {{1, 2, 3}, {3, 1, 0}, {0, 2, 2}, {1, 0, 1}});
  std::vector<char> used(3, 0);
  for (int j : r.match_of_left) {
    if (j < 0) continue;
    EXPECT_FALSE(used[j]) << "right vertex matched twice";
    used[j] = 1;
  }
}

TEST(Bipartite, PositiveWeightsYieldMaximalMatching) {
  // All-positive complete graph: every left vertex must be matched when
  // enough right vertices exist.
  const auto r = max_weight_matching({{1, 1, 1}, {1, 1, 1}, {1, 1, 1}});
  EXPECT_EQ(r.cardinality(), 3);
}

class BipartiteRandom : public ::testing::TestWithParam<int> {};

TEST_P(BipartiteRandom, MatchesBruteForce) {
  Rng rng(GetParam());
  const int n = rng.range(1, 5);
  const int m = rng.range(1, 5);
  std::vector<std::vector<double>> w(n, std::vector<double>(m, 0.0));
  for (auto& row : w)
    for (auto& x : row)
      if (rng.chance(0.6)) x = 1.0 + rng.range(0, 20);
  const auto r = max_weight_matching(w);
  EXPECT_NEAR(r.total_weight, brute_force_best(w), 1e-9)
      << "seed " << GetParam();
  // Validity: no right vertex reused; weight recomputes.
  double total = 0.0;
  std::vector<char> used(m, 0);
  for (int i = 0; i < n; ++i) {
    const int j = r.match_of_left[i];
    if (j < 0) continue;
    EXPECT_GT(w[i][j], 0.0);
    EXPECT_FALSE(used[j]);
    used[j] = 1;
    total += w[i][j];
  }
  EXPECT_NEAR(total, r.total_weight, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BipartiteRandom, ::testing::Range(0, 40));

TEST(MinCostAssignment, SimpleOptimal) {
  // Classic 2x2: diagonal is cheaper.
  const auto r = min_cost_assignment({{1.0, 10.0}, {10.0, 1.0}}, 1e17);
  EXPECT_EQ(r.match_of_left[0], 0);
  EXPECT_EQ(r.match_of_left[1], 1);
  EXPECT_DOUBLE_EQ(r.total_weight, 2.0);
}

TEST(MinCostAssignment, RespectsForbidden) {
  const auto r =
      min_cost_assignment({{1e18, 2.0}, {3.0, 1e18}}, /*forbidden=*/1e18);
  EXPECT_EQ(r.match_of_left[0], 1);
  EXPECT_EQ(r.match_of_left[1], 0);
}

TEST(MinCostAssignment, InfeasibleThrows) {
  EXPECT_THROW(
      min_cost_assignment({{1e18, 1e18}, {1.0, 2.0}}, /*forbidden=*/1e18),
      Error);
}

TEST(MinCostAssignment, MoreRowsThanColsThrows) {
  EXPECT_THROW(min_cost_assignment({{1.0}, {2.0}}, 1e18), Error);
}

TEST(MinCostAssignment, RectangularLeavesColumnsFree) {
  const auto r = min_cost_assignment({{5.0, 1.0, 3.0}}, 1e18);
  EXPECT_EQ(r.match_of_left[0], 1);
}

class AssignmentRandom : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentRandom, MatchesBruteForce) {
  Rng rng(GetParam() + 1000);
  const int n = rng.range(1, 4);
  const int m = rng.range(n, 5);
  std::vector<std::vector<double>> c(n, std::vector<double>(m));
  for (auto& row : c)
    for (auto& x : row) x = rng.range(0, 30);
  const auto r = min_cost_assignment(c, 1e18);
  // Brute force over permutations of columns.
  std::vector<int> cols(m);
  for (int j = 0; j < m; ++j) cols[j] = j;
  double best = 1e30;
  std::sort(cols.begin(), cols.end());
  do {
    double t = 0;
    for (int i = 0; i < n; ++i) t += c[i][cols[i]];
    best = std::min(best, t);
  } while (std::next_permutation(cols.begin(), cols.end()));
  EXPECT_NEAR(r.total_weight, best, 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentRandom, ::testing::Range(0, 30));

}  // namespace
}  // namespace hlp
