// Tests for the CDFG IR, its serialisation, and the benchmark generators
// (Table 1 profile fidelity).
#include <gtest/gtest.h>

#include "cdfg/benchmarks.hpp"
#include "cdfg/cdfg.hpp"
#include "cdfg/io.hpp"
#include "common/error.hpp"

namespace hlp {
namespace {

Cdfg tiny() {
  // out = (a + b) * (a + c)
  Cdfg g("tiny");
  const int a = g.add_input("a");
  const int b = g.add_input("b");
  const int c = g.add_input("c");
  const int s1 = g.add_op("s1", OpKind::kAdd, ValueRef::input(a), ValueRef::input(b));
  const int s2 = g.add_op("s2", OpKind::kAdd, ValueRef::input(a), ValueRef::input(c));
  const int m = g.add_op("m", OpKind::kMult, ValueRef::op(s1), ValueRef::op(s2));
  g.add_output("out", ValueRef::op(m));
  return g;
}

TEST(Cdfg, BasicCounts) {
  const Cdfg g = tiny();
  EXPECT_EQ(g.num_inputs(), 3);
  EXPECT_EQ(g.num_ops(), 3);
  EXPECT_EQ(g.num_outputs(), 1);
  EXPECT_EQ(g.num_ops_of_kind(OpKind::kAdd), 2);
  EXPECT_EQ(g.num_ops_of_kind(OpKind::kMult), 1);
  EXPECT_EQ(g.num_edges(), 7);
}

TEST(Cdfg, ValidatesCleanGraph) { EXPECT_NO_THROW(tiny().validate()); }

TEST(Cdfg, DepthOfChain) {
  const Cdfg g = tiny();
  EXPECT_EQ(g.depth(), 2);
  const auto d = g.op_depths();
  EXPECT_EQ(d[0], 1);
  EXPECT_EQ(d[2], 2);
}

TEST(Cdfg, DeadValueDetected) {
  Cdfg g("dead");
  const int a = g.add_input("a");
  const int b = g.add_input("b");
  g.add_op("unused", OpKind::kAdd, ValueRef::input(a), ValueRef::input(b));
  const int used = g.add_op("used", OpKind::kAdd, ValueRef::input(a),
                            ValueRef::input(b));
  g.add_output("o", ValueRef::op(used));
  EXPECT_THROW(g.validate(), Error);
  EXPECT_EQ(g.dead_values().size(), 1u);
}

TEST(Cdfg, ForwardReferenceRejected) {
  Cdfg g("fwd");
  g.add_input("a");
  EXPECT_THROW(
      g.add_op("x", OpKind::kAdd, ValueRef::op(5), ValueRef::input(0)), Error);
}

TEST(Cdfg, DuplicateNamesRejected) {
  Cdfg g("dup");
  const int a = g.add_input("a");
  g.add_op("a", OpKind::kAdd, ValueRef::input(a), ValueRef::input(a));
  g.add_output("o", ValueRef::op(0));
  EXPECT_THROW(g.validate(), Error);
}

TEST(Cdfg, ConsumersTrackBothPorts) {
  const Cdfg g = tiny();
  const auto c = g.op_consumers();
  // Input a feeds both adders.
  EXPECT_EQ(c[0].size(), 2u);
  // s1's value (id = num_inputs + 0) feeds the multiplier once.
  EXPECT_EQ(c[3].size(), 1u);
  EXPECT_EQ(c[3][0], 2);
}

TEST(Cdfg, ValueNames) {
  const Cdfg g = tiny();
  EXPECT_EQ(g.value_name(ValueRef::input(1)), "b");
  EXPECT_EQ(g.value_name(ValueRef::op(2)), "m");
}

TEST(CdfgIo, RoundTrip) {
  const Cdfg g = tiny();
  const std::string text = cdfg_to_string(g);
  const Cdfg h = cdfg_from_string(text);
  EXPECT_EQ(cdfg_to_string(h), text);
  EXPECT_EQ(h.name(), "tiny");
  EXPECT_EQ(h.num_ops(), 3);
}

TEST(CdfgIo, ParseRejectsUnknownValue) {
  EXPECT_THROW(cdfg_from_string("cdfg x\nop a add q r\n"), Error);
}

TEST(CdfgIo, ParseRejectsUnknownKind) {
  EXPECT_THROW(
      cdfg_from_string("cdfg x\ninput a\nop z div a a\noutput o z\n"), Error);
}

TEST(CdfgIo, ParseRejectsMissingHeader) {
  EXPECT_THROW(cdfg_from_string("input a\n"), Error);
}

TEST(CdfgIo, CommentsAndBlanksIgnored) {
  const Cdfg g = cdfg_from_string(
      "# a comment\ncdfg c\n\ninput a # trailing\ninput b\n"
      "op x add a b\noutput o x\n");
  EXPECT_EQ(g.num_ops(), 1);
}

TEST(CdfgIo, DotContainsShapes) {
  const std::string dot = cdfg_to_dot(tiny());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // mult
  EXPECT_NE(dot.find("invtriangle"), std::string::npos);   // inputs
}

TEST(Benchmarks, SevenPaperProfiles) {
  EXPECT_EQ(paper_benchmarks().size(), 7u);
  EXPECT_EQ(benchmark_profile("chem").num_adds, 171);
  EXPECT_EQ(benchmark_profile("wang").num_mults, 22);
  EXPECT_THROW(benchmark_profile("nosuch"), Error);
}

class PaperBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperBenchmark, MatchesTable1Profile) {
  const BenchmarkProfile& p = benchmark_profile(GetParam());
  const Cdfg g = make_paper_benchmark(GetParam());
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.num_inputs(), p.num_inputs);
  EXPECT_EQ(g.num_outputs(), p.num_outputs);
  EXPECT_EQ(g.num_ops_of_kind(OpKind::kAdd), p.num_adds);
  EXPECT_EQ(g.num_ops_of_kind(OpKind::kMult), p.num_mults);
  // Edge count: a pure 2-input-op DFG has exactly 2*ops + POs edges; the
  // paper's count includes undocumented node types (see
  // src/cdfg/benchmarks.hpp).
  EXPECT_EQ(g.num_edges(), 2 * (p.num_adds + p.num_mults) + p.num_outputs);
  EXPECT_LE(g.num_edges(), p.paper_edges);
}

TEST_P(PaperBenchmark, DeterministicInSeed) {
  const Cdfg a = make_paper_benchmark(GetParam(), 42);
  const Cdfg b = make_paper_benchmark(GetParam(), 42);
  EXPECT_EQ(cdfg_to_string(a), cdfg_to_string(b));
  const Cdfg c = make_paper_benchmark(GetParam(), 43);
  EXPECT_NE(cdfg_to_string(a), cdfg_to_string(c));
}

INSTANTIATE_TEST_SUITE_P(Table1, PaperBenchmark,
                         ::testing::Values("chem", "dir", "honda", "mcm", "pr",
                                           "steam", "wang"));

class RandomDfg : public ::testing::TestWithParam<int> {};

TEST_P(RandomDfg, AlwaysValid) {
  const Cdfg g = make_random_dfg(4, 3, 20 + GetParam(), GetParam());
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.num_ops(), 20 + GetParam());
  EXPECT_EQ(g.num_outputs(), 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDfg, ::testing::Range(0, 25));

TEST(Benchmarks, OutputCountFeasibilityEnforced) {
  BenchmarkProfile p;
  p.name = "bad";
  p.num_inputs = 2;
  p.num_outputs = 10;
  p.num_adds = 1;
  p.num_mults = 0;
  EXPECT_THROW(make_benchmark(p), Error);
}

}  // namespace
}  // namespace hlp
