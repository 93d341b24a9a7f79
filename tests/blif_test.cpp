// Tests for BLIF read/write round-trips and the .subckt flattening
// machinery (Figure 2's partial-datapath generation path).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "netlist/blif.hpp"
#include "netlist/modules.hpp"
#include "rtl/partial_datapath.hpp"
#include "sim/simulator.hpp"

namespace hlp {
namespace {

// Zero-delay functional evaluation over all inputs as one word.
std::uint64_t eval_all(const Netlist& n, std::uint64_t input_bits) {
  UnitDelaySimulator sim(n);
  for (std::size_t j = 0; j < n.inputs().size(); ++j)
    sim.set_input(n.inputs()[j], (input_bits >> j) & 1u);
  sim.clock_edge();
  sim.settle_zero_delay(false);
  std::uint64_t out = 0;
  for (std::size_t j = 0; j < n.outputs().size(); ++j)
    if (sim.value(n.outputs()[j])) out |= 1ull << j;
  return out;
}

TEST(Blif, WriteContainsStructure) {
  const Netlist add = make_adder(2);
  const std::string s = blif_to_string(add);
  EXPECT_NE(s.find(".model add2"), std::string::npos);
  EXPECT_NE(s.find(".inputs a0 a1 b0 b1"), std::string::npos);
  EXPECT_NE(s.find(".outputs s0 s1"), std::string::npos);
  EXPECT_NE(s.find(".names"), std::string::npos);
  EXPECT_NE(s.find(".end"), std::string::npos);
}

class BlifRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BlifRoundTrip, ModulesSurviveFunctionally) {
  Netlist orig = [&] {
    switch (GetParam()) {
      case 0:
        return make_adder(3);
      case 1:
        return make_multiplier(3);
      case 2:
        return make_mux(4, 2);
      default:
        return make_mux(3, 3);
    }
  }();
  const Netlist back = blif_from_string(blif_to_string(orig));
  EXPECT_EQ(back.inputs().size(), orig.inputs().size());
  EXPECT_EQ(back.outputs().size(), orig.outputs().size());
  const int bits = static_cast<int>(orig.inputs().size());
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t v = rng.next_u64() & ((1ull << bits) - 1);
    EXPECT_EQ(eval_all(orig, v), eval_all(back, v)) << "inputs " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Modules, BlifRoundTrip, ::testing::Range(0, 4));

TEST(Blif, ParsesDashCover) {
  // f = a OR b written with dashes.
  const Netlist n = blif_from_string(
      ".model t\n.inputs a b\n.outputs f\n.names a b f\n1- 1\n-1 1\n.end\n");
  EXPECT_EQ(eval_all(n, 0b00), 0u);
  EXPECT_EQ(eval_all(n, 0b01), 1u);
  EXPECT_EQ(eval_all(n, 0b10), 1u);
  EXPECT_EQ(eval_all(n, 0b11), 1u);
}

TEST(Blif, ParsesZeroPhaseCover) {
  // f = NOT(a AND b) via a 0-phase cover.
  const Netlist n = blif_from_string(
      ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n");
  EXPECT_EQ(eval_all(n, 0b11), 0u);
  EXPECT_EQ(eval_all(n, 0b01), 1u);
}

TEST(Blif, ParsesConstants) {
  const Netlist n = blif_from_string(
      ".model t\n.inputs a\n.outputs f g h\n.names f\n1\n.names g\n"
      "\n.names a h\n1 1\n.end\n");
  EXPECT_EQ(eval_all(n, 0b0) & 0b11, 0b01u);  // f=1, g=0
}

TEST(Blif, ParsesLatch) {
  const Netlist n = blif_from_string(
      ".model t\n.inputs d\n.outputs q\n.latch d q 0\n.end\n");
  EXPECT_EQ(n.num_latches(), 1);
  EXPECT_TRUE(n.is_latch_output(n.outputs()[0]));
}

TEST(Blif, ContinuationLines) {
  const Netlist n = blif_from_string(
      ".model t\n.inputs \\\na b\n.outputs f\n.names a b f\n11 1\n.end\n");
  EXPECT_EQ(n.inputs().size(), 2u);
}

TEST(Blif, SubcktFlattens) {
  BlifLibrary lib;
  lib.add(make_adder(2));
  const Netlist top = blif_from_string(
      ".search add2.blif\n"
      ".model top\n.inputs x0 x1 y0 y1\n.outputs z0 z1\n"
      ".subckt add2 a0=x0 a1=x1 b0=y0 b1=y1 s0=z0 s1=z1\n.end\n",
      lib);
  EXPECT_NO_THROW(top.validate());
  // 2+3 = 5 -> 1 (mod 4)
  EXPECT_EQ(eval_all(top, 0b1110), 0b01u);
}

TEST(Blif, SubcktUnknownModelThrows) {
  EXPECT_THROW(
      blif_from_string(".model t\n.inputs a\n.outputs z\n"
                       ".subckt nomodel x=a y=z\n.end\n"),
      Error);
}

TEST(Blif, SubcktUnboundInputThrows) {
  BlifLibrary lib;
  lib.add(make_adder(1));
  EXPECT_THROW(blif_from_string(".model t\n.inputs a\n.outputs z\n"
                                ".subckt add1 a0=a s0=z\n.end\n",
                                lib),
               Error);
}

TEST(Blif, MalformedInputsThrow) {
  EXPECT_THROW(blif_from_string(""), Error);                       // no model
  EXPECT_THROW(blif_from_string(".model a\n.model b\n.end\n"), Error);
  EXPECT_THROW(blif_from_string(".model t\n.foo\n.end\n"), Error);
  EXPECT_THROW(
      blif_from_string(".model t\n.inputs a\n.outputs z\n.end\n"), Error);

  // Every error names the input line of the offending row or directive,
  // including the ones raised while the netlist is built after the read.
  BlifLibrary lib;
  lib.add(make_adder(2));  // inputs a0 a1 b0 b1, outputs s0 s1
  const struct {
    const char* text;
    const char* where;
  } located[] = {
      // bad cover character
      {".model t\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n",
       "line 5: "},
      // mixed-phase cover
      {".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n",
       "line 6: "},
      // more .names inputs than a truth table holds
      {".model t\n.inputs a b c d e f g\n.outputs y\n"
       ".names a b c d e f g y\n.end\n",
       "line 4: "},
      // an output that nothing drives
      {".model t\n.inputs a\n.outputs y z\n.names a y\n1 1\n.end\n",
       "line 3: "},
      // an output that is read but never driven
      {".model t\n.inputs a\n.outputs z y\n.names a z y\n11 1\n.end\n",
       "line 3: "},
      // unknown .subckt model
      {".model t\n.inputs a\n.outputs y\n.subckt nosuch x=a\n.end\n",
       "line 4: "},
      // unbound .subckt input (a1)
      {".model t\n.inputs a\n.outputs y\n"
       ".subckt add2 a0=a b0=a b1=a s0=y\n.end\n",
       "line 4: "},
      // one net driven by two .names
      {".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n"
       ".names a y\n0 1\n.end\n",
       "line 6: "},
      // a latch output that is also a primary input
      {".model t\n.inputs a q\n.outputs q\n.latch a q 0\n.end\n",
       "line 4: "},
      // an input declared twice
      {".model t\n.inputs a\n.inputs a\n.outputs a\n.end\n", "line 3: "},
  };
  for (const auto& row : located) {
    try {
      blif_from_string(row.text, lib);
      ADD_FAILURE() << "accepted:\n" << row.text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(row.where), std::string::npos)
          << "expected '" << row.where << "' in: " << e.what();
    }
  }
}

TEST(Blif, CoverArityMismatchThrows) {
  EXPECT_THROW(blif_from_string(".model t\n.inputs a b\n.outputs f\n"
                                ".names a b f\n111 1\n.end\n"),
               Error);
}

TEST(BlifLibrary, ContainsAndGet) {
  BlifLibrary lib;
  EXPECT_FALSE(lib.contains("add2"));
  lib.add(make_adder(2));
  EXPECT_TRUE(lib.contains("add2"));
  EXPECT_EQ(lib.get("add2").name(), "add2");
  EXPECT_THROW(lib.get("mult2"), Error);
}

TEST(PartialDatapath, BlifTextMatchesFigure2Shape) {
  const auto pd = make_partial_datapath_blif(OpKind::kMult, 2, 3, 2);
  EXPECT_NE(pd.blif.find(".search mux2x2.blif"), std::string::npos);
  EXPECT_NE(pd.blif.find(".search mux3x2.blif"), std::string::npos);
  EXPECT_NE(pd.blif.find(".search mult2.blif"), std::string::npos);
  EXPECT_NE(pd.blif.find(".model mult_2_3"), std::string::npos);
  EXPECT_NE(pd.blif.find(".subckt mux2x2"), std::string::npos);
  EXPECT_NE(pd.blif.find(".subckt mult2"), std::string::npos);
}

TEST(PartialDatapath, BlifFlattensToSameFunctionAsDirect) {
  const auto pd = make_partial_datapath_blif(OpKind::kAdd, 2, 2, 2);
  const Netlist from_blif = blif_from_string(pd.blif, pd.library);
  const Netlist direct = make_partial_datapath(OpKind::kAdd, 2, 2, 2);
  ASSERT_EQ(from_blif.inputs().size(), direct.inputs().size());
  Rng rng(31);
  const int bits = static_cast<int>(direct.inputs().size());
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t v = rng.next_u64() & ((1ull << bits) - 1);
    EXPECT_EQ(eval_all(from_blif, v), eval_all(direct, v));
  }
}

TEST(PartialDatapath, DirectConnectionWhenSizeOne) {
  // nA = nB = 1: no mux gates at all, just the FU.
  const Netlist dp = make_partial_datapath(OpKind::kAdd, 1, 1, 4);
  const Netlist add = make_adder(4);
  EXPECT_EQ(dp.num_gates(), add.num_gates());
}

TEST(PartialDatapath, ComputesMuxedSum) {
  // 2-arm mux on A, 2-arm on B, width 2: pick arm 1 on both and add.
  const Netlist dp = make_partial_datapath(OpKind::kAdd, 2, 2, 2);
  // inputs: a_r0(2b) a_r1(2b) a_sel, b_r0 b_r1 b_sel.
  // a_r1 = 3, b_r1 = 2, selects = 1 -> 3 + 2 = 5 -> 01 mod 4.
  std::uint64_t bits = 0;
  bits |= 0b11ull << 2;  // a_r1 = 3
  bits |= 1ull << 4;     // a_sel = 1
  bits |= 0b10ull << 7;  // b_r1 = 2
  bits |= 1ull << 9;     // b_sel = 1
  EXPECT_EQ(eval_all(dp, bits), 0b01u);
}

}  // namespace
}  // namespace hlp
