// Table 3: dynamic power, clock period, LUTs and multiplexer results for
// the LOPASS and HLPower (alpha = 0.5) bindings, with percentage changes
// and suite averages — the paper's headline table.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace {

void print_table3() {
  using namespace hlp;
  using namespace hlp::bench;
  AsciiTable t({"Bench", "Pow L/H (mW)", "Clk L/H (ns)", "LUTs L/H",
                "LrgMux L/H", "MuxLen L/H", "Pow%", "Clk%", "LUT%", "Mux",
                "Len%"});
  double p_sum = 0, c_sum = 0, l_sum = 0, m_sum = 0, len_sum = 0;
  for (const auto& name : names()) {
    const Comparison& cmp = comparison(name);
    const auto& L = cmp.lopass;
    const auto& H = cmp.hlp_half;
    const double dp = pct(L.flow.report.dynamic_power_mw,
                          H.flow.report.dynamic_power_mw);
    const double dc = pct(L.flow.clock_period_ns, H.flow.clock_period_ns);
    const double dl = pct(L.flow.mapped.num_luts, H.flow.mapped.num_luts);
    const double dm = H.mux.largest_mux - L.mux.largest_mux;
    const double dlen = pct(L.mux.mux_length, H.mux.mux_length);
    p_sum += dp;
    c_sum += dc;
    l_sum += dl;
    m_sum += dm;
    len_sum += dlen;
    t.row()
        .add(name)
        .add(fmt_fixed(L.flow.report.dynamic_power_mw, 1) + "/" +
             fmt_fixed(H.flow.report.dynamic_power_mw, 1))
        .add(fmt_fixed(L.flow.clock_period_ns, 1) + "/" +
             fmt_fixed(H.flow.clock_period_ns, 1))
        .add(std::to_string(L.flow.mapped.num_luts) + "/" +
             std::to_string(H.flow.mapped.num_luts))
        .add(std::to_string(L.mux.largest_mux) + "/" +
             std::to_string(H.mux.largest_mux))
        .add(std::to_string(L.mux.mux_length) + "/" +
             std::to_string(H.mux.mux_length))
        .add(dp, 2)
        .add(dc, 2)
        .add(dl, 2)
        .add(dm, 1)
        .add(dlen, 1);
  }
  const double n = static_cast<double>(names().size());
  t.row()
      .add("Average")
      .add("")
      .add("")
      .add("")
      .add("")
      .add("")
      .add(p_sum / n, 2)
      .add(c_sum / n, 2)
      .add(l_sum / n, 2)
      .add(m_sum / n, 1)
      .add(len_sum / n, 1);
  std::cout << "Table 3: Power, Clock Period, LUTs, Multiplexers — "
               "LOPASS (L) vs HLPower alpha=0.5 (H), "
            << bench::bench_vectors() << " vectors\n";
  t.print(std::cout);
  std::cout << "(paper averages: power -19.28%, clock +0.58%, LUTs -9.11%, "
               "largest mux -2.6, mux length -7.2%)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  print_table3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
