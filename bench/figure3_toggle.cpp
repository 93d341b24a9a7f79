// Figure 3: average toggle rate (millions of transitions per second) for
// LOPASS, HLPower alpha=1 and HLPower alpha=0.5 on every benchmark, plus
// the average decrease of the alpha=0.5 configuration — and the throughput
// of the pipeline's batched simulation engine (one input sample per lane)
// against the scalar oracle on the same stimulus.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "rtl/lane_sim.hpp"
#include "sim/vectors.hpp"

namespace {

// The span comparison() published for `name`'s HLPower a=0.5 run: the
// control plan and depth-mapped LUT netlist its `simulate` stage read.
std::shared_ptr<const hlp::flow::StageCache::Entry> published_span(
    const std::string& name) {
  using namespace hlp;
  bench::comparison(name);
  flow::FlowContext& ctx = bench::context(name);
  auto span = ctx.stage_cache().find(ctx.binding_hash(flow::BinderSpec{}));
  HLP_CHECK(span, "no published span for '" << name << "'");
  return span;
}

void print_figure3() {
  using namespace hlp;
  using namespace hlp::bench;
  AsciiTable t({"Bench", "LOPASS (M/s)", "a=1 (M/s)", "a=0.5 (M/s)",
                "a=1 chg%", "a=0.5 chg%"});
  double d1 = 0, dh = 0;
  for (const auto& name : names()) {
    const Comparison& cmp = comparison(name);
    const double l = cmp.lopass.flow.report.toggle_rate_mps;
    const double a1 = cmp.hlp_one.flow.report.toggle_rate_mps;
    const double ah = cmp.hlp_half.flow.report.toggle_rate_mps;
    d1 += pct(l, a1);
    dh += pct(l, ah);
    t.row()
        .add(name)
        .add(l, 2)
        .add(a1, 2)
        .add(ah, 2)
        .add(pct(l, a1), 1)
        .add(pct(l, ah), 1);
  }
  const double n = static_cast<double>(names().size());
  std::cout << "Figure 3: Average Toggle Rate (unit-delay simulation, "
            << bench::bench_vectors() << " vectors)\n";
  t.print(std::cout);
  std::cout << "Average change vs LOPASS: a=1 " << fmt_fixed(d1 / n, 1)
            << "%, a=0.5 " << fmt_fixed(dh / n, 1)
            << "%  (paper: a=1 -8.4%, a=0.5 -21.9%)\n\n";
}

// Scalar vs batched simulation of the paper's toggle runs, on the span the
// pipeline's `simulate` stage read, the batched side being the engine and
// word width that stage runs: identical stimulus, bit-identical counts,
// wall-clock side by side.
void print_batch_comparison() {
  using namespace hlp;
  using namespace hlp::bench;
  using Clock = std::chrono::steady_clock;
  AsciiTable t({"Bench", "scalar (ms)", "batched (ms)", "speedup",
                "identical"});
  const SimdMode simd = effective_simd_mode(
      SimdMode::kAuto, static_cast<std::size_t>(bench_vectors()));
  double total_scalar = 0.0, total_batched = 0.0;
  for (const auto& name : names()) {
    const auto span = published_span(name);
    const Netlist& luts = span->mapped.lut_netlist;
    // The pipeline's stimulus (RunSpec's default seed).
    const auto samples = random_samples(
        bench_vectors(), context(name).cdfg().num_inputs(), bench_width(),
        hlp::flow::RunSpec{}.seed);

    const auto t0 = Clock::now();
    const CycleSimStats scalar =
        simulate_frames(luts, make_frames(luts, span->plan, samples));
    const auto t1 = Clock::now();
    const CycleSimStats batched =
        simulate_sample_lanes(luts, span->plan, samples, simd);
    const auto t2 = Clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    const double b = std::chrono::duration<double>(t2 - t1).count();
    total_scalar += s;
    total_batched += b;
    const bool identical =
        scalar.toggles == batched.toggles &&
        scalar.total_transitions == batched.total_transitions &&
        scalar.functional_transitions == batched.functional_transitions;
    t.row()
        .add(name)
        .add(s * 1e3, 2)
        .add(b * 1e3, 2)
        .add(s / b, 1)
        .add(identical ? "yes" : "NO");
  }
  std::cout << "Batch simulation: scalar vs bit-parallel (one sample per "
            << "lane, " << simd_mode_name(simd) << " word, "
            << bench::bench_vectors() << " vectors)\n";
  t.print(std::cout);
  std::cout << "Overall speedup: " << fmt_fixed(total_scalar / total_batched, 1)
            << "x\n\n";
}

void BM_SimulatePr(benchmark::State& state) {
  using namespace hlp;
  using namespace hlp::bench;
  const auto span = published_span("pr");
  const Netlist& luts = span->mapped.lut_netlist;
  const auto samples = std::vector<std::vector<std::uint64_t>>(
      10, std::vector<std::uint64_t>(context("pr").cdfg().num_inputs(), 0x5a));
  const auto frames = make_frames(luts, span->plan, samples);
  for (auto _ : state) benchmark::DoNotOptimize(simulate_frames(luts, frames));
}
BENCHMARK(BM_SimulatePr)->Unit(benchmark::kMillisecond);

void BM_SimulateBatchedPr(benchmark::State& state) {
  using namespace hlp;
  using namespace hlp::bench;
  const auto span = published_span("pr");
  const Netlist& luts = span->mapped.lut_netlist;
  const auto samples = std::vector<std::vector<std::uint64_t>>(
      10, std::vector<std::uint64_t>(context("pr").cdfg().num_inputs(), 0x5a));
  const SimdMode simd = effective_simd_mode(SimdMode::kAuto, samples.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        simulate_sample_lanes(luts, span->plan, samples, simd));
}
BENCHMARK(BM_SimulateBatchedPr)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure3();
  print_batch_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
