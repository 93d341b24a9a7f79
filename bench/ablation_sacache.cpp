// Ablation: precalculated vs dynamic SA estimation (Section 5.2.2).
//
// The paper: "this method provided us with the same results as running the
// algorithm with dynamic SA estimation, but with a much shorter run time."
// This bench verifies the exact-equality claim and measures the speedup.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/hlpower.hpp"
#include "mapper/techmap.hpp"
#include "power/activity.hpp"
#include "power/exact_activity.hpp"
#include "power/sa_mode.hpp"
#include "rtl/partial_datapath.hpp"

namespace {

void print_sacache_study() {
  using namespace hlp;
  using namespace hlp::bench;
  using Clock = std::chrono::steady_clock;

  // Equality: cached vs dynamic values agree exactly on a grid.
  SaCache& cache = sa_cache();
  int checked = 0, equal = 0;
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (int a = 1; a <= 4; ++a)
      for (int b = 1; b <= 4; ++b) {
        const OpKind k = static_cast<OpKind>(kind);
        ++checked;
        if (cache.switching_activity(k, a, b) == cache.compute_uncached(k, a, b))
          ++equal;
      }
  std::cout << "Ablation: SA precalc vs dynamic (Section 5.2.2)\n";
  std::cout << "cached == dynamic on " << equal << "/" << checked
            << " (kind, muxA, muxB) combinations\n";

  // Speedup: bind `pr` with a warm cache vs a cold cache per edge weight.
  flow::FlowContext& ctx = context("pr");
  const auto t0 = Clock::now();
  bind_fus_hlpower(ctx.cdfg(), ctx.schedule(), ctx.regs(), ctx.rc(), cache);
  const double warm =
      std::chrono::duration<double>(Clock::now() - t0).count();
  SaCache cold(bench_width());
  const auto t1 = Clock::now();
  bind_fus_hlpower(ctx.cdfg(), ctx.schedule(), ctx.regs(), ctx.rc(), cold);
  const double cold_s =
      std::chrono::duration<double>(Clock::now() - t1).count();
  std::cout << "bind(pr): warm cache " << fmt_fixed(warm * 1e3, 1)
            << " ms, cold cache " << fmt_fixed(cold_s * 1e3, 1) << " ms ("
            << cold.misses() << " SA computations)\n\n";
}

// Monte-Carlo SA of the precalc table's partial datapaths: the scalar
// event simulator vs the bit-parallel batch engine, identical counts
// required, wall-clock side by side.
void print_batched_vs_scalar() {
  using namespace hlp;
  using namespace hlp::bench;
  using Clock = std::chrono::steady_clock;
  constexpr int kVectors = 512;
  AsciiTable t({"kind/muxA/muxB", "scalar (ms)", "batched (ms)", "speedup",
                "identical"});
  double total_scalar = 0.0, total_batched = 0.0;
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (const auto& [a, b] : {std::pair{1, 1}, {2, 2}, {4, 4}}) {
      const OpKind k = static_cast<OpKind>(kind);
      const Netlist dp = make_partial_datapath(k, a, b, bench_width());
      const MapResult mapped = tech_map(dp);
      const auto t0 = Clock::now();
      const auto scalar =
          simulate_activity(mapped.lut_netlist, kVectors, 1, SimEngine::kScalar);
      const auto t1 = Clock::now();
      const auto batched = simulate_activity(mapped.lut_netlist, kVectors, 1,
                                             SimEngine::kBatched);
      const auto t2 = Clock::now();
      const double s = std::chrono::duration<double>(t1 - t0).count();
      const double bt = std::chrono::duration<double>(t2 - t1).count();
      total_scalar += s;
      total_batched += bt;
      const bool identical =
          scalar.stats.toggles == batched.stats.toggles &&
          scalar.stats.functional_transitions ==
              batched.stats.functional_transitions;
      t.row()
          .add(std::string(to_string(k)) + "/" + std::to_string(a) + "/" +
               std::to_string(b))
          .add(s * 1e3, 2)
          .add(bt * 1e3, 2)
          .add(s / bt, 1)
          .add(identical ? "yes" : "NO");
    }
  std::cout << "Simulated SA: scalar vs bit-parallel engine (" << kVectors
            << " vectors)\n";
  t.print(std::cout);
  std::cout << "Overall speedup: " << fmt_fixed(total_scalar / total_batched, 1)
            << "x\n\n";
}

// The two SA-table backends side by side on the precalc table's grid,
// against the budgeted exact BDD engine as the reference: the deltas show
// what each table backend trades away, and the cones column shows how
// much of the "exact" number really was analytic (multiplier cones blow
// the default node budget and fall back per cone by design).
void print_mode_comparison() {
  using namespace hlp;
  using namespace hlp::bench;
  SaCache est(bench_width(), SaMode::kEstimated);
  SaCache sim(bench_width(), SaMode::kSimulated);
  // The fallback stimulus matches the sim table's, so a hybrid row's
  // sampled cones read the same Monte-Carlo run as the sim column.
  ExactActivityOptions opt;
  opt.fallback_vectors = SaCache::kSimVectors;
  opt.fallback_seed = SaCache::kSimSeed;
  AsciiTable t({"kind/muxA/muxB", "estimate", "sim", "exact", "est-exact",
                "sim-exact", "exact cones"});
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (const auto& [a, b] : {std::pair{1, 1}, {2, 2}, {4, 4}}) {
      const OpKind k = static_cast<OpKind>(kind);
      const double e = est.switching_activity(k, a, b);
      const double s = sim.switching_activity(k, a, b);
      const Netlist dp = make_partial_datapath(k, a, b, bench_width());
      const ExactActivityResult r =
          exact_activity(tech_map(dp).lut_netlist, opt);
      const double x = r.total_sa;
      t.row()
          .add(std::string(to_string(k)) + "/" + std::to_string(a) + "/" +
               std::to_string(b))
          .add(e, 3)
          .add(s, 3)
          .add(x, 3)
          .add(e - x, 3)
          .add(s - x, 3)
          .add(std::to_string(r.num_exact) + "/" +
               std::to_string(r.num_exact + r.num_sampled) +
               (r.fell_back ? " (hybrid)" : ""));
    }
  std::cout << "SA backends: estimate vs sim (HLP_SA_MODE) vs the exact "
               "oracle\n";
  t.print(std::cout);
  std::cout << "exact cones column: nets answered analytically / total;"
               " (hybrid) rows had cones past kDefaultExactBudget="
            << kDefaultExactBudget
            << " answered by the Monte-Carlo fallback\n\n";
}

void BM_SaLookupWarm(benchmark::State& state) {
  using namespace hlp;
  auto& cache = hlp::bench::sa_cache();
  cache.switching_activity(OpKind::kAdd, 3, 3);
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.switching_activity(OpKind::kAdd, 3, 3));
}
BENCHMARK(BM_SaLookupWarm);

void BM_SaComputeCold(benchmark::State& state) {
  using namespace hlp;
  auto& cache = hlp::bench::sa_cache();
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.compute_uncached(OpKind::kAdd, 3, 3));
}
BENCHMARK(BM_SaComputeCold)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_sacache_study();
  print_mode_comparison();
  print_batched_vs_scalar();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
