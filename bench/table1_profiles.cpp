// Table 1: benchmark profiles (PIs, POs, adds, mults, edges).
//
// Prints our reconstructed benchmark suite next to the paper's reported
// numbers, then times benchmark generation with google-benchmark.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

void print_table1() {
  using namespace hlp;
  AsciiTable t({"Benchmark", "PIs", "POs", "Adds", "Mults", "Edges(ours)",
                "Edges(paper)", "Depth"});
  for (const auto& name : bench::names()) {
    const BenchmarkProfile& p = benchmark_profile(name);
    const Cdfg& g = bench::context(name).cdfg();
    t.row()
        .add(name)
        .add(g.num_inputs())
        .add(g.num_outputs())
        .add(g.num_ops_of_kind(OpKind::kAdd))
        .add(g.num_ops_of_kind(OpKind::kMult))
        .add(g.num_edges())
        .add(p.paper_edges)
        .add(g.depth());
  }
  std::cout << "Table 1: Benchmark Profiles (synthetic reconstruction; see "
               "DESIGN.md)\n";
  t.print(std::cout);
  std::cout << "\n";
}

void BM_GenerateBenchmark(benchmark::State& state) {
  const auto& name = hlp::bench::names()[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(hlp::make_paper_benchmark(name));
  }
  state.SetLabel(name);
}
BENCHMARK(BM_GenerateBenchmark)->DenseRange(0, 6);

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  // The ROADMAP's "exploit simulate_batch's multi-run lanes" acceptance
  // sweep: 64 stimulus seeds of one binding, coalesced vs independent.
  hlp::bench::print_seed_sweep(std::cout, {"wang", "pr"}, 64);
  // Per-width scaling of the coalesced path: 512 seeds fill one whole
  // word at EVERY backend (8 u64 words .. 1 avx512 word), so the table
  // measures width scaling rather than word utilisation; bit-identity is
  // checked against the u64 row.
  hlp::bench::print_simd_sweep(std::cout, {"wang", "pr"}, 512);
  // The process-level axis: the same coalesced sweep through HLP_WORKERS
  // (default 2) hlp_worker processes vs the same number of in-process
  // threads, bit-identity checked — the distributed CI leg's artifact.
  hlp::bench::print_worker_sweep(std::cout, {"wang", "pr"}, 64);
  // The persistence axis: the same sweep cold (populating a fresh
  // HLP_STORE directory) and then warm from a fresh runner — the
  // cold-vs-warm stage-timing artifact of the CI artifact-store leg.
  // Bit-identity and whole-span cache hits are checked in the table.
  hlp::bench::print_store_sweep(std::cout, {"wang", "pr"}, 64);
  // The exploration axis on top of the store: the canonical knob walk
  // (more vectors / binder retune / scheduler switch) cold then warm —
  // the warm walk must be all-hits / zero-recompute on every step and
  // both walks must reach the bit-identical Pareto frontier.
  hlp::bench::print_explore_sweep(std::cout, {"wang", "pr"}, 16);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
