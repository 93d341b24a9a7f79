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
               "src/cdfg/benchmarks.hpp)\n";
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
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
