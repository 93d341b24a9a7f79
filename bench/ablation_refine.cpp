// Ablation: post-binding port refinement (library extension; the paper's
// future-work direction of tighter multiplexer control). Measures how many
// orientation flips the greedy descent finds on top of each binder and
// what they buy in Eq. 4 cost and measured toggles.
#include <benchmark/benchmark.h>

#include <iostream>
#include <tuple>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/port_refine.hpp"

namespace {

void print_refine_study() {
  using namespace hlp;
  using namespace hlp::bench;
  AsciiTable t({"Bench", "binder", "flips", "Eq4 cost before/after",
                "toggle before (M/s)", "toggle after", "chg%"});
  for (const auto& name : {std::string("pr"), std::string("wang"),
                           std::string("mcm")}) {
    const Comparison& cmp = comparison(name);
    for (const auto& [tag, binder, ev] :
         {std::tuple<const char*, const char*, const Evaluated*>{
              "LOPASS", "lopass", &cmp.lopass},
          {"HLPower", "hlpower", &cmp.hlp_half}}) {
      // Same binder with the pipeline's refine stage switched on; the
      // outcome carries the PortRefineResult of that stage.
      flow::RunSpec spec;
      spec.binder.name = binder;
      spec.binder.refine = true;
      spec.num_vectors = bench_vectors();
      const flow::PipelineOutcome out =
          flow::Pipeline::run(context(name), spec);
      const PortRefineResult& pr = out.refine;
      const double before = ev->flow.report.toggle_rate_mps;
      const double after = out.flow.report.toggle_rate_mps;
      t.row()
          .add(name)
          .add(tag)
          .add(pr.flips_applied)
          .add(fmt_fixed(pr.cost_before, 0) + "/" + fmt_fixed(pr.cost_after, 0))
          .add(before, 1)
          .add(after, 1)
          .add(pct(before, after), 2);
    }
  }
  std::cout << "Ablation: post-binding port refinement (extension)\n";
  t.print(std::cout);
  std::cout << "\n";
}

void BM_RefinePorts(benchmark::State& state) {
  using namespace hlp;
  using namespace hlp::bench;
  flow::FlowContext& ctx = context("mcm");
  const Comparison& cmp = comparison("mcm");
  for (auto _ : state)
    benchmark::DoNotOptimize(
        refine_ports(ctx.cdfg(), ctx.regs(), cmp.hlp_half.fus, sa_cache()));
}
BENCHMARK(BM_RefinePorts)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_refine_study();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
