// DCT-style pipeline: run one of the paper's DCT benchmarks (pr) through
// both binders — LOPASS (glitch-blind baseline) and HLPower — and compare
// the datapath quality side by side. This is the workload class the
// paper's introduction motivates (DSP kernels on FPGAs).
//
// Run:  ./build/dct_pipeline [benchmark] [vectors]
#include <cstdlib>
#include <iostream>

#include "cdfg/benchmarks.hpp"
#include "common/table.hpp"
#include "flow/flow_context.hpp"
#include "flow/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace hlp;
  const std::string name = argc > 1 ? argv[1] : "pr";
  const int vectors = argc > 2 ? std::atoi(argv[2]) : 200;

  // One FlowContext per benchmark: both binder runs share the schedule and
  // register binding it memoises (the paper's controlled setup).
  flow::ContextOptions opt;
  opt.width = 8;
  flow::FlowContext ctx(make_paper_benchmark(name), ResourceConstraint{2, 2},
                        opt);
  const Cdfg& g = ctx.cdfg();
  std::cout << "benchmark " << name << ": " << g.num_ops_of_kind(OpKind::kAdd)
            << " adds, " << g.num_ops_of_kind(OpKind::kMult)
            << " mults, depth " << g.depth() << "\n";
  std::cout << "schedule: " << ctx.schedule().num_steps << " steps, "
            << ctx.regs().num_registers << " registers\n\n";

  AsciiTable t({"binder", "power (mW)", "toggle (M/s)", "LUTs", "clk (ns)",
                "mux length", "muxDiff mean"});
  for (const auto& [tag, binder] :
       {std::pair<const char*, const char*>{"LOPASS", "lopass"},
        {"HLPower", "hlpower"}}) {
    flow::RunSpec spec;
    spec.binder.name = binder;
    spec.num_vectors = vectors;
    const flow::PipelineOutcome out = flow::Pipeline::run(ctx, spec);
    t.row()
        .add(tag)
        .add(out.flow.report.dynamic_power_mw, 1)
        .add(out.flow.report.toggle_rate_mps, 2)
        .add(out.flow.mapped.num_luts)
        .add(out.flow.clock_period_ns, 1)
        .add(out.flow.mux_stats.mux_length)
        .add(out.flow.mux_stats.muxdiff_mean, 2);
  }
  t.print(std::cout);
  return 0;
}
