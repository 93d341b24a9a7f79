// Quickstart: build a small CDFG, run it through the staged flow pipeline
// (schedule -> bind -> elaborate -> map -> time -> simulate -> power), and
// print the binding plus a power report.
//
//   y0 = (a + b) * (c + d);  y1 = (a + b) + (c * d)
//
// Run:  ./build/quickstart
#include <iostream>

#include "cdfg/cdfg.hpp"
#include "cdfg/io.hpp"
#include "common/strings.hpp"
#include "flow/flow_context.hpp"
#include "flow/pipeline.hpp"
#include "rtl/vhdl.hpp"

int main() {
  using namespace hlp;

  // 1. Describe the dataflow.
  Cdfg g("quickstart");
  const int a = g.add_input("a");
  const int b = g.add_input("b");
  const int c = g.add_input("c");
  const int d = g.add_input("d");
  const int s1 = g.add_op("s1", OpKind::kAdd, ValueRef::input(a), ValueRef::input(b));
  const int s2 = g.add_op("s2", OpKind::kAdd, ValueRef::input(c), ValueRef::input(d));
  const int p1 = g.add_op("p1", OpKind::kMult, ValueRef::op(s1), ValueRef::op(s2));
  const int p2 = g.add_op("p2", OpKind::kMult, ValueRef::input(c), ValueRef::input(d));
  const int s3 = g.add_op("s3", OpKind::kAdd, ValueRef::op(s1), ValueRef::op(p2));
  g.add_output("y0", ValueRef::op(p1));
  g.add_output("y1", ValueRef::op(s3));
  g.validate();
  std::cout << "CDFG:\n" << cdfg_to_string(g) << "\n";

  // 2. A FlowContext memoises the shared artifacts (schedule, register
  //    binding, SA cache) under the resource constraint (1 adder, 1 mult).
  flow::ContextOptions opt;
  opt.scheduler = "list";  // registry key; "fds" also works
  opt.width = 8;
  flow::FlowContext ctx(g, ResourceConstraint{1, 1}, opt);
  std::cout << "schedule: " << ctx.schedule().num_steps << " control steps\n";

  // 3+4. Run the staged pipeline: the "hlpower" registry binder plus the
  //      evaluation stages (elaborate, map, time, simulate, power).
  flow::RunSpec spec;
  spec.binder.name = "hlpower";
  spec.num_vectors = 100;
  const flow::PipelineOutcome out = flow::Pipeline::run(ctx, spec);

  std::cout << "registers allocated: " << ctx.regs().num_registers << "\n";
  for (int op = 0; op < g.num_ops(); ++op)
    std::cout << "  op " << g.op(op).name << " -> FU" << out.fus.fu_of_op[op]
              << " (" << to_string(out.fus.kind_of_fu[out.fus.fu_of_op[op]])
              << ")\n";

  const FlowResult& r = out.flow;
  std::cout << "\nevaluation (100 random vectors):\n"
            << "  LUTs:            " << r.mapped.num_luts << "\n"
            << "  clock period:    " << r.clock_period_ns << " ns\n"
            << "  dynamic power:   " << r.report.dynamic_power_mw << " mW\n"
            << "  toggle rate:     " << r.report.toggle_rate_mps << " M/s\n"
            << "  glitch fraction: " << r.report.glitch_fraction << "\n";

  std::cout << "\nper-stage wall clock:\n";
  for (const auto& t : out.timings)
    std::cout << "  " << t.name << ": " << fmt_fixed(t.seconds * 1e3, 2)
              << " ms\n";

  // 5. Export RTL.
  std::cout << "\nVHDL (first lines):\n";
  const std::string vhdl =
      emit_vhdl(g, ctx.schedule(), Binding{ctx.regs(), out.fus});
  std::cout << vhdl.substr(0, vhdl.find("architecture")) << "...\n";
  return 0;
}
