#include "rtl/flow.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "sim/vectors.hpp"

namespace hlp {

int vectors_from_env(int fallback) {
  return env_int("HLP_VECTORS", fallback);
}

FlowResult run_flow(const Cdfg& g, const Schedule& s, const Binding& b,
                    const FlowParams& params) {
  FlowResult r;

  // RTL elaboration + "synthesis" (technology mapping).
  const Datapath dp = elaborate_datapath(g, s, b, DatapathParams{params.width});
  r.mapped = tech_map(dp.netlist, kEvalMap);
  r.clock_period_ns = clock_period_ns(r.mapped.lut_netlist);
  r.mux_stats = compute_datapath_stats(g, b.regs, b.fus);

  // Stimulus: num_vectors random input samples, each run through the whole
  // schedule (load phase + every control step).
  const auto samples = random_samples(params.num_vectors, g.num_inputs(),
                                      params.width, params.seed);
  const auto frames = make_frames(dp.netlist, dp, samples);
  r.sim = simulate_frames(r.mapped.lut_netlist, frames);

  const double functional_per_cycle =
      r.sim.num_cycles
          ? static_cast<double>(r.sim.functional_transitions) /
                static_cast<double>(r.sim.num_cycles)
          : 0.0;
  r.report = power_from_toggles(r.mapped.lut_netlist, r.sim.toggles,
                                r.sim.num_cycles, r.clock_period_ns,
                                functional_per_cycle);
  return r;
}

}  // namespace hlp
