// End-to-end evaluation flow — the reproduction of the paper's Quartus II
// pipeline (Section 6.1):
//
//   binding -> RTL elaboration -> technology mapping (place of "quartus_sh
//   --flow compile") -> static timing -> unit-delay simulation with random
//   vectors ("quartus_sim" with the .vwf) -> power analysis ("quartus_pow").
//
// Both binders are pushed through the identical flow with identical seeds,
// matching the paper's controlled setup.
#pragma once

#include <cstdint>

#include "binding/binding.hpp"
#include "binding/datapath_stats.hpp"
#include "cdfg/cdfg.hpp"
#include "mapper/techmap.hpp"
#include "netlist/timing.hpp"
#include "power/power_model.hpp"
#include "rtl/datapath.hpp"
#include "sched/schedule.hpp"
#include "sim/schedule_sim.hpp"

namespace hlp {

/// The flow's one mapping: depth-oriented, as the paper sets Quartus to
/// "optimization technique: speed". The glitch-aware mapping mode is used
/// inside the SA *estimator*, not here. Timing and power take their
/// default TimingModel and PowerParams.
inline constexpr MapParams kEvalMap{CutParams{}, MapMode::kDepth};

struct FlowParams {
  int width = 8;
  int num_vectors = 1000;
  std::uint64_t seed = 42;
};

struct FlowResult {
  MapResult mapped;
  double clock_period_ns = 0.0;
  CycleSimStats sim;
  PowerReport report;
  DatapathStats mux_stats;
};

/// Number of vectors to simulate: HLP_VECTORS env override, else `fallback`.
int vectors_from_env(int fallback = 1000);

FlowResult run_flow(const Cdfg& g, const Schedule& s, const Binding& b,
                    const FlowParams& params = {});

}  // namespace hlp
