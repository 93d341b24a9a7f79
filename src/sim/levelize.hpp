// Levelized static timing of a mapped netlist.
//
// The `time` stage's critical path falls out of a per-level arrival
// sweep instead of one max-reduction over net_levels(): process the
// level-t wavefront, arrival(out) = 1 + max arrival(in), repeat until the
// frontier empties. It is bit-identical to clock_period_ns (same integer
// depth through the same double expression), which StageCache and the
// distributed same_outcome checks compare exactly.
#pragma once

#include "netlist/netlist.hpp"
#include "netlist/timing.hpp"

namespace hlp {

/// Critical combinational depth via the per-level arrival-time sweep.
/// Equals logic_depth(n) on every valid netlist (property tested); throws
/// on combinational cycles like topo_gates() does.
int levelized_logic_depth(const Netlist& n);

/// Minimum clock period from the levelized arrival sweep. Bit-identical
/// to clock_period_ns(n, model) — callers (pipeline stage_time) may swap
/// freely without perturbing stage caches or distributed result checks.
double levelized_clock_period_ns(const Netlist& n,
                                 const TimingModel& model = {});

}  // namespace hlp
