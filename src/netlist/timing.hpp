// Static timing over a (mapped) netlist — the Quartus timing-analysis
// substitute. Produces the clock-period column of Table 3.
#pragma once

#include "netlist/netlist.hpp"

namespace hlp {

/// Cyclone-II-flavoured delay constants (90 nm). The shape of the paper's
/// results is insensitive to the absolute values as long as both binders
/// are timed identically.
struct TimingModel {
  double lut_delay_ns = 0.45;   // 4-LUT cell delay
  double net_delay_ns = 1.25;   // average local routing per level
  double reg_overhead_ns = 2.0; // clock-to-Q + setup + clock skew
};

/// Critical combinational depth in LUT/gate levels (sources are PIs and
/// latch outputs; endpoints are POs and latch D pins).
int logic_depth(const Netlist& n);

/// Minimum clock period for the netlist under the model.
double clock_period_ns(const Netlist& n, const TimingModel& model = {});

}  // namespace hlp
