// Dynamic power model — the PowerPlay Power Analyzer substitute.
//
// P_dyn = sum over nets of 0.5 * C_net * Vdd^2 * toggle_rate(net), the
// textbook form quoted in the paper's introduction. Toggle rates come
// either from unit-delay simulation (measured transitions / simulated
// time) or from the probabilistic estimator (SA per clock / period).
// Capacitance per net is a Cyclone-II-flavoured constant plus a fanout
// term; the constants are identical for every binding algorithm, so
// relative comparisons (the paper's claims) are unaffected by their
// absolute calibration.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace hlp {

struct PowerParams {
  double vdd = 1.2;              // Cyclone II core voltage (V)
  double c_base_pf = 1.5;        // LUT output + average local routing (pF)
  double c_fanout_pf = 0.12;     // extra routing + input load per fanout (pF)
  double clock_tree_mw_per_reg = 0.015;  // clock network per register bit
};

/// Power analysis summary for one mapped design (one Table 3 row half).
struct PowerReport {
  double dynamic_power_mw = 0.0;
  double clock_period_ns = 0.0;
  int num_luts = 0;
  int num_registers = 0;
  /// Design-wide toggle rate in millions of transitions per second —
  /// total transitions across all nets divided by simulated time (the
  /// Figure 3 metric; Quartus reports the same aggregate).
  double toggle_rate_mps = 0.0;
  /// Total transitions per clock cycle (sum over nets), split.
  double transitions_per_cycle = 0.0;
  double glitch_fraction = 0.0;
};

/// Combine per-net toggle counts (from simulation over `num_cycles` cycles)
/// with the netlist structure and clock period into a power report.
PowerReport power_from_toggles(const Netlist& n,
                               const std::vector<std::uint64_t>& toggles,
                               std::uint64_t num_cycles,
                               double clock_period_ns,
                               double functional_transitions_per_cycle,
                               const PowerParams& params = {});

}  // namespace hlp
