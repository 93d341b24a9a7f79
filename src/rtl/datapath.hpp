// Datapath elaboration: scheduled CDFG + binding solution -> registered
// gate-level netlist plus a per-cycle control plan.
//
// This is the reproduction's stand-in for the paper's CDFG-to-VHDL +
// Quartus synthesis step. Structure generated:
//   - one W-bit register per allocated register, with an input multiplexer
//     over {hold (Q feedback), every distinct producer (PI bus or FU
//     output)}; the hold arm realises the write enable;
//   - one W-bit functional unit per allocated FU, each port fed either
//     directly from its single source register or through an n-input mux
//     over the distinct source registers (the muxes whose sizes/balance
//     HLPower optimises);
//   - every mux select line is a primary input, driven per cycle by the
//     control plan derived from the schedule.
//
// Execution protocol per input sample: phase 0 loads the primary-input
// registers; phase 1+c executes control step c. Idle FU-port selects are
// sticky (hold their previous value) so idle units do not see artificial
// select toggling — both binders are simulated identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "binding/binding.hpp"
#include "cdfg/cdfg.hpp"
#include "netlist/netlist.hpp"
#include "sched/schedule.hpp"

namespace hlp {

struct DatapathParams {
  int width = 8;
};

/// One controlled multiplexer: which netlist inputs carry its select bits
/// and which select value it takes in each phase.
struct ControlGroup {
  std::string name;
  std::vector<int> input_positions;  // indices into netlist.inputs()
  std::vector<int> select_by_phase;  // [num_phases]
};

/// The per-phase control plan of an elaborated datapath: which netlist
/// inputs carry the data buses and the mux selects, and what every select
/// takes in each phase. tech_map keeps the input list, so one plan drives
/// the elaborated and the mapped netlist alike.
struct DatapathPlan {
  int width = 0;
  int num_phases = 0;  // schedule length + 1 (load phase)
  /// Index into netlist.inputs() of bit 0 of each CDFG primary input's
  /// data bus (bits are contiguous).
  std::vector<int> data_input_pos;
  std::vector<ControlGroup> controls;
};

struct Datapath : DatapathPlan {
  Netlist netlist;
};

Datapath elaborate_datapath(const Cdfg& g, const Schedule& s, const Binding& b,
                            const DatapathParams& params = {});

/// Expand the plan into char frames for `n`, whose inputs it drives:
/// num_phases rows per sample, back to back, each holding one value per
/// input of `n`, with data bits taken from the sample (one word per CDFG
/// input). Throws hlp::Error on a sample that does not hold one word per
/// data input.
std::vector<std::vector<char>> make_frames(
    const Netlist& n, const DatapathPlan& plan,
    const std::vector<std::vector<std::uint64_t>>& samples);

}  // namespace hlp
