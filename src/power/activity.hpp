// Glitch-aware switching-activity estimation (Section 4 of the paper,
// derived from GlitchMap [6]).
//
// Under the unit-delay model each LUT output can only change at discrete
// times 1, 2, ..., D where D is the node's depth. A signal is therefore a
// *timed waveform*: a static probability plus a switching activity per
// discrete transition time. The transition at t = D is the functional
// transition; transitions at earlier times are glitches.
//
// Propagation: a LUT output acquires a transition at time t+1 for every
// time t at which at least one of its cut leaves transitions; the activity
// of that transition is the Chou-Roy simultaneous-switching activity
// (Eq. 2) evaluated with the per-leaf activities *at time t* (leaves quiet
// at t contribute activity 0). The effective SA of a node is the sum over
// its transition times, and the netlist SA (Eq. 3) sums over all nodes.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/truth_table.hpp"
#include "sim/bit_sim.hpp"
#include "sim/schedule_sim.hpp"

namespace hlp {

/// A probabilistic timed signal: static probability + (time, activity)
/// waveform, sorted by time, plus the functional transition time.
struct TimedSignal {
  double prob = 0.5;
  int functional_time = 0;
  std::vector<std::pair<int, double>> acts;  // sorted, unique times

  /// Activity at an exact time (0 when the signal is quiet then).
  double activity_at(int t) const;
  /// Effective SA: sum over all transition times.
  double total_activity() const;
  /// SA from glitches only (everything except the functional transition).
  double glitch_activity() const;
  /// Latest transition time (0 for quiet signals).
  int last_time() const;

  /// A combinational source (PI / register output): the paper assumes
  /// probability and activity 0.5 at time 0.
  static TimedSignal source(double prob = 0.5, double activity = 0.5);
};

/// Propagate leaf waveforms through one LUT (function `tt` over the leaves,
/// in order). Output transitions land one unit after each leaf transition.
TimedSignal propagate_lut(const TruthTable& tt,
                          const std::vector<const TimedSignal*>& leaves);

/// Whole-netlist glitch-aware estimation: every gate is treated as one
/// mapped LUT node (run this on a tech-mapped netlist for paper-faithful
/// numbers). Sources are PIs and latch outputs.
struct ActivityResult {
  std::vector<TimedSignal> signals;  // per net
  double total_sa = 0.0;             // Eq. (3)
  double functional_sa = 0.0;
  double glitch_sa = 0.0;
};

ActivityResult estimate_activity(const Netlist& n);

/// Zero-delay (glitch-blind) variant: all transitions collapse to a single
/// event per node, the classic Najm/Chou-Roy propagation. This is the
/// estimator quality LOPASS had available.
ActivityResult estimate_activity_zero_delay(const Netlist& n);

/// Monte-Carlo switching activity: drive `num_vectors` random frames
/// through the unit-delay simulation engine (batched bit-parallel by
/// default; the scalar engine is the reference oracle) and read per-net
/// transitions per cycle. The empirical counterpart of estimate_activity,
/// with the same total/functional/glitch decomposition.
struct SimActivityResult {
  std::vector<double> sa;  // per net: unit-delay transitions per cycle
  double total_sa = 0.0;
  double functional_sa = 0.0;
  double glitch_sa = 0.0;
  CycleSimStats stats;  // the raw counts behind the averages
  /// Echo of what actually ran, so a result is self-describing after the
  /// call site's knobs are out of scope (and so convergence studies can
  /// divide by the cycle count the engine really simulated, not the one
  /// the caller asked for).
  int vectors_used = 0;          // == stats.num_cycles
  std::uint64_t seed = 0;        // stimulus seed the frames were drawn with
  SimEngine engine = SimEngine::kBatched;  // engine that produced `stats`
};

SimActivityResult simulate_activity(const Netlist& n, int num_vectors,
                                    std::uint64_t seed,
                                    SimEngine engine = SimEngine::kBatched);

}  // namespace hlp
