#include "power/activity.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "power/probability.hpp"
#include "rtl/lane_sim.hpp"
#include "sim/vectors.hpp"

namespace hlp {
namespace {

// The clamp lut_switching_activity applies (power/probability.cpp).
double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

double TimedSignal::activity_at(int t) const {
  for (const auto& [time, a] : acts)
    if (time == t) return a;
  return 0.0;
}

double TimedSignal::total_activity() const {
  double s = 0.0;
  for (const auto& [time, a] : acts) s += a;
  return s;
}

double TimedSignal::glitch_activity() const {
  return total_activity() - activity_at(functional_time);
}

int TimedSignal::last_time() const {
  return acts.empty() ? 0 : acts.back().first;
}

TimedSignal TimedSignal::source(double prob, double activity) {
  TimedSignal s;
  s.prob = prob;
  s.functional_time = 0;
  if (activity > 0.0) s.acts = {{0, activity}};
  return s;
}

TimedSignal propagate_lut(const TruthTable& tt,
                          const std::vector<const TimedSignal*>& leaves) {
  HLP_CHECK(static_cast<int>(leaves.size()) == tt.num_inputs(),
            "leaf count " << leaves.size() << " != LUT inputs "
                          << tt.num_inputs());
  const int k = tt.num_inputs();
  TimedSignal out;

  std::vector<double> p_in(k);
  for (int j = 0; j < k; ++j) p_in[j] = leaves[j]->prob;
  out.prob = lut_probability(tt, p_in);

  // Functional arrival: one unit after the slowest functional leaf arrival.
  int f = 0;
  for (const auto* l : leaves) f = std::max(f, l->functional_time);
  out.functional_time = f + 1;

  // Union of leaf transition times; output transitions one unit later.
  std::vector<int> times;
  for (const auto* l : leaves)
    for (const auto& [t, a] : l->acts)
      if (a > 0.0) times.push_back(t);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  // Each leaf's acts are sorted by time, so one forward cursor per leaf
  // reads its activity at every t in ascending order.
  std::size_t cursor[kMaxTtInputs] = {};
  std::vector<double> act_in(k);
  for (int t : times) {
    for (int j = 0; j < k; ++j) {
      const auto& acts = leaves[j]->acts;
      std::size_t& c = cursor[j];
      while (c < acts.size() && acts[c].first < t) ++c;
      act_in[j] = c < acts.size() && acts[c].first == t ? acts[c].second : 0.0;
    }
    // lut_switching_activity, with the time-independent P(y) hoisted.
    const double s =
        clamp01(2.0 * (out.prob - lut_joint_prob(tt, p_in, act_in)));
    if (s > 0.0) out.acts.emplace_back(t + 1, s);
  }
  return out;
}

namespace {

ActivityResult estimate_impl(const Netlist& n, bool zero_delay) {
  ActivityResult r;
  r.signals.assign(n.num_nets(), TimedSignal{});
  for (NetId net = 0; net < n.num_nets(); ++net)
    if (n.is_comb_source(net)) r.signals[net] = TimedSignal::source();

  for (int gi : n.topo_gates()) {
    const Gate& g = n.gates()[gi];
    std::vector<const TimedSignal*> leaves;
    leaves.reserve(g.ins.size());
    for (NetId in : g.ins) leaves.push_back(&r.signals[in]);
    TimedSignal sig = propagate_lut(g.tt, leaves);
    if (zero_delay) {
      // Collapse the waveform to the functional transition: a single event
      // whose activity is the Chou-Roy value with all leaves switching
      // together (classic transition-density propagation).
      std::vector<double> p_in(g.ins.size()), act_in(g.ins.size());
      for (std::size_t j = 0; j < g.ins.size(); ++j) {
        p_in[j] = r.signals[g.ins[j]].prob;
        act_in[j] = r.signals[g.ins[j]].total_activity();
      }
      const double s = lut_switching_activity(g.tt, p_in, act_in);
      sig.acts.clear();
      if (s > 0.0) sig.acts = {{sig.functional_time, s}};
    }
    r.signals[g.out] = std::move(sig);
  }

  for (int gi : n.topo_gates()) {
    const TimedSignal& s = r.signals[n.gates()[gi].out];
    r.total_sa += s.total_activity();
    r.functional_sa += s.activity_at(s.functional_time);
    r.glitch_sa += s.glitch_activity();
  }
  return r;
}

}  // namespace

ActivityResult estimate_activity(const Netlist& n) {
  return estimate_impl(n, /*zero_delay=*/false);
}

ActivityResult estimate_activity_zero_delay(const Netlist& n) {
  return estimate_impl(n, /*zero_delay=*/true);
}

SimActivityResult simulate_activity(const Netlist& n, int num_vectors,
                                    std::uint64_t seed, SimEngine engine) {
  HLP_REQUIRE(num_vectors >= 1,
              "simulate_activity needs >= 1 vector, got " << num_vectors);
  const auto frames = random_vectors(
      num_vectors, static_cast<int>(n.inputs().size()), seed);
  SimActivityResult r;
  r.stats = engine == SimEngine::kScalar ? simulate_frames(n, frames)
                                         : simulate_frames_batched(n, frames);
  r.vectors_used = static_cast<int>(r.stats.num_cycles);
  r.seed = seed;
  r.engine = engine;
  const double cycles = static_cast<double>(r.stats.num_cycles);
  r.sa.resize(n.num_nets());
  for (NetId net = 0; net < n.num_nets(); ++net)
    r.sa[net] = static_cast<double>(r.stats.toggles[net]) / cycles;
  r.total_sa = static_cast<double>(r.stats.total_transitions) / cycles;
  r.functional_sa =
      static_cast<double>(r.stats.functional_transitions) / cycles;
  r.glitch_sa = static_cast<double>(r.stats.glitch_transitions()) / cycles;
  return r;
}

}  // namespace hlp
