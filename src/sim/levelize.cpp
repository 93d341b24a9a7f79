#include "sim/levelize.hpp"

#include <vector>

#include "common/error.hpp"

namespace hlp {

int levelized_logic_depth(const Netlist& n) {
  const auto& gates = n.gates();
  const int num_gates = n.num_gates();
  // Timing ranks over the *original* gate fanins — a physical LUT input
  // pin costs a routing hop whether or not the boolean function collapses
  // it — which is exactly what net_levels()/depth() measure.
  std::vector<int> driver(n.num_nets(), -1);
  for (int gi = 0; gi < num_gates; ++gi) driver[gates[gi].out] = gi;
  std::vector<int> pending(num_gates, 0);
  std::vector<std::vector<int>> dependents(num_gates);
  for (int gi = 0; gi < num_gates; ++gi)
    for (const NetId in : gates[gi].ins) {
      const int d = driver[in];
      if (d >= 0) {
        ++pending[gi];
        dependents[d].push_back(gi);
      }
    }

  // Arrival sweep: wavefront t holds exactly the gates whose every fanin
  // arrived by t-1 (sources arrive at 0), so the number of non-empty
  // wavefronts is the critical depth in LUT levels.
  std::vector<int> wave, next;
  for (int gi = 0; gi < num_gates; ++gi)
    if (pending[gi] == 0) wave.push_back(gi);
  int depth = 0, ranked = 0;
  while (!wave.empty()) {
    ++depth;
    ranked += static_cast<int>(wave.size());
    next.clear();
    for (const int gi : wave)
      for (const int dep : dependents[gi])
        if (--pending[dep] == 0) next.push_back(dep);
    wave.swap(next);
  }
  HLP_CHECK(ranked == num_gates,
            "combinational cycle detected (" << ranked << " of " << num_gates
                                             << " gates ranked)");
  return depth;
}

double levelized_clock_period_ns(const Netlist& n, const TimingModel& model) {
  const int d = levelized_logic_depth(n);
  // Identical expression to clock_period_ns over an identical integer
  // depth: the doubles match bit for bit, which stage caches and the
  // distributed same_outcome comparison rely on.
  return d * (model.lut_delay_ns + model.net_delay_ns) + model.reg_overhead_ns;
}

}  // namespace hlp
