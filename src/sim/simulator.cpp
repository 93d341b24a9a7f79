#include "sim/simulator.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hlp {

UnitDelaySimulator::UnitDelaySimulator(const Netlist& n) : netlist_(n) {
  n.validate();
  value_.assign(n.num_nets(), 0);
  staged_.assign(n.num_nets(), 0);
  staged_dirty_.assign(n.num_nets(), 0);
  toggles_.assign(n.num_nets(), 0);
  fanout_gates_.resize(n.num_nets());
  for (int gi = 0; gi < n.num_gates(); ++gi)
    for (NetId in : n.gates()[gi].ins) {
      // Dedupe: a gate reading the same net twice re-evaluates once.
      auto& v = fanout_gates_[in];
      if (v.empty() || v.back() != gi) v.push_back(gi);
    }
  topo_ = n.topo_gates();
  topo_pos_of_gate_.assign(n.num_gates(), 0);
  for (std::size_t i = 0; i < topo_.size(); ++i)
    topo_pos_of_gate_[topo_[i]] = static_cast<int>(i);
  recompute_all();
}

void UnitDelaySimulator::reset() {
  std::fill(value_.begin(), value_.end(), 0);
  std::fill(staged_.begin(), staged_.end(), 0);
  std::fill(staged_dirty_.begin(), staged_dirty_.end(), 0);
  clear_toggles();
  recompute_all();
}

void UnitDelaySimulator::set_input(NetId pi, bool v) {
  HLP_CHECK(netlist_.is_input(pi),
            "net '" << netlist_.net_name(pi) << "' is not a primary input");
  staged_[pi] = v ? 1 : 0;
  staged_dirty_[pi] = 1;
}

void UnitDelaySimulator::clock_edge() {
  for (const auto& l : netlist_.latches()) {
    staged_[l.q] = value_[l.d];
    staged_dirty_[l.q] = 1;
  }
}

namespace {
bool eval_gate(const Gate& g, const std::vector<char>& value) {
  std::uint32_t m = 0;
  for (std::size_t j = 0; j < g.ins.size(); ++j)
    if (value[g.ins[j]]) m |= 1u << j;
  return g.tt.eval(m);
}
}  // namespace

int UnitDelaySimulator::settle(bool count) {
  // Apply staged source changes at t = 0.
  std::vector<NetId> changed;
  for (NetId net = 0; net < netlist_.num_nets(); ++net) {
    if (!staged_dirty_[net]) continue;
    staged_dirty_[net] = 0;
    if (value_[net] != staged_[net]) {
      value_[net] = staged_[net];
      if (count) ++toggles_[net];
      changed.push_back(net);
    }
  }

  int steps = 0;
  std::vector<char> gate_queued(netlist_.num_gates(), 0);
  while (!changed.empty()) {
    ++steps;
    HLP_CHECK(steps <= 4 * netlist_.num_gates() + 8,
              "unit-delay simulation did not quiesce (oscillation?)");
    // Gates sensitive to this step's changes...
    std::vector<int> dirty_gates;
    for (NetId net : changed)
      for (int gi : fanout_gates_[net])
        if (!gate_queued[gi]) {
          gate_queued[gi] = 1;
          dirty_gates.push_back(gi);
        }
    // ...evaluate with time-t values; outputs change at t+1.
    std::vector<NetId> next_changed;
    std::vector<char> new_vals(dirty_gates.size());
    for (std::size_t i = 0; i < dirty_gates.size(); ++i)
      new_vals[i] = eval_gate(netlist_.gates()[dirty_gates[i]], value_) ? 1 : 0;
    for (std::size_t i = 0; i < dirty_gates.size(); ++i) {
      const int gi = dirty_gates[i];
      gate_queued[gi] = 0;
      const NetId out = netlist_.gates()[gi].out;
      if (value_[out] != new_vals[i]) {
        value_[out] = new_vals[i];
        if (count) ++toggles_[out];
        next_changed.push_back(out);
      }
    }
    changed = std::move(next_changed);
  }
  return steps;
}

void UnitDelaySimulator::settle_zero_delay(bool count) {
  for (NetId net = 0; net < netlist_.num_nets(); ++net) {
    if (!staged_dirty_[net]) continue;
    staged_dirty_[net] = 0;
    if (value_[net] != staged_[net]) {
      value_[net] = staged_[net];
      if (count) ++toggles_[net];
    }
  }
  for (int gi : topo_) {
    const Gate& g = netlist_.gates()[gi];
    const char nv = eval_gate(g, value_) ? 1 : 0;
    if (value_[g.out] != nv) {
      value_[g.out] = nv;
      if (count) ++toggles_[g.out];
    }
  }
}

bool UnitDelaySimulator::value(NetId n) const {
  HLP_CHECK(n >= 0 && n < static_cast<NetId>(value_.size()), "net out of range");
  return value_[n];
}

std::uint64_t UnitDelaySimulator::total_toggles() const {
  std::uint64_t t = 0;
  for (auto v : toggles_) t += v;
  return t;
}

void UnitDelaySimulator::clear_toggles() {
  std::fill(toggles_.begin(), toggles_.end(), 0);
}

void UnitDelaySimulator::recompute_all() {
  for (int gi : topo_) {
    const Gate& g = netlist_.gates()[gi];
    value_[g.out] = eval_gate(g, value_) ? 1 : 0;
  }
}

}  // namespace hlp
