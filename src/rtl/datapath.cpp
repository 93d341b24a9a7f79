#include "rtl/datapath.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/error.hpp"
#include "netlist/modules.hpp"

namespace hlp {
namespace {

// A producer that can be selected into a register: either a CDFG primary
// input bus or an FU output bus.
struct Producer {
  bool is_pi = false;
  int index = 0;  // PI index or FU id
  friend bool operator<(const Producer& a, const Producer& b) {
    return std::tie(a.is_pi, a.index) < std::tie(b.is_pi, b.index);
  }
  friend bool operator==(const Producer& a, const Producer& b) = default;
};

}  // namespace

std::vector<std::vector<char>> make_frames(
    const Netlist& n, const DatapathPlan& plan,
    const std::vector<std::vector<std::uint64_t>>& samples) {
  std::vector<std::vector<char>> frames;
  frames.reserve(samples.size() * plan.num_phases);
  for (const auto& sample : samples) {
    HLP_REQUIRE(sample.size() == plan.data_input_pos.size(),
                "sample has " << sample.size() << " words, datapath expects "
                              << plan.data_input_pos.size());
    for (int ph = 0; ph < plan.num_phases; ++ph) {
      auto& f = frames.emplace_back(n.inputs().size(), 0);
      for (std::size_t p = 0; p < sample.size(); ++p)
        for (int j = 0; j < plan.width; ++j)
          f[plan.data_input_pos[p] + j] = (sample[p] >> j) & 1u;
      for (const auto& cg : plan.controls) {
        const int sel = cg.select_by_phase[ph];
        for (std::size_t k = 0; k < cg.input_positions.size(); ++k)
          f[cg.input_positions[k]] = (sel >> k) & 1;
      }
    }
  }
  return frames;
}

Datapath elaborate_datapath(const Cdfg& g, const Schedule& s, const Binding& b,
                            const DatapathParams& params) {
  const int w = params.width;
  HLP_REQUIRE(w >= 1 && w <= 64, "width must be in [1,64]");
  s.validate(g);
  b.regs.validate(g, s);

  Datapath dp;
  dp.width = w;
  dp.num_phases = s.num_steps + 1;
  Netlist& n = dp.netlist;
  n.set_name(g.name() + "_dp");

  const auto lifetimes = compute_lifetimes(g, s);
  const FuPortSources port_srcs = fu_port_sources(g, b.regs, b.fus);
  const auto ops_per_fu = b.fus.ops_of_fu(g);
  const int num_regs = b.regs.num_registers;
  const int num_fus = b.fus.num_fus();

  // --- primary input data buses ------------------------------------------
  std::vector<std::vector<NetId>> pi_bus(g.num_inputs());
  for (int p = 0; p < g.num_inputs(); ++p) {
    dp.data_input_pos.push_back(static_cast<int>(n.inputs().size()));
    pi_bus[p].resize(w);
    for (int j = 0; j < w; ++j)
      pi_bus[p][j] = n.add_input("pi" + std::to_string(p) + "_" + std::to_string(j));
  }

  // --- register Q nets (latch outputs exist before their D logic) --------
  std::vector<std::vector<NetId>> reg_q(num_regs, std::vector<NetId>(w));
  for (int r = 0; r < num_regs; ++r)
    for (int j = 0; j < w; ++j)
      reg_q[r][j] = n.add_net("r" + std::to_string(r) + "_q" + std::to_string(j));

  // Helper: add select-control inputs for a mux of `n_data` arms.
  auto add_control = [&](const std::string& name, int n_data) {
    ControlGroup cg;
    cg.name = name;
    for (int k = 0; k < mux_select_bits(n_data); ++k) {
      cg.input_positions.push_back(static_cast<int>(n.inputs().size()));
      n.add_input(name + "_s" + std::to_string(k));
    }
    cg.select_by_phase.assign(dp.num_phases, 0);
    return cg;
  };

  // --- FU input muxes and FU instances ------------------------------------
  std::vector<std::vector<NetId>> fu_out(num_fus);
  // Control groups are appended after select schedules are known; remember
  // per-FU port groups to fill below.
  struct PortMux {
    int fu = 0;
    char port = 'a';
    std::vector<int> regs;  // sorted distinct sources (mux arm order)
    ControlGroup cg;
  };
  std::vector<PortMux> port_muxes;

  for (int f = 0; f < num_fus; ++f) {
    const std::string fu_tag = "f" + std::to_string(f);
    auto build_port = [&](const std::vector<int>& srcs, char port) {
      HLP_CHECK(!srcs.empty(), "FU " << f << " port has no sources");
      if (srcs.size() == 1) return reg_q[srcs[0]];
      const Netlist mux = make_mux(static_cast<int>(srcs.size()), w);
      std::vector<NetId> actuals;
      for (int r : srcs)
        actuals.insert(actuals.end(), reg_q[r].begin(), reg_q[r].end());
      PortMux pm;
      pm.fu = f;
      pm.port = port;
      pm.regs = srcs;
      pm.cg = add_control(fu_tag + std::string(1, port), static_cast<int>(srcs.size()));
      for (int pos : pm.cg.input_positions) actuals.push_back(n.inputs()[pos]);
      port_muxes.push_back(std::move(pm));
      return n.instantiate(mux, actuals, fu_tag + port + "_");
    };
    const auto port_a = build_port(port_srcs.port_a[f], 'a');
    const auto port_b = build_port(port_srcs.port_b[f], 'b');
    const Netlist fu_mod = b.fus.kind_of_fu[f] == OpKind::kAdd
                               ? make_adder(w)
                               : make_multiplier(w);
    std::vector<NetId> fu_in;
    fu_in.insert(fu_in.end(), port_a.begin(), port_a.end());
    fu_in.insert(fu_in.end(), port_b.begin(), port_b.end());
    fu_out[f] = n.instantiate(fu_mod, fu_in, fu_tag + "_");
  }

  // Fill FU-port select schedules: phase 1+c executes control step c. Idle
  // phases take the mux's default arm — the register of the FU's last
  // scheduled op — mirroring the `when cstep = ... else r<last>` chain the
  // VHDL emitter produces (and the FSM-driven selects real synthesis
  // generates). Idle-cycle select changes are part of the datapath's
  // activity, and exactly where mux balance pays off.
  for (auto& pm : port_muxes) {
    std::vector<int> want(dp.num_phases, -1);
    int default_sel = 0;
    int default_cstep = -1;
    for (int op : ops_per_fu[pm.fu]) {
      const int reg = pm.port == 'a' ? b.fus.port_a_reg(g, b.regs, op)
                                     : b.fus.port_b_reg(g, b.regs, op);
      const auto it = std::lower_bound(pm.regs.begin(), pm.regs.end(), reg);
      HLP_CHECK(it != pm.regs.end() && *it == reg, "mux arm lookup failed");
      const int sel = static_cast<int>(it - pm.regs.begin());
      want[1 + s.cstep_of_op[op]] = sel;
      if (s.cstep_of_op[op] > default_cstep) {
        default_cstep = s.cstep_of_op[op];
        default_sel = sel;
      }
    }
    for (int ph = 0; ph < dp.num_phases; ++ph)
      pm.cg.select_by_phase[ph] = want[ph] >= 0 ? want[ph] : default_sel;
    dp.controls.push_back(std::move(pm.cg));
  }

  // --- register input muxes + latches -------------------------------------
  // Producers per register, and which phase writes which producer.
  std::vector<std::vector<Producer>> producers(num_regs);
  std::vector<std::map<int, Producer>> write_at_phase(num_regs);
  for (int v = 0; v < num_values(g); ++v) {
    const int r = b.regs.reg_of_value[v];
    Producer pr;
    if (v < g.num_inputs()) {
      pr.is_pi = true;
      pr.index = v;
    } else {
      pr.is_pi = false;
      pr.index = b.fus.fu_of_op[v - g.num_inputs()];
    }
    producers[r].push_back(pr);
    const int phase = lifetimes[v].birth;  // latched at the edge ending it
    HLP_CHECK(write_at_phase[r].emplace(phase, pr).second,
              "register " << r << " written twice in phase " << phase);
  }
  for (auto& ps : producers) {
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
  }

  for (int r = 0; r < num_regs; ++r) {
    const std::string tag = "r" + std::to_string(r);
    const int arms = 1 + static_cast<int>(producers[r].size());  // arm 0: hold
    const Netlist mux = make_mux(arms, w);
    std::vector<NetId> actuals;
    actuals.insert(actuals.end(), reg_q[r].begin(), reg_q[r].end());
    for (const Producer& pr : producers[r]) {
      const auto& bus = pr.is_pi ? pi_bus[pr.index] : fu_out[pr.index];
      actuals.insert(actuals.end(), bus.begin(), bus.end());
    }
    ControlGroup cg = add_control(tag, arms);
    for (int pos : cg.input_positions) actuals.push_back(n.inputs()[pos]);
    const auto d_bus = n.instantiate(mux, actuals, tag + "m_");
    for (int j = 0; j < w; ++j) n.add_latch(reg_q[r][j], d_bus[j]);

    for (const auto& [phase, pr] : write_at_phase[r]) {
      const auto it =
          std::lower_bound(producers[r].begin(), producers[r].end(), pr);
      cg.select_by_phase[phase] =
          1 + static_cast<int>(it - producers[r].begin());
    }
    dp.controls.push_back(std::move(cg));
  }

  // --- primary outputs -----------------------------------------------------
  std::vector<char> emitted(num_regs, 0);
  for (int o = 0; o < g.num_outputs(); ++o) {
    const int r = b.regs.reg_of_value[value_id(g, g.output(o).value)];
    if (emitted[r]) continue;
    emitted[r] = 1;
    for (int j = 0; j < w; ++j) n.add_output(reg_q[r][j]);
  }

  n.validate();
  return dp;
}

}  // namespace hlp
