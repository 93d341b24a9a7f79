#include "sim/bit_sim.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace hlp {

namespace detail {

namespace {

std::uint64_t tt_mask(int k) {
  const std::uint32_t rows = 1u << k;
  return rows >= 64 ? ~0ull : (1ull << rows) - 1;
}

std::uint64_t parity_tt(int k) {
  std::uint64_t par = 0;
  for (std::uint32_t m = 0; m < (1u << k); ++m)
    if (std::popcount(m) & 1) par |= 1ull << m;
  return par;
}

// Drop inputs the function does not depend on, compressing the truth
// table. Evaluation over the reduced support is value-identical.
void reduce_support(std::uint64_t& bits, std::vector<NetId>& ins) {
  for (int j = static_cast<int>(ins.size()) - 1; j >= 0; --j) {
    const std::uint32_t rows = 1u << ins.size();
    bool depends = false;
    for (std::uint32_t m = 0; m < rows && !depends; ++m)
      if (!(m & (1u << j)) &&
          (((bits >> m) & 1) != ((bits >> (m | (1u << j))) & 1)))
        depends = true;
    if (depends) continue;
    std::uint64_t reduced = 0;
    std::uint32_t out_row = 0;
    for (std::uint32_t m = 0; m < rows; ++m)
      if (!(m & (1u << j))) reduced |= ((bits >> m) & 1) << out_row++;
    bits = reduced;
    ins.erase(ins.begin() + j);
  }
}

// The truth table of `sel ? a : b` over 3 inputs at positions (s, a, b).
std::uint64_t mux_tt(int s, int a, int b) {
  std::uint64_t bits = 0;
  for (std::uint32_t m = 0; m < 8; ++m)
    if (((m >> s) & 1) ? ((m >> a) & 1) : ((m >> b) & 1)) bits |= 1ull << m;
  return bits;
}

constexpr std::uint64_t kMaj3Tt = 0xE8;  // rows with >= 2 bits set

}  // namespace

GatePlan build_gate_plan(const Netlist& n) {
  n.validate();
  GatePlan plan;
  const int num_nets = n.num_nets();
  const int num_gates = n.num_gates();
  plan.num_nets = num_nets;

  plan.tt_bits.resize(num_gates);
  plan.gates.resize(num_gates);
  plan.in_start.resize(num_gates + 1, 0);

  std::vector<std::vector<NetId>> eval_ins(num_gates);
  for (int gi = 0; gi < num_gates; ++gi) {
    const Gate& g = n.gates()[gi];
    PackedGate& pg = plan.gates[gi];
    pg.idx = static_cast<std::uint32_t>(gi);
    pg.out = g.out;
    std::uint64_t bits = g.tt.bits() & tt_mask(static_cast<int>(g.ins.size()));
    std::vector<NetId> ins = g.ins;
    reduce_support(bits, ins);
    const int k = static_cast<int>(ins.size());
    const std::uint64_t mask = tt_mask(k);
    pg.k = static_cast<std::uint8_t>(k);
    if (k <= 4) {
      pg.tt = static_cast<std::uint32_t>(bits);
      for (int j = 0; j < k; ++j) pg.in[j] = ins[j];
    } else {
      // Wider functions evaluate through the CSR input list; the packed
      // operand slots (and so every specialised op) cannot hold them.
      pg.op = kOpShannonBig;
    }

    // Classify into a specialised evaluator; kOpShannon remains for the
    // (rare) functions that match no pattern.
    if (k > 4) {
      // kOpShannonBig, set above.
    } else if (k == 0) {
      pg.op = kOpConst;
      pg.inv = static_cast<std::uint8_t>(bits & 1);
    } else if (k == 1) {
      pg.op = kOpBuf;
      pg.inv = (bits == 1);  // tt 01b = ~x, 10b = x
    } else if (bits == parity_tt(k) || bits == (parity_tt(k) ^ mask)) {
      pg.op = kOpParity;
      pg.inv = (bits != parity_tt(k));
    } else if (std::popcount(bits) == 1 ||
               std::popcount(bits ^ mask) == 1) {
      // A single on-row r is AND_j (r_j ? x_j : ~x_j); a single off-row
      // is its De Morgan dual (invert the conjunction).
      pg.op = kOpAndPol;
      pg.inv = (std::popcount(bits) != 1);
      const int row = std::countr_zero(pg.inv ? bits ^ mask : bits);
      pg.pol = static_cast<std::uint8_t>(~row & ((1u << k) - 1));
    } else if (k == 3) {
      for (int s = 0; s < 3 && pg.op == kOpShannon; ++s) {
        const int a = (s + 1) % 3, b = (s + 2) % 3;
        const std::pair<int, int> orders[] = {{a, b}, {b, a}};
        for (const auto& [hi, lo] : orders) {
          const std::uint64_t want = mux_tt(s, hi, lo);
          if (bits == want || bits == (want ^ mask)) {
            pg.op = kOpMux;
            pg.inv = (bits != want);
            pg.in[0] = ins[s];
            pg.in[1] = ins[hi];
            pg.in[2] = ins[lo];
            break;
          }
        }
      }
      if (pg.op == kOpShannon &&
          (bits == kMaj3Tt || bits == (kMaj3Tt ^ mask))) {
        pg.op = kOpMaj;
        pg.inv = (bits != kMaj3Tt);
      }
    }

    plan.tt_bits[gi] = bits;
    eval_ins[gi] = std::move(ins);
    plan.in_start[gi + 1] = plan.in_start[gi] + k;
  }
  plan.in_nets.reserve(plan.in_start[num_gates]);
  for (int gi = 0; gi < num_gates; ++gi)
    for (NetId in : eval_ins[gi]) plan.in_nets.push_back(in);

  // Fanout CSR, deduped the same way as the scalar simulator (a gate
  // reading the same net twice re-evaluates once).
  std::vector<std::vector<int>> fanout(num_nets);
  for (int gi = 0; gi < num_gates; ++gi)
    for (NetId in : n.gates()[gi].ins) {
      auto& v = fanout[in];
      if (v.empty() || v.back() != gi) v.push_back(gi);
    }
  plan.fan_start.resize(num_nets + 1, 0);
  for (NetId net = 0; net < num_nets; ++net)
    plan.fan_start[net + 1] =
        plan.fan_start[net] + static_cast<int>(fanout[net].size());
  plan.fan_gates.reserve(plan.fan_start[num_nets]);
  for (NetId net = 0; net < num_nets; ++net)
    plan.fan_gates.insert(plan.fan_gates.end(), fanout[net].begin(),
                          fanout[net].end());

  plan.topo = n.topo_gates();
  plan.num_levels = num_nets > 0 ? n.depth() + 1 : 0;
  return plan;
}

}  // namespace detail

}  // namespace hlp
