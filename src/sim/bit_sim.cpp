#include "sim/bit_sim.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.hpp"
#include "sim/bit_sim_isa.hpp"

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
  return plan;
}

ConeEvaluator::ConeEvaluator(const Netlist& n,
                             const std::vector<int>& gate_ids) {
  in_start.push_back(0);
  for (int gi : gate_ids) {
    const Gate& g = n.gates()[gi];
    tt.push_back(g.tt.bits());
    k.push_back(static_cast<int>(g.ins.size()));
    out.push_back(g.out);
    for (NetId in : g.ins) in_nets.push_back(in);
    in_start.push_back(static_cast<int>(in_nets.size()));
  }
}

void ConeEvaluator::eval(std::vector<char>& value) const {
  for (std::size_t i = 0; i < tt.size(); ++i) {
    std::uint32_t m = 0;
    for (int j = 0; j < k[i]; ++j)
      m |= static_cast<std::uint32_t>(value[in_nets[in_start[i] + j]] & 1)
           << j;
    value[out[i]] = static_cast<char>((tt[i] >> m) & 1u);
  }
}

void check_frame_arity(const Netlist& n,
                       const std::vector<std::vector<char>>& frames) {
  for (const auto& frame : frames)
    HLP_REQUIRE(frame.size() == n.inputs().size(),
                "frame has " << frame.size() << " bits, netlist has "
                             << n.inputs().size() << " inputs");
}

}  // namespace detail

// ---- runtime dispatch over the word width --------------------------------
//
// The portable widths instantiate here at baseline ISA; avx512 routes to
// its per-ISA TU (bit_sim_isa.hpp). resolve_simd_mode() has already
// rejected modes the build or CPU cannot honour, so the unreachable
// HLP_CHECKs only guard against an enum/dispatch mismatch.

CycleSimStats simulate_frames_batched(
    const Netlist& n, const std::vector<std::vector<char>>& frames,
    SimdMode simd) {
  switch (resolve_simd_mode(simd)) {
    case SimdMode::kU64:
      return simulate_frames_batched_t<std::uint64_t>(n, frames);
    case SimdMode::kX2:
      return simulate_frames_batched_t<SimdX2>(n, frames);
    case SimdMode::kX4:
      return simulate_frames_batched_t<SimdX4>(n, frames);
    case SimdMode::kX8:
      return simulate_frames_batched_t<SimdX8>(n, frames);
    case SimdMode::kAvx512:
#if defined(HLP_HAVE_AVX512)
      return detail::simulate_frames_batched_avx512(n, frames);
#else
      break;
#endif
    case SimdMode::kAuto:
      break;  // resolve_simd_mode never returns kAuto
  }
  HLP_CHECK(false, "unreachable SIMD dispatch (frames)");
}

CycleSimStats simulate_frames(const Netlist& n,
                              const std::vector<std::vector<char>>& frames,
                              SimEngine engine, SimdMode simd) {
  return engine == SimEngine::kScalar
             ? simulate_frames(n, frames)
             : simulate_frames_batched(n, frames, simd);
}

std::vector<CycleSimStats> simulate_batch(
    const Netlist& n, const std::vector<std::vector<std::vector<char>>>& runs,
    SimdMode simd) {
  switch (resolve_simd_mode(simd)) {
    case SimdMode::kU64:
      return simulate_batch_t<std::uint64_t>(n, runs);
    case SimdMode::kX2:
      return simulate_batch_t<SimdX2>(n, runs);
    case SimdMode::kX4:
      return simulate_batch_t<SimdX4>(n, runs);
    case SimdMode::kX8:
      return simulate_batch_t<SimdX8>(n, runs);
    case SimdMode::kAvx512:
#if defined(HLP_HAVE_AVX512)
      return detail::simulate_batch_avx512(n, runs);
#else
      break;
#endif
    case SimdMode::kAuto:
      break;
  }
  HLP_CHECK(false, "unreachable SIMD dispatch (batch)");
}

std::vector<CycleSimStats> simulate_runs(
    const Netlist& n, const std::vector<std::vector<std::vector<char>>>& runs,
    SimEngine engine, SimdMode simd) {
  if (engine == SimEngine::kBatched)
    return simulate_batch(n, runs, simd);
  std::vector<CycleSimStats> results;
  results.reserve(runs.size());
  for (const auto& run : runs) results.push_back(simulate_frames(n, run));
  return results;
}

}  // namespace hlp
