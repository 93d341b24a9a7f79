// Word-generic bit-parallel simulation engine.
//
// Everything here is templated on a Word type (see simd_word.hpp): one
// word per net, one simulation lane per bit, so BitSimulatorT<uint64_t>
// settles 64 lanes per traversal and BitSimulatorT<AvxWord512> settles
// 512. The algorithms are pure lane-wise boolean algebra plus popcounts,
// so every instantiation computes the identical per-lane function — the
// width only changes how many lanes one traversal covers.
//
// The lane engines (rtl/lane_sim.hpp) drive these templates behind the
// SimdMode runtime dispatch; their per-ISA translation unit
// (rtl/lane_sim_avx512.cpp) instantiates them for the intrinsic word type.
// Gate classification is word-independent and lives in one non-template
// GatePlan built once per netlist (bit_sim.cpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "netlist/netlist.hpp"
#include "sim/simd_word.hpp"

namespace hlp {

namespace detail {

/// Specialised evaluator selected per gate at construction.
enum GateOp : std::uint8_t {
  kOpShannon,     // generic fallback, k <= 4 (inputs in the packed record)
  kOpShannonBig,  // generic fallback, k > 4 (inputs in the CSR)
  kOpConst,       // constant 0 / ~0 (inv flag)
  kOpBuf,         // x or ~x
  kOpParity,      // x0 ^ x1 ^ ... (^ inv)
  kOpAndPol,      // AND_j (x_j ^ pol_j) (^ inv) — covers AND/OR/NAND/NOR
  kOpMux,         // s ? a : b (^ inv)
  kOpMaj,         // majority(a, b, c) (^ inv)
};

/// Everything one gate evaluation reads, in one 32-byte record (the settle
/// loop is memory-bound; scattering this over parallel arrays costs
/// several cache lines per eval). Inputs are support-reduced. `idx`
/// carries the plan gate index, the key into the k > 4 CSR side tables.
struct PackedGate {
  std::uint8_t op = kOpShannon;
  std::uint8_t inv = 0;  // final inversion flag
  std::uint8_t pol = 0;  // kOpAndPol input polarity bits
  std::uint8_t k = 0;    // fanin count after support reduction
  std::uint32_t tt = 0;  // reduced truth table (k <= 4 fits 16 rows)
  std::uint32_t idx = 0; // gate index in the plan (CSR/tt_bits lookups)
  NetId out = 0;
  NetId in[4] = {0, 0, 0, 0};  // operands (kOpMux: select, then-, else-)
};

/// The word-independent half of the engine: classified gates, CSR
/// input/fanout lists and the topological order. Built once per netlist
/// and shared by every word-width instantiation.
struct GatePlan {
  std::vector<PackedGate> gates;
  // Full truth tables + CSR input lists, used only by the k > 4 fallback.
  std::vector<std::uint64_t> tt_bits;
  std::vector<int> in_start;   // gate -> offset into in_nets
  std::vector<NetId> in_nets;
  std::vector<int> fan_start;  // net -> offset into fan_gates
  std::vector<int> fan_gates;
  std::vector<int> topo;
  int num_nets = 0;
  // Sources sit on level 0 and a gate one level above its deepest input,
  // so a unit-delay settle changes a net on level L at most L times (a
  // source once) and takes at most num_levels steps.
  int num_levels = 0;
};

/// Classify every gate and build the CSR structures (validates the
/// netlist). Defined in bit_sim.cpp — word-independent, compiled once at
/// baseline ISA.
GatePlan build_gate_plan(const Netlist& n);

}  // namespace detail

/// Bit-sliced per-lane counters over an arbitrary word width: plane p
/// carries bit p of WordTraits<W>::kLanes independent counts, so
/// `counts[item][lane] += (mask >> lane) & 1` for every lane is a short
/// ripple-carry of word ops (amortised ~2 per add) instead of a
/// per-set-bit scalar scatter. This is what keeps the seed-chunk path's
/// toggle accounting word-parallel at any width: the increment cost
/// never scales with the number of lanes that toggled.
///
/// The layout is plane-major: plane p of every item is contiguous, so the
/// low planes that nearly every add touches stay together in cache however
/// many items there are. The plane count is sized from a bound the caller
/// proves on every count, bit_width(bound) planes (at most 64); a carry
/// out of the top plane breaks that proof and is an hlp::Error, never a
/// silent wrap.
template <typename W>
class LaneCountersT {
  using T = WordTraits<W>;

 public:
  LaneCountersT(int num_items, std::uint64_t bound)
      : items_(static_cast<std::size_t>(num_items)),
        planes_(std::bit_width(bound)),
        bits_(items_ * planes_, T::zero()) {}

  int planes() const { return planes_; }

  /// counts[item][lane] += (mask >> lane) & 1, all lanes at once.
  void add(int item, W mask) {
    for (std::size_t i = static_cast<std::size_t>(item); T::any(mask);
         i += items_) {
      HLP_CHECK(i < bits_.size(), "lane counter passed its bound of "
                                      << planes_ << " bits");
      const W old = bits_[i];
      bits_[i] = old ^ mask;
      mask = mask & old;  // carry into the next plane
    }
  }

  /// counts[item][lane] += other's counts[item][lane], every item and lane
  /// at once (a ripple-carry adder per item).
  void add(const LaneCountersT& other) {
    HLP_CHECK(other.items_ == items_ && other.planes_ == planes_,
              "lane counters of different shapes");
    for (std::size_t item = 0; item < items_; ++item) {
      W carry = T::zero();
      for (std::size_t i = item; i < bits_.size(); i += items_) {
        const W a = bits_[i], b = other.bits_[i];
        bits_[i] = a ^ b ^ carry;
        carry = (a & b) | (carry & (a ^ b));
      }
      HLP_CHECK(!T::any(carry), "lane counter passed its bound of "
                                    << planes_ << " bits");
    }
  }

  /// out[lane] = counts[item][lane] for every lane of the word (`out`
  /// holds kLanes values).
  void counts(int item, std::uint64_t* out) const {
    std::fill(out, out + T::kLanes, std::uint64_t{0});
    for (int p = 0; p < planes_; ++p) {
      const W w = bits_[p * items_ + static_cast<std::size_t>(item)];
      if (!T::any(w)) continue;
      for (int l = 0; l < T::kLanes; ++l)
        out[l] |= static_cast<std::uint64_t>(T::lane(w, l)) << p;
    }
  }

 private:
  std::size_t items_;
  int planes_;
  std::vector<W> bits_;  // [plane p * items + item]
};

/// Word-parallel netlist evaluator: WordTraits<W>::kLanes lanes per word,
/// one word per net. Lane semantics (samples or seeds) are chosen by the
/// caller; the engine only knows about source words,
/// zero-delay passes and unit-delay event settling with per-net popcount
/// toggle counters. All instantiations are bit-identical per lane to the
/// scalar reference simulator.
template <typename W>
class BitSimulatorT {
  using T = WordTraits<W>;

 public:
  /// Simulation lanes per word — the batch granularity of this engine.
  static constexpr int kLanes = T::kLanes;

  explicit BitSimulatorT(const Netlist& n)
      : netlist_(&n), plan_(detail::build_gate_plan(n)) {
    value_.assign(plan_.num_nets, T::zero());
    staged_.assign(plan_.num_nets, T::zero());
    staged_dirty_.assign(plan_.num_nets, 0);
    gate_queued_.assign(plan_.gates.size(), 0);
    staged_nets_.reserve(plan_.num_nets);
  }

  const Netlist& netlist() const { return *netlist_; }
  int num_nets() const { return static_cast<int>(value_.size()); }
  /// Levels of the netlist, sources included (GatePlan::num_levels): no
  /// settle takes more steps.
  int num_levels() const { return plan_.num_levels; }

  /// Current value word of a net (bit l = lane l).
  W word(NetId n) const { return value_[n]; }
  /// Overwrite the value word of every net.
  void load_state(const std::vector<W>& words) {
    HLP_CHECK(words.size() == value_.size(), "state size mismatch");
    value_ = words;
  }
  const std::vector<W>& state() const { return value_; }

  /// Stage a source word (primary input or latch Q) for the next settle.
  /// Staged nets go on an explicit list so settles pay per staged source,
  /// not per net in the design.
  void stage_source(NetId n, W word) {
    HLP_CHECK(netlist_->is_comb_source(n),
              "net '" << netlist_->net_name(n)
                      << "' is not a simulation source");
    staged_[n] = word;
    if (!staged_dirty_[n]) {
      staged_dirty_[n] = 1;
      staged_nets_.push_back(n);
    }
  }

  /// Single topological pass: every net takes its zero-delay value under
  /// the staged sources. No toggle counting; staged marks are consumed.
  void settle_zero_delay() {
    for (const NetId net : staged_nets_) {
      staged_dirty_[net] = 0;
      value_[net] = staged_[net];
    }
    staged_nets_.clear();
    for (int gi : plan_.topo) value_[plan_.gates[gi].out] = eval_gate(gi);
  }

  /// Unit-delay event settle from the staged sources, lockstep across all
  /// lanes. Per-net transition counts (summed over lanes) accumulate into
  /// `toggles_total` when non-null. Returns unit steps to quiescence (the
  /// max over lanes).
  int settle(std::vector<std::uint64_t>* toggles_total) {
    if (toggles_total) {
      return settle_events([&](NetId net, const W& diff) {
        (*toggles_total)[net] += static_cast<std::uint64_t>(T::popcount(diff));
      });
    }
    return settle_events([](NetId, const W&) {});
  }

  /// Unit-delay settle specialised for the seed-chunk path: per-net
  /// per-lane transition counts accumulate into `toggles` (bit-sliced, no
  /// per-lane scatter), and every net whose value changed is appended once
  /// to `touched` with its pre-settle word stored in `before` — the caller
  /// derives the functional/glitch split from before vs settled without
  /// scanning or snapshotting the whole net array per cycle. `touched_flag`
  /// is the dedupe scratch (num_nets zeros on entry; the caller resets the
  /// touched entries afterwards).
  int settle_batch(LaneCountersT<W>& toggles, std::vector<NetId>& touched,
                   std::vector<char>& touched_flag, std::vector<W>& before) {
    return settle_events([&](NetId net, const W& diff) {
      toggles.add(net, diff);
      if (!touched_flag[net]) {
        touched_flag[net] = 1;
        // value_[net] was already updated; undo the diff for the
        // pre-settle word (the first event sees the pre-edge settled
        // value).
        before[net] = value_[net] ^ diff;
        touched.push_back(net);
      }
    });
  }

  /// Evaluate one gate's function over the current value words. Gates are
  /// classified at construction (see GatePlan): the overwhelmingly common
  /// datapath functions (mux, parity, majority, and/or with polarities,
  /// buffers) evaluate in 2-5 word ops; everything else falls back to a
  /// Shannon cofactor reduction of the (support-reduced) truth table. All
  /// paths compute the identical boolean function, so values — and
  /// therefore event schedules and glitch counts — are bit-identical to
  /// the reference at every word width.
  W eval_gate(int gi) const {
    const detail::PackedGate& g = plan_.gates[gi];
    // Datapaths are register files plus steering logic, so muxes dominate
    // every mapped netlist we simulate (~80-90% of gates): give them a
    // predicted direct branch instead of the switch's indirect jump.
    if (g.op == detail::kOpMux) {
      const W s = value_[g.in[0]];
      const W w = (value_[g.in[1]] & s) | (value_[g.in[2]] & ~s);
      return g.inv ? ~w : w;
    }
    const W inv = T::fill(g.inv != 0);
    switch (g.op) {
      case detail::kOpConst:
        return inv;
      case detail::kOpBuf:
        return value_[g.in[0]] ^ inv;
      case detail::kOpMaj: {
        const W a = value_[g.in[0]], b = value_[g.in[1]], c = value_[g.in[2]];
        return ((a & b) | ((a | b) & c)) ^ inv;
      }
      case detail::kOpParity: {
        W w = inv;
        for (int j = 0; j < g.k; ++j) w = w ^ value_[g.in[j]];
        return w;
      }
      case detail::kOpAndPol: {
        W w = T::ones();
        for (int j = 0; j < g.k; ++j)
          w = w & (value_[g.in[j]] ^ T::fill(((g.pol >> j) & 1) != 0));
        return w ^ inv;
      }
      case detail::kOpShannon: {
        // Shannon cofactor reduction of the reduced truth table, k <= 4:
        // fold one input per level over the 2^k constant rows.
        const int k = g.k;
        W cof[16];
        const std::uint32_t rows = 1u << k;
        for (std::uint32_t m = 0; m < rows; ++m)
          cof[m] = T::fill(((g.tt >> m) & 1u) != 0);
        for (int j = k - 1; j >= 0; --j) {
          const W x = value_[g.in[j]];
          const std::uint32_t half = 1u << j;
          for (std::uint32_t i = 0; i < half; ++i)
            cof[i] = (cof[i] & ~x) | (cof[i + half] & x);
        }
        return cof[0];
      }
      default:
        break;
    }
    // k > 4 fallback: same fold over the CSR input list.
    const int k = g.k;
    W cof[64];
    const std::uint64_t bits = plan_.tt_bits[g.idx];
    const std::uint32_t rows = 1u << k;
    for (std::uint32_t m = 0; m < rows; ++m)
      cof[m] = T::fill(((bits >> m) & 1u) != 0);
    const int base = plan_.in_start[g.idx];
    for (int j = k - 1; j >= 0; --j) {
      const W x = value_[plan_.in_nets[base + j]];
      const std::uint32_t half = 1u << j;
      for (std::uint32_t i = 0; i < half; ++i)
        cof[i] = (cof[i] & ~x) | (cof[i + half] & x);
    }
    return cof[0];
  }

 private:
  /// The event-driven unit-delay settle behind settle() and
  /// settle_batch(): step t re-evaluates only the fanout of the nets that
  /// changed at step t-1, and `on_change(net, diff)` fires once per net
  /// change with the word of lanes that flipped.
  template <typename OnChange>
  int settle_events(OnChange&& on_change) {
    changed_.clear();
    for (const NetId net : staged_nets_) {
      staged_dirty_[net] = 0;
      const W diff = value_[net] ^ staged_[net];
      if (T::any(diff)) {
        value_[net] = staged_[net];
        on_change(net, diff);
        changed_.push_back(net);
      }
    }
    staged_nets_.clear();

    int steps = 0;
    const int max_steps = 4 * static_cast<int>(plan_.gates.size()) + 8;
    while (!changed_.empty()) {
      ++steps;
      HLP_CHECK(steps <= max_steps,
                "bit-parallel simulation did not quiesce (oscillation?)");
      dirty_gates_.clear();
      for (NetId net : changed_)
        for (int fi = plan_.fan_start[net]; fi < plan_.fan_start[net + 1];
             ++fi) {
          const int gi = plan_.fan_gates[fi];
          if (!gate_queued_[gi]) {
            gate_queued_[gi] = 1;
            dirty_gates_.push_back(gi);
          }
        }
      // Evaluate with time-t words; outputs change at t+1 (two-pass, so
      // the lockstep lanes see exactly the scalar event schedule).
      new_words_.resize(dirty_gates_.size());
      for (std::size_t i = 0; i < dirty_gates_.size(); ++i)
        new_words_[i] = eval_gate(dirty_gates_[i]);
      next_changed_.clear();
      for (std::size_t i = 0; i < dirty_gates_.size(); ++i) {
        const int gi = dirty_gates_[i];
        gate_queued_[gi] = 0;
        const NetId out = plan_.gates[gi].out;
        const W diff = value_[out] ^ new_words_[i];
        if (T::any(diff)) {
          value_[out] = new_words_[i];
          on_change(out, diff);
          next_changed_.push_back(out);
        }
      }
      std::swap(changed_, next_changed_);
    }
    return steps;
  }

  const Netlist* netlist_;
  detail::GatePlan plan_;

  std::vector<W> value_;
  std::vector<W> staged_;
  std::vector<char> staged_dirty_;
  std::vector<NetId> staged_nets_;  // nets with staged_dirty_ set
  // Scratch for the event loop (persistent to avoid per-settle allocation).
  std::vector<char> gate_queued_;
  std::vector<int> dirty_gates_;
  std::vector<W> new_words_;
  std::vector<NetId> changed_, next_changed_;
};

}  // namespace hlp
