// Word-parallel simulation of a registered netlist driven by a datapath
// control plan — the engine room of the pipeline's `simulate` stage and of
// simulate_activity. Stimulus is staged directly as words instead of
// materialised per-cycle char frames, on one of two lane axes:
//
//  - simulate_sample_lanes: ONE stimulus sequence, one input SAMPLE per
//    lane (all plan.num_phases cycles of it), behind Pipeline::run. The only
//    coupling between lanes is the state a sample starts from: the state
//    the previous sample ended in. The engine works those start states out
//    by time-parallel simulation with fix-up (Heidelberger & Stone,
//    "Parallel Trace-Driven Cache Simulation by Time Partitioning", WSC
//    1990): guess them, run one zero-delay pass per phase over the chunk,
//    shift the end states up one lane, and repeat until the shifted end
//    states equal the start states on every active lane. Lane 0 starts
//    from the exactly known state, and lane k is right after k passes at
//    the latest, so the loop is exact and takes at most lanes + 1 passes.
//    One counting unit-delay pass then runs from the verified states.
//  - simulate_seed_chunk: one stimulus SEED per lane, all of its samples in
//    lockstep, behind Pipeline::run_batch's seed coalescing. Latch state
//    lives per lane, so no lane depends on another. The chunk's samples
//    form a time axis that threads share: at every sample boundary, a
//    thread counting a range of samples checks the process-wide helper
//    budget (common/helper_budget.hpp, the one SaCache::fill leases from)
//    and, when a slot is free, hands the back half of its remaining range
//    to a helper thread. The hand-off is exact. The helper copies the
//    splitter's state at that boundary and walks the samples in between
//    with one zero-delay pass per phase: a settled state is a function of
//    its sources, so the walk ends in the very state the counting
//    unit-delay settles reach, and no sample is assumed to start from
//    reset. Each thread counts into bit-sliced counters of its own, which
//    are added up before the per-lane read-out. A chunk that never gets a
//    helper runs the serial loop with no walk.
//
// Char frames (one row of primary-input bits per cycle, what
// simulate_frames takes) are the one-phase case of the first axis:
// simulate_frames_batched reads each frame as a sample of 1-bit data
// inputs under a plan with no controls and hands it to
// simulate_sample_lanes, one frame per lane.
//
// Both rest on the same two facts, and share one staging helper
// (detail::PhaseStager): a sample's data bits are constant across its
// phases (gathered into words once per sample; re-staging an unchanged
// word is a no-op, so this is bit-identical to driving make_frames' rows),
// and the control plan is the same for every lane (selects staged
// all-zero / all-one on the active lanes).
//
// The templates are word-generic like the engine they drive; each
// dispatcher picks the backend from a SimdMode, with the AVX-512
// instantiations living in lane_sim_avx512.cpp (compiled with -mavx512f,
// reached only after a runtime CPU check).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/helper_budget.hpp"
#include "rtl/datapath.hpp"
#include "sim/bit_sim_engine.hpp"
#include "sim/schedule_sim.hpp"
#include "sim/simd_mode.hpp"

namespace hlp {

/// One stimulus sequence: samples[s][p] is sample s's word for data input
/// p (random_samples' shape).
using Samples = std::vector<std::vector<std::uint64_t>>;

/// One sample sequence per lane.
using LaneSamples = std::vector<Samples>;

/// Evaluate one stimulus sequence, one sample per lane, `simd` lanes per
/// word (chunked to the word). Returns the statistics of the whole run,
/// bit-identical to simulate_frames(n, make_frames(n, plan, samples)).
CycleSimStats simulate_sample_lanes(const Netlist& n, const DatapathPlan& plan,
                                    const Samples& samples, SimdMode simd);

/// One stimulus sequence of char frames through `n`: frames[t] holds one
/// value per primary input in netlist input order, any nonzero byte
/// reading as 1. Throws hlp::Error, with simulate_frames' message, on a
/// frame of the wrong arity. Bit-identical to simulate_frames(n, frames)
/// at every width.
CycleSimStats simulate_frames_batched(
    const Netlist& n, const std::vector<std::vector<char>>& frames,
    SimdMode simd = SimdMode::kU64);

/// Evaluate one chunk of stimulus seeds, `simd` lanes per word; chunk size
/// must fit one word of the chosen backend and every lane must hold the
/// same number of samples. Returns one CycleSimStats per lane,
/// bit-identical to per-seed scalar simulation of the same stimulus
/// however many helper threads shared the samples. An error on any thread
/// reaches the caller once every helper has joined, and then nothing of
/// the chunk is returned.
std::vector<CycleSimStats> simulate_seed_chunk(const Netlist& n,
                                               const DatapathPlan& plan,
                                               const LaneSamples& lane_samples,
                                               SimdMode simd);

namespace detail {

/// The per-phase stimulus staging both datapath engines share. gather()
/// packs one sample per lane into data words, once per sample; stage()
/// then stages those words, the control plan's selects for one phase and
/// the clock edge Q <- D. Selects and the edge apply to the active lanes
/// only: an inactive lane sees data and selects 0 and keeps its Q, so a
/// lane resting in the all-zero-source settled state never moves.
template <typename W>
class PhaseStager {
  using T = WordTraits<W>;

 public:
  PhaseStager(const Netlist& n, const DatapathPlan& plan)
      : n_(n),
        plan_(plan),
        data_words_(plan.data_input_pos.size() * plan.width) {}

  /// Settle every lane to the all-zero-source state, the state the scalar
  /// simulator starts from.
  void reset(BitSimulatorT<W>& sim) const {
    for (NetId pi : n_.inputs()) sim.stage_source(pi, T::zero());
    for (const auto& l : n_.latches()) sim.stage_source(l.q, T::zero());
    sim.settle_zero_delay();
  }

  /// Pack lanes [0, lanes) into the data words, lane l taking the sample
  /// `sample_of(l)`. Throws hlp::Error, with make_frames' message, on a
  /// sample that does not hold one word per data input.
  template <typename SampleOf>
  void gather(int lanes, SampleOf&& sample_of) {
    const std::size_t num_inputs = plan_.data_input_pos.size();
    std::fill(data_words_.begin(), data_words_.end(), T::zero());
    for (int l = 0; l < lanes; ++l) {
      const std::vector<std::uint64_t>& sample = sample_of(l);
      HLP_REQUIRE(sample.size() == num_inputs,
                  "sample has " << sample.size() << " words, datapath expects "
                                << num_inputs);
      for (std::size_t p = 0; p < num_inputs; ++p) {
        const std::uint64_t word = sample[p];
        for (int j = 0; j < plan_.width; ++j)
          T::or_lane(data_words_[p * plan_.width + j], l, (word >> j) & 1u);
      }
    }
  }

  /// Stage phase `ph` of the gathered samples on the `active` lanes.
  void stage(BitSimulatorT<W>& sim, int ph, const W& active) const {
    const auto& pis = n_.inputs();
    for (std::size_t p = 0; p < plan_.data_input_pos.size(); ++p)
      for (int j = 0; j < plan_.width; ++j)
        sim.stage_source(pis[plan_.data_input_pos[p] + j],
                         data_words_[p * plan_.width + j]);
    for (const auto& cg : plan_.controls) {
      const int sel = cg.select_by_phase[ph];
      for (std::size_t k = 0; k < cg.input_positions.size(); ++k)
        sim.stage_source(pis[cg.input_positions[k]],
                         ((sel >> k) & 1) ? active : T::zero());
    }
    for (const auto& l : n_.latches())
      sim.stage_source(
          l.q, (sim.word(l.d) & active) | (sim.word(l.q) & ~active));
  }

 private:
  const Netlist& n_;
  const DatapathPlan& plan_;
  std::vector<W> data_words_;  // [input p * width + bit j], one lane each
};

}  // namespace detail

/// Word-generic implementation (instantiated per backend; call
/// simulate_sample_lanes for the runtime-dispatched entry).
template <typename W>
CycleSimStats simulate_sample_lanes_t(const Netlist& n,
                                      const DatapathPlan& plan,
                                      const Samples& samples) {
  using T = WordTraits<W>;
  const int num_nets = n.num_nets();
  CycleSimStats stats;
  stats.num_cycles = samples.size() * plan.num_phases;
  stats.toggles.assign(num_nets, 0);

  BitSimulatorT<W> sim(n);
  detail::PhaseStager<W> stager(n, plan);
  stager.reset(sim);
  // s0 in every lane: the state sample 0 starts from, and the state an
  // inactive lane rests in.
  const std::vector<W> s0 = sim.state();
  // The state the chunk's first sample starts from, one bit per net.
  std::vector<char> carry(num_nets);
  for (NetId net = 0; net < num_nets; ++net)
    carry[net] = static_cast<char>(T::lane(s0[net], 0));
  std::vector<W> start(num_nets), prev(num_nets);
  std::uint64_t functional = 0;

  for (std::size_t g0 = 0; g0 < samples.size(); g0 += T::kLanes) {
    const int lanes = static_cast<int>(
        std::min<std::size_t>(T::kLanes, samples.size() - g0));
    const W active = T::mask_lo(lanes);
    stager.gather(lanes, [&](int l) -> const std::vector<std::uint64_t>& {
      return samples[g0 + l];
    });
    // Guess that every sample starts where the chunk does, then fix up:
    // lane l's start is lane l-1's end, which one zero-delay pass per
    // phase computes for all lanes at once. The loop stops only when every
    // active lane starts where its predecessor ends, and lane 0's start
    // is exact, so by induction every start is (at most lanes + 1 passes).
    for (NetId net = 0; net < num_nets; ++net)
      start[net] = (T::fill(carry[net] != 0) & active) | (s0[net] & ~active);
    for (bool fixed = false; !fixed;) {
      sim.load_state(start);
      for (int ph = 0; ph < plan.num_phases; ++ph) {
        stager.stage(sim, ph, active);
        sim.settle_zero_delay();
      }
      fixed = true;
      for (NetId net = 0; net < num_nets; ++net) {
        const W wrong =
            (T::shl1(sim.word(net), carry[net]) ^ start[net]) & active;
        if (T::any(wrong)) {
          fixed = false;
          start[net] = start[net] ^ wrong;
        }
      }
    }
    // Count from the verified start states. Every lane belongs to one run,
    // so popcounts sum to the run's counts; inactive lanes never move.
    sim.load_state(start);
    prev = start;
    for (int ph = 0; ph < plan.num_phases; ++ph) {
      stager.stage(sim, ph, active);
      sim.settle(&stats.toggles);
      for (NetId net = 0; net < num_nets; ++net) {
        const W now = sim.word(net);
        functional += static_cast<std::uint64_t>(T::popcount(prev[net] ^ now));
        prev[net] = now;
      }
    }
    for (NetId net = 0; net < num_nets; ++net)
      carry[net] = static_cast<char>(T::lane(sim.word(net), lanes - 1));
  }

  stats.functional_transitions = functional;
  for (auto v : stats.toggles) stats.total_transitions += v;
  return stats;
}

namespace detail {

/// a * b, or the largest std::uint64_t when the product does not fit.
inline std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  return b != 0 && a > ~std::uint64_t{0} / b ? ~std::uint64_t{0} : a * b;
}

/// One seed chunk counted along its time axis (see the header comment).
/// Every thread counts a range of samples into a Counter of its own; at
/// each sample boundary it may hand the back of its range to a helper,
/// which starts from a copy of the splitter's state and walks the samples
/// in between with zero-delay passes. A finished thread's Counter goes
/// back to a pool that the next helper takes it from, so a chunk holds at
/// most one Counter per concurrent thread; they are added up before the
/// per-lane read-out.
template <typename W>
class SeedChunkRun {
  using T = WordTraits<W>;

 public:
  SeedChunkRun(const Netlist& n, const DatapathPlan& plan,
               const LaneSamples& lane_samples)
      : n_(n),
        plan_(plan),
        lane_samples_(lane_samples),
        lanes_(static_cast<int>(lane_samples.size())),
        num_samples_(lane_samples.empty() ? 0 : lane_samples.front().size()),
        active_(T::mask_lo(lanes_)) {
    HLP_REQUIRE(lanes_ >= 1 && lanes_ <= T::kLanes,
                "seed chunk must fit one simulator word");
    for (int l = 1; l < lanes_; ++l)
      HLP_REQUIRE(lane_samples[l].size() == num_samples_,
                  "seed lane " << l << " has " << lane_samples[l].size()
                               << " samples, lane 0 has " << num_samples_);
  }
  // Helper threads hold `this`.
  SeedChunkRun(const SeedChunkRun&) = delete;
  SeedChunkRun& operator=(const SeedChunkRun&) = delete;

  /// Counts every sample; returns one CycleSimStats per lane. With `cuts`
  /// null a range is split whenever a slot of the helper budget is free.
  /// Otherwise the time axis is cut at exactly `cuts` (increasing, each
  /// inside (0, samples)), and each helper runs on the calling thread as
  /// soon as its range is handed off.
  std::vector<CycleSimStats> run(const std::vector<std::size_t>* cuts) {
    if (cuts) {
      for (std::size_t i = 0; i < cuts->size(); ++i)
        HLP_REQUIRE((*cuts)[i] > (i ? (*cuts)[i - 1] : 0) &&
                        (*cuts)[i] < num_samples_,
                    "cuts must increase strictly inside (0, "
                        << num_samples_ << ")");
    }
    cuts_ = cuts;
    auto root = std::make_unique<Counter>(*this);
    root->stager.reset(root->sim);
    try {
      count(*root, 0, num_samples_);
    } catch (...) {
      fail(std::current_exception());
    }
    const bool helped = join_helpers();
    if (error_) std::rethrow_exception(error_);
    for (const auto& c : pool_) {
      root->toggles.add(c->toggles);
      root->fn.add(c->fn);
    }
    pool_.clear();
    if (helped) trim_helper_arenas();
    return read_out(*root);
  }

 private:
  /// What one thread counts with: a simulator, a stager and counters of
  /// its own, plus settle scratch. The counters are sized from proven
  /// bounds: a unit-delay settle changes a net at most max(1, levels - 1)
  /// times (GatePlan::num_levels), and a cycle's functional transitions
  /// are at most one per net.
  struct Counter {
    explicit Counter(const SeedChunkRun& run)
        : sim(run.n_),
          stager(run.n_, run.plan_),
          toggles(run.n_.num_nets(),
                  saturating_mul(run.cycles(),
                                 std::max(1, sim.num_levels() - 1))),
          fn(1, saturating_mul(run.cycles(), run.n_.num_nets())),
          touched_flag(run.n_.num_nets(), 0),
          before(run.n_.num_nets()) {
      touched.reserve(run.n_.num_nets());
    }
    BitSimulatorT<W> sim;
    PhaseStager<W> stager;
    LaneCountersT<W> toggles;
    LaneCountersT<W> fn;
    std::vector<NetId> touched;
    std::vector<char> touched_flag;
    std::vector<W> before;
  };

  /// A range handed to a helper: the splitter's state at sample `at`, and
  /// the samples [begin, end) to count once the walk reaches `begin`.
  struct Handoff {
    std::vector<W> state;
    std::size_t at, begin, end;
  };

  std::uint64_t cycles() const {
    return saturating_mul(num_samples_,
                          static_cast<std::uint64_t>(plan_.num_phases));
  }

  void gather(Counter& c, std::size_t s) {
    c.stager.gather(lanes_, [&](int l) -> const std::vector<std::uint64_t>& {
      return lane_samples_[l][s];
    });
  }

  /// Unit-delay count of samples [begin, end) from c's state. Before each
  /// sample the range may shrink: split() hands its back to a helper.
  void count(Counter& c, std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      if (failed_.load(std::memory_order_relaxed)) return;
      end = split(c, s, end);
      gather(c, s);
      for (int ph = 0; ph < plan_.num_phases; ++ph) {
        c.stager.stage(c.sim, ph, active_);
        c.sim.settle_batch(c.toggles, c.touched, c.touched_flag, c.before);
        for (const NetId net : c.touched) {
          c.touched_flag[net] = 0;
          c.fn.add(0, c.before[net] ^ c.sim.word(net));
        }
        c.touched.clear();
      }
    }
  }

  /// Zero-delay walk of samples [from, to) from c's state: each settled
  /// state is a function of its sources, so it ends where count() would.
  void walk(Counter& c, std::size_t from, std::size_t to) {
    for (std::size_t s = from; s < to; ++s) {
      gather(c, s);
      for (int ph = 0; ph < plan_.num_phases; ++ph) {
        c.stager.stage(c.sim, ph, active_);
        c.sim.settle_zero_delay();
      }
    }
  }

  /// At the boundary before sample `s` of a range ending at `end`: hand the
  /// back of the range to a helper if one starts, and return the range's
  /// new end.
  std::size_t split(Counter& c, std::size_t s, std::size_t end) {
    if (cuts_) {
      const auto cut = std::upper_bound(cuts_->begin(), cuts_->end(), s);
      if (cut == cuts_->end() || *cut >= end) return end;
      help({c.sim.state(), s, *cut, end});
      return *cut;
    }
    if (end - s < 2) return end;
    HelperLease lease(1);
    if (lease.granted() == 0) return end;
    const std::size_t mid = s + (end - s) / 2;
    try {
      auto helper = [this, from = Handoff{c.sim.state(), s, mid, end},
                     lease = std::move(lease)]() mutable {
        help(std::move(from));
      };
      std::lock_guard<std::mutex> lock(mu_);
      helpers_.emplace_back(std::move(helper));
    } catch (const std::exception&) {
      return end;  // the helper never started: its range stays here
    }
    return mid;
  }

  /// A helper's whole life; nothing escapes it.
  void help(Handoff from) {
    try {
      std::unique_ptr<Counter> c = take_counter();
      c->sim.load_state(from.state);
      from.state = std::vector<W>();  // not needed while counting
      walk(*c, from.at, from.begin);
      count(*c, from.begin, from.end);
      std::lock_guard<std::mutex> lock(mu_);
      pool_.push_back(std::move(c));
    } catch (...) {
      fail(std::current_exception());
    }
  }

  std::unique_ptr<Counter> take_counter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!pool_.empty()) {
        std::unique_ptr<Counter> c = std::move(pool_.back());
        pool_.pop_back();
        return c;
      }
    }
    return std::make_unique<Counter>(*this);
  }

  /// Keeps the first error and stops every thread at its next boundary.
  void fail(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::move(error);
    failed_.store(true, std::memory_order_relaxed);
  }

  /// Joins every helper, those started by helpers included. Returns true
  /// when any ran.
  bool join_helpers() {
    bool any = false;
    for (;;) {
      std::thread helper;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (helpers_.empty()) return any;
        helper = std::move(helpers_.back());
        helpers_.pop_back();
      }
      helper.join();
      any = true;
    }
  }

  /// Per-lane statistics, net by net: one pass over each net's planes
  /// yields all of its lanes.
  std::vector<CycleSimStats> read_out(const Counter& c) const {
    const int num_nets = n_.num_nets();
    std::vector<CycleSimStats> results(lanes_);
    for (CycleSimStats& st : results) {
      st.num_cycles = num_samples_ * plan_.num_phases;
      st.toggles.resize(num_nets);
    }
    std::vector<std::uint64_t> per_lane(T::kLanes);
    for (NetId net = 0; net < num_nets; ++net) {
      c.toggles.counts(net, per_lane.data());
      for (int l = 0; l < lanes_; ++l) results[l].toggles[net] = per_lane[l];
    }
    c.fn.counts(0, per_lane.data());
    for (int l = 0; l < lanes_; ++l) {
      results[l].functional_transitions = per_lane[l];
      for (auto v : results[l].toggles) results[l].total_transitions += v;
    }
    return results;
  }

  const Netlist& n_;
  const DatapathPlan& plan_;
  const LaneSamples& lane_samples_;
  const int lanes_;
  const std::size_t num_samples_;
  const W active_;
  const std::vector<std::size_t>* cuts_ = nullptr;

  std::mutex mu_;  // guards pool_, error_ and helpers_
  std::vector<std::unique_ptr<Counter>> pool_;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
  std::vector<std::thread> helpers_;  // joined by run() on every path
};

}  // namespace detail

/// Word-generic implementation (instantiated per backend; call
/// simulate_seed_chunk for the runtime-dispatched entry). `cuts` null:
/// helpers from the budget; otherwise the explicit partition that
/// detail::simulate_seed_chunk_cut runs.
template <typename W>
std::vector<CycleSimStats> simulate_seed_chunk_t(
    const Netlist& n, const DatapathPlan& plan, const LaneSamples& lane_samples,
    const std::vector<std::size_t>* cuts = nullptr) {
  return detail::SeedChunkRun<W>(n, plan, lane_samples).run(cuts);
}

namespace detail {

/// Per-ISA entries, defined in lane_sim_avx512.cpp when the toolchain
/// supports the flag (HLP_HAVE_AVX512).
CycleSimStats simulate_sample_lanes_avx512(const Netlist& n,
                                           const DatapathPlan& plan,
                                           const Samples& samples);
std::vector<CycleSimStats> simulate_seed_chunk_avx512(
    const Netlist& n, const DatapathPlan& plan, const LaneSamples& lane_samples,
    const std::vector<std::size_t>* cuts);

/// simulate_seed_chunk with the time axis cut at exactly `cuts`
/// (increasing sample indices inside (0, samples); empty for one range)
/// instead of wherever helper slots free, every range on the calling
/// thread. Any partition gives the serial run's statistics bit for bit;
/// the tests drive the hand-off through it.
std::vector<CycleSimStats> simulate_seed_chunk_cut(
    const Netlist& n, const DatapathPlan& plan, const LaneSamples& lane_samples,
    const std::vector<std::size_t>& cuts, SimdMode simd);

}  // namespace detail

}  // namespace hlp
