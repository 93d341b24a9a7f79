// The evaluation pipeline — `run_flow` (the paper's Section 6.1 Quartus
// stand-in) as one fixed sequence of nine named stages with per-stage
// wall-clock timing:
//
//   schedule -> bind-regs -> bind-fus -> refine -> elaborate -> map ->
//   time -> simulate -> power
//
// The first two stages read the memoised artifacts of the FlowContext;
// `bind-fus` resolves the binder by name through the registry; `refine` is
// a no-op unless the BinderSpec asks for port refinement. The tail stages
// perform exactly the computations of `run_flow` with the same seeds, so
// for a fixed seed the pipeline reproduces `run_flow`'s numbers bit for
// bit (asserted by tests/flow_test.cpp).
//
// Two amortisation layers ride on top, both result-preserving:
//  - StageCache: the bind-fus..time span is computed once per binding
//    into a StageCache entry under FlowContext::binding_hash(), and
//    `simulate` and `power` read that entry in place, so re-running a
//    binding skips straight to simulate and copies nothing
//    (tests/pipeline_cache_test.cpp). Outcomes carry the span's summary,
//    not its datapath or LUT netlist.
//  - run_batch: many stimulus seeds of one RunSpec share a single head
//    pass, then ride the word-parallel simulator's lanes — one seed per
//    bit, in the narrowest word that covers the seed group: 64 per u64
//    word up to 512 per avx512 word (tests/experiment_batch_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/port_refine.hpp"
#include "flow/flow_context.hpp"
#include "flow/registry.hpp"
#include "rtl/datapath.hpp"
#include "rtl/flow.hpp"
#include "sim/bit_sim.hpp"

namespace hlp::store {
class ArtifactStore;  // store/artifact_store.hpp
}

namespace hlp::flow {

/// Per-run evaluation parameters (the per-job half of FlowParams; the
/// width lives on the context).
struct RunSpec {
  BinderSpec binder;
  int num_vectors = 1000;
  /// Simulation stimulus seed.
  std::uint64_t seed = 42;
  /// Evaluation mapping is depth-oriented, as in run_flow.
  MapParams map{CutParams{}, MapMode::kDepth};
  TimingModel timing;
  PowerParams power;
  /// Which engine the `simulate` stage evaluates the stimulus with. The
  /// bit-parallel batch engine is the default; the scalar event simulator
  /// is kept as the reference oracle (results are bit-identical). The
  /// batched engine's word width is not a setting: each batch takes the
  /// narrowest CPU-supported word that covers its lane demand (seed-group
  /// size / frame count; effective_simd_mode), and every width is
  /// bit-identical.
  SimEngine sim_engine = SimEngine::kBatched;
  /// Requested SA backend (power/sa_mode.hpp). The cache actually used
  /// belongs to the CONTEXT, so this field is a pin, not a selector: a
  /// concrete value makes run()/run_batch() verify the context's SaCache
  /// runs that mode (throwing on mismatch — catching a sweep whose specs
  /// and contexts were resolved under different HLP_SA_MODE values), an
  /// absent value accepts whatever the context resolved. This knob
  /// changes VALUES, which is why it pins rather than switches per run.
  std::optional<SaMode> sa;
};

/// Memoised per-binding artifacts of the pipeline's bind-fus -> refine ->
/// elaborate -> map -> time span, keyed by FlowContext::binding_hash().
/// One cache per FlowContext (the key does not encode the CDFG), so a
/// design-space sweep that revisits a binding on its context skips from
/// bind-fus straight to simulate. Published entries are immutable and
/// shared: the pipeline's simulate and power stages read them in place.
/// Thread-safe; concurrent misses on one key both compute
/// (value-identical by determinism) and the first insert wins.
class StageCache {
 public:
  struct Entry {
    FuBinding fus;  // post-refine when `refined`
    PortRefineResult refine;
    bool refined = false;
    DatapathStats mux_stats;
    Datapath datapath;
    MapResult mapped;
    double clock_period_ns = 0.0;
  };

  /// The published entry for `key`, or null. Counts one hit or miss. A
  /// memory miss (still counted as a miss) falls through to the bound
  /// ArtifactStore, and a disk hit repopulates the memory map so later
  /// probes stay local. `sa` is the resolved SA mode name the stored
  /// entry must carry (the in-memory map keys on binding_hash() alone,
  /// which already encodes it).
  std::shared_ptr<const Entry> find(const std::string& key,
                                    const std::string& sa);
  /// Publish the artifacts for `key`: persist them to the bound
  /// ArtifactStore (atomic write-then-rename, overlap-must-agree), then
  /// insert them into the memory map. The first writer wins, and the
  /// entry published under `key` is returned — for a racing loser, the
  /// winner's value-identical entry.
  std::shared_ptr<const Entry> insert(const std::string& key,
                                      const std::string& sa, Entry entry);

  /// Bind a persistent ArtifactStore (non-owning; null unbinds). `scope`
  /// is the context-identity half of every ArtifactKey this cache reads
  /// or writes — see FlowContext::set_artifact_store.
  void bind_store(store::ArtifactStore* store, std::string scope);

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const Entry>> entries_;
  store::ArtifactStore* store_ = nullptr;
  std::string store_scope_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

struct StageTiming {
  std::string name;
  double seconds = 0.0;
};

struct PipelineOutcome {
  /// The bound FUs (after refinement, when requested).
  FuBinding fus;
  /// Same shape as run_flow's result — clock, sim, power, mux — except
  /// that `flow.mapped` holds only the map summary (num_luts, depth): its
  /// `lut_netlist` is empty. The mapped netlist and the datapath live in
  /// the context's StageCache entry for the run's binding_hash().
  FlowResult flow;
  /// Valid iff `refined` (the refine stage ran).
  PortRefineResult refine;
  bool refined = false;
  /// Wall-clock of every stage, in pipeline order. A batched run records
  /// the whole word-parallel batch under `simulate`; stages served from
  /// the StageCache record 0 s.
  std::vector<StageTiming> timings;
  /// Names of the stages whose artifacts came from the context's
  /// StageCache instead of being recomputed (empty on a cache miss).
  std::vector<std::string> cached_stages;
  /// Seconds spent in the `bind-fus` stage (+ `refine` when it ran) — the
  /// "HLPower runtime" column of Table 2.
  double bind_seconds = 0.0;

  /// Timing of one stage by name (0.0 if absent).
  double stage_seconds(const std::string& name) const;
};

/// The fixed nine-stage pipeline; stateless, so every entry point is
/// static.
class Pipeline {
 public:
  /// The stage names, in order.
  static const std::vector<std::string>& stage_names();

  /// Run every stage in order, timing each.
  static PipelineOutcome run(FlowContext& ctx, const RunSpec& spec = {});

  /// Seed-batched run: the word-parallel fast path behind ExperimentRunner
  /// job coalescing. The stages before `simulate` run ONCE (stage-cache
  /// aware), then `simulate` evaluates every seed in `seeds` on the
  /// word-parallel simulator — one stimulus seed per lane, in the
  /// narrowest word (64..512 lanes) that covers the seed group, chunked to
  /// that word width — and `power` runs per seed. Outcome i is
  /// bit-identical to run() with spec.seed = seeds[i] at ANY width;
  /// spec.seed itself is ignored.
  static std::vector<PipelineOutcome> run_batch(
      FlowContext& ctx, const RunSpec& spec,
      const std::vector<std::uint64_t>& seeds);
};

}  // namespace hlp::flow
