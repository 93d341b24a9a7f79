// FlowContext: the shared, memoised artifacts of one design under one
// experimental setup.
//
// The paper's controlled comparison (Section 6.1, Table 2: "identical
// schedules and register bindings were used") means every binder run on a
// benchmark consumes the *same* CDFG, schedule and register binding. A
// FlowContext owns those shared artifacts and computes each lazily exactly
// once — schedule on first schedule() call (via the named scheduler from
// the registry), register binding on first regs() call — so a grid of
// binder runs pays the per-benchmark setup a single time. The SA cache is
// either shared (non-owning pointer, e.g. the process-wide bench cache)
// or owned per context.
//
// Thread-safe: the lazy initialisation is mutex-guarded so contexts can be
// shared across ExperimentRunner worker threads.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "binding/binding.hpp"
#include "cdfg/cdfg.hpp"
#include "flow/registry.hpp"
#include "power/sa_cache.hpp"
#include "sched/schedule.hpp"

namespace hlp::store {
class ArtifactStore;  // store/artifact_store.hpp
}

namespace hlp::flow {

class StageCache;  // pipeline.hpp — per-binding artifact cache

struct ContextOptions {
  /// Scheduler registry key ("list", "fds", ...).
  std::string scheduler = "list";
  SchedulerSpec sched_spec;
  /// Datapath bit width (SA estimation and evaluation).
  int width = 8;
  /// Register binding seed (port assignment tie-breaking).
  std::uint64_t reg_seed = 42;
  /// SA backend of the context's owned cache: an absent value defers to
  /// HLP_SA_MODE (effective_sa_mode). With a shared cache the cache's own
  /// mode governs, and a concrete request here must agree with it.
  std::optional<SaMode> sa_mode;
};

class FlowContext {
 public:
  /// `rc` with a zero adder or multiplier count means "derive the minimum
  /// from a probe schedule" (the allocation lower bound of Theorem 1).
  /// `shared_cache` must outlive the context and match `opt.width`; null
  /// means the context owns a private cache.
  FlowContext(Cdfg g, ResourceConstraint rc, ContextOptions opt = {},
              SaCache* shared_cache = nullptr);
  ~FlowContext();  // out of line: StageCache is incomplete here

  const Cdfg& cdfg() const { return g_; }
  const ContextOptions& options() const { return opt_; }
  int width() const { return opt_.width; }

  /// The (memoised) schedule from the named scheduler. First call runs the
  /// scheduler; later calls are lookups.
  const Schedule& schedule();

  /// The resource constraint, resolved: zero entries replaced by the probe
  /// minimum and widened to the schedule's max density (latency-driven
  /// schedulers balance but do not constrain).
  const ResourceConstraint& rc();

  /// The (memoised) shared register binding.
  const RegisterBinding& regs();

  SaCache& sa_cache() {
    return shared_cache_ ? *shared_cache_ : *owned_cache_;
  }

  /// Context-owned cache of the per-binding pipeline artifacts (bind-fus
  /// through time), keyed by binding_hash(). The pipeline consults it so a
  /// sweep that revisits a binding skips straight to simulate. Its entries
  /// hold the run's datapath and mapped LUT netlist, which outcomes do not
  /// carry: callers that need the netlist read it here.
  StageCache& stage_cache() { return *stage_cache_; }

  /// Back the StageCache with a persistent ArtifactStore (non-owning,
  /// must outlive this context; null unbinds): memory misses fall through
  /// to a disk probe and computed entries are published back, under the
  /// same binding_hash() key.
  void set_artifact_store(store::ArtifactStore* store);

  /// The one key of the artifacts a binder produces on this context: the
  /// StageCache key, the artifact-store key and (hashed) its content
  /// address. Not a lossy digest: the key serialises every field the
  /// bind-fus..time stages read that a caller can vary — the context's
  /// scheduler/spec, resolved rc, width, reg_seed and SA mode, the binder
  /// knobs (doubles in hexfloat), and a structural digest of the CDFG — so
  /// distinct configurations can never collide, and two graph providers
  /// reusing one benchmark name never share entries. Mapping and timing
  /// are the flow's fixed kEvalMap and default TimingModel.
  std::string binding_hash(const BinderSpec& binder);

 private:
  void ensure_scheduled_locked();
  void ensure_regs_locked();

  Cdfg g_;
  std::string cdfg_digest_;  // structural digest of g_, for binding_hash()
  ResourceConstraint rc_;
  ContextOptions opt_;
  SaCache* shared_cache_ = nullptr;
  std::unique_ptr<SaCache> owned_cache_;
  std::unique_ptr<StageCache> stage_cache_;

  std::mutex mu_;  // guards the lazy artifacts below
  bool scheduled_ = false;
  bool regs_bound_ = false;
  Schedule s_;
  RegisterBinding regs_;
};

}  // namespace hlp::flow
