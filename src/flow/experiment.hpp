// ExperimentRunner: fan a grid of (benchmark x binder x seed x constraint)
// jobs across a std::thread pool.
//
// Every job runs the Pipeline on a FlowContext that is memoised per
// (benchmark, scheduler, rc, width, reg_seed) — jobs that share a setup
// share the schedule, register binding and SA cache, computed once.
// On top of that, jobs that differ ONLY in stimulus seed are coalesced
// (default on, see set_coalescing) into one Pipeline::run_batch invocation:
// the head stages run once and the seeds ride the word-parallel simulator
// one per lane, in the narrowest word that covers the group (64 lanes per
// u64 word up to 512 per avx512 word) — a Monte-Carlo sweep paying the
// netlist traversal once per word instead of once per seed.
// All algorithms in the library are deterministic and the SaCache
// memoisation is value-deterministic under races, so results are identical
// for any thread count and either coalescing setting; only wall-clock
// changes. Results are returned in job order; per-job failures are
// captured, not thrown (a failing coalesced group reports the error on
// every member job).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cdfg/cdfg.hpp"
#include "flow/flow_context.hpp"
#include "flow/pipeline.hpp"
#include "power/sa_cache.hpp"

namespace hlp::store {
class ArtifactStore;   // store/artifact_store.hpp
struct ArtifactKey;    // store/artifact_store.hpp
}

namespace hlp::flow {

/// Worker threads from the HLP_JOBS env var, else `fallback`. Strictly
/// parsed like vectors_from_env: garbage or non-positive values throw.
int jobs_from_env(int fallback);

/// Artifact-store directory from the HLP_STORE env var, else `fallback`.
/// The value is a path, so there is nothing to parse — validation is
/// deferred to opening the store (ExperimentRunner::artifact_store throws
/// an error naming HLP_STORE when the directory cannot be created).
std::string store_dir_from_env(std::string fallback);

/// One cell of the experiment grid.
struct Job {
  /// Key handed to the graph provider (default: a paper benchmark name).
  std::string benchmark;
  std::string scheduler = "list";
  BinderSpec binder;
  /// {0, 0} = schedule-minimum allocation (see FlowContext::rc()).
  ResourceConstraint rc{0, 0};
  int width = 8;
  int num_vectors = 200;
  /// Simulation stimulus seed.
  std::uint64_t seed = 42;
  std::uint64_t reg_seed = 42;
  SchedulerSpec sched_spec;
  /// Simulation engine for the pipeline's `simulate` stage (bit-parallel
  /// batch by default; scalar is the reference oracle). The batched
  /// engine sizes its word to the coalesced seed group, and coalesced
  /// groups are chunked to that width.
  SimEngine sim_engine = SimEngine::kBatched;
  /// SA backend (ContextOptions::sa_mode of the job's context): an absent
  /// value defers to HLP_SA_MODE at context construction (unset
  /// environment = estimate). The mode changes VALUES, so it is resolved
  /// once per runner process and pinned: it keys the context (different
  /// modes never share a FlowContext or SaCache), joins the coalescing
  /// group key, and rides the distributed manifest pre-resolved (`sa=`) so
  /// workers run exactly the parent's backend regardless of their own
  /// environment.
  std::optional<SaMode> sa;
  /// Free-form tag carried through to the result (display only).
  std::string label;
};

struct JobResult {
  Job job;
  PipelineOutcome outcome;
  bool ok = false;
  /// what() of the exception when !ok.
  std::string error;
  /// Wall-clock of the pipeline invocation this job rode — the whole
  /// group's when coalesced (see group_size).
  double seconds = 0.0;
  /// How many jobs shared this job's pipeline invocation (1 = ran alone).
  std::size_t group_size = 1;
};

/// One dispatchable work item of a run: a singleton job, or one word-sized
/// chunk (one simulator word of seeds — 64 at u64 width, up to 512 under
/// avx512) of a seed-coalescing group. Chunking lets a group larger than a
/// word spread across executors while each chunk still fills its lanes.
struct WorkUnit {
  /// Indices into the planned grid, ascending within the unit.
  std::vector<std::size_t> members;
  /// Size of the full seed group this unit chunks (1 = ran alone); becomes
  /// JobResult::group_size of every member.
  std::size_t group_size = 1;
};

/// Everything a job's pipeline invocation depends on except the stimulus
/// seed, as one string (the SA mode resolved, doubles in hexfloat so
/// distinct knob values never alias): jobs with equal group keys share one
/// run_batch call, and a job's identity is its group key plus its seed.
std::string group_key(const Job& job);

/// The unit decomposition ExperimentRunner::run executes — and the quantum
/// the DistributedRunner hands to its workers: jobs are grouped by
/// everything except the stimulus seed, and each group is chunked to its
/// resolved word width. Keeping whole chunks intact across any executor
/// preserves seed coalescing and lane-aware SIMD sizing, so threads and
/// worker processes run bit-identical pipeline invocations.
/// `coalesce` off (or a single job) degrades to one singleton unit per job.
std::vector<WorkUnit> plan_units(const std::vector<Job>& jobs, bool coalesce);

class ExperimentRunner {
 public:
  using GraphProvider = std::function<Cdfg(const std::string&)>;

  /// `num_threads` <= 1 runs inline on the calling thread. The default
  /// provider resolves names via make_paper_benchmark.
  explicit ExperimentRunner(int num_threads = 1, GraphProvider provider = {});
  ~ExperimentRunner();  // out of line: ArtifactStore is incomplete here

  /// Run all jobs; results in job order.
  std::vector<JobResult> run(const std::vector<Job>& jobs);

  /// Streaming hook: `cb(index, result)` fires once per job, on the pool
  /// thread that executed it, immediately after the job's slot in the
  /// result vector is fully populated — failures included, and every
  /// member of a coalesced unit in ascending grid order. Placement is
  /// unchanged: run() still returns results in job order; the callback
  /// only adds completion-order visibility (an online Pareto frontier, a
  /// progress bar) on top. With num_threads > 1 the callback runs
  /// concurrently from several workers and must be thread-safe. The
  /// reference passed is the slot itself and stays valid until run()
  /// returns. An empty function disables the hook.
  using ResultCallback = std::function<void(std::size_t, const JobResult&)>;
  void set_result_callback(ResultCallback cb);

  /// The memoised context a job maps to (creating it if needed).
  FlowContext& context_for(const Job& job);

  /// The exact ArtifactKey the pipeline would probe/publish for this
  /// job's bind-fus..time span: its context's binding_hash of the job's
  /// binder — the pipeline head's own key.
  /// Needs no store configured (the explorer diffs steps with it;
  /// `hlp_store gc --keep-manifest` derives live addresses from it);
  /// resolving rc may run the context's probe schedule.
  store::ArtifactKey artifact_key_for(const Job& job);

  /// The runner-owned cache contexts of (`width`, `mode`) share. The
  /// one-argument overload resolves the mode from the environment
  /// (effective_sa_mode with no explicit request) — what a job with an
  /// absent `sa` field uses.
  SaCache& sa_cache(int width, SaMode mode);
  SaCache& sa_cache(int width);

  /// Persistent artifact-store directory. When non-empty, every context
  /// this runner creates gets its StageCache backed by one shared
  /// ArtifactStore rooted there (miss -> disk probe -> compute ->
  /// publish), so a second run over the same grid skips the
  /// bind-fus..time stages bit-identically. The constructor reads the
  /// HLP_STORE env var as the default; an explicit call wins over the
  /// environment (empty disables persistence). Takes effect for contexts
  /// created after the call.
  void set_store_dir(std::string dir);
  const std::string& store_dir() const { return store_dir_; }

  /// The shared store handle (opened on first use; null when no store
  /// dir is configured). Throws hlp::Error naming HLP_STORE — or the
  /// explicit path — when the directory cannot be created; run() opens
  /// the store up front so a bad HLP_STORE fails loudly instead of as N
  /// identical per-job errors.
  store::ArtifactStore* artifact_store();

  /// Coalesce jobs that differ only in stimulus seed into one
  /// Pipeline::run_batch call (one seed per simulator lane, chunked to
  /// the job's resolved word width). On by default. Results are
  /// bit-identical either way (tests/experiment_batch_test).
  void set_coalescing(bool on) { coalesce_ = on; }
  bool coalescing() const { return coalesce_; }

  int num_threads() const { return num_threads_; }

  /// Cross product helper: one job per (benchmark, binder, seed, rc), all
  /// other fields copied from `base`. Empty seed/rc lists mean "just the
  /// base's value".
  static std::vector<Job> grid(
      const std::vector<std::string>& benchmarks,
      const std::vector<BinderSpec>& binders,
      const std::vector<std::uint64_t>& seeds = {},
      const std::vector<ResourceConstraint>& rcs = {}, const Job& base = {});

 private:
  store::ArtifactStore* ensure_store_locked();

  int num_threads_;
  GraphProvider provider_;
  ResultCallback result_cb_;
  bool coalesce_ = true;
  std::string store_dir_;
  bool store_from_env_ = false;  // error messages name HLP_STORE then
  std::unique_ptr<store::ArtifactStore> store_;

  std::mutex mu_;  // guards the maps and the store handle
  std::map<std::string, std::unique_ptr<FlowContext>> contexts_;
  std::map<std::pair<int, SaMode>, std::unique_ptr<SaCache>> caches_;
};

}  // namespace hlp::flow
