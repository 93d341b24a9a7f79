// Shared experiment harness for the paper-reproduction benches, built on
// the src/flow subsystem.
//
// Every table/figure binary drives the same controlled pipeline the paper
// describes in Section 6.1, now expressed as flow::Pipeline stages over a
// per-benchmark flow::FlowContext (one scheduled CDFG and one register
// binding per benchmark, identical for every binder). The three binder
// configurations of the paper's comparison are fanned through the shared
// flow::ExperimentRunner (HLP_JOBS threads), all feeding one process-wide
// SA cache.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "binding/datapath_stats.hpp"
#include "cdfg/benchmarks.hpp"
#include "flow/experiment.hpp"
#include "flow/flow_context.hpp"
#include "flow/pipeline.hpp"
#include "power/sa_cache.hpp"
#include "rtl/flow.hpp"

namespace hlp::bench {

/// The seven paper benchmarks, in Table 1 order.
const std::vector<std::string>& names();

/// Table 2 resource constraints / paper-reported columns.
struct Table2Row {
  int adders;
  int multipliers;
  int paper_cycles;
  int paper_registers;
};
Table2Row table2(const std::string& name);

/// Shared per-benchmark context (CDFG + memoised schedule and register
/// binding under the Table 2 constraint), owned by the runner.
flow::FlowContext& context(const std::string& name);

/// One binder's full evaluation.
struct Evaluated {
  FuBinding fus;
  DatapathStats mux;
  FlowResult flow;
  double bind_seconds = 0.0;
  /// Per-stage wall clock of the pipeline run.
  std::vector<flow::StageTiming> timings;
};

/// All three configurations of the paper's comparison, memoised per
/// benchmark. `hlp_one` is HLPower with alpha=1 (SA term only).
struct Comparison {
  Evaluated lopass;
  Evaluated hlp_half;  // alpha = 0.5 (the paper's headline configuration)
  Evaluated hlp_one;   // alpha = 1.0
};
const Comparison& comparison(const std::string& name);

/// Evaluation width and vector count shared by every bench (HLP_VECTORS
/// overrides the vector count; the paper used 1000).
int bench_width();
int bench_vectors();

/// Worker threads for the experiment grids (HLP_JOBS override, default 2).
int bench_jobs();

/// The process-wide SA cache (width = bench_width()), shared with the
/// runner's contexts.
SaCache& sa_cache();

/// The process-wide runner every bench fans its jobs through.
flow::ExperimentRunner& runner();

/// The bench-default job for `name` (Table 2 rc, bench width/vectors).
flow::Job job(const std::string& name, const flow::BinderSpec& spec);

/// Run one binder configuration through the standard pipeline on the
/// shared context.
Evaluated evaluate(const std::string& name, const flow::BinderSpec& spec);

/// Convert a finished pipeline outcome into the bench view.
Evaluated to_evaluated(const flow::PipelineOutcome& out);

/// Percent change helper: 100 * (b - a) / a.
double pct(double a, double b);

/// One coalesced-vs-independent comparison of a Monte-Carlo seed sweep:
/// `num_seeds` stimulus seeds of one (benchmark, binder) point, run once
/// through a coalescing runner (seeds ride the word-parallel
/// simulate_batch lanes in the word `auto` picks) and once with
/// coalescing disabled (one full pipeline per seed). Both runners share
/// the process-wide SA cache; `identical` confirms the two paths agreed
/// bit for bit on every seed.
struct SeedSweepReport {
  std::string benchmark;
  int num_seeds = 0;
  double coalesced_s = 0.0;
  double independent_s = 0.0;
  bool identical = false;
  double speedup() const {
    return coalesced_s > 0.0 ? independent_s / coalesced_s : 0.0;
  }
};
SeedSweepReport seed_sweep(const std::string& name,
                           const flow::BinderSpec& spec, int num_seeds);

/// Run seed_sweep over `benchmarks` and print the comparison table (the
/// README's "Seed-parallel experiment batching" numbers). The header
/// names the word width `auto` resolves to for the group, so BENCH
/// artifacts stay interpretable across machines.
void print_seed_sweep(std::ostream& os,
                      const std::vector<std::string>& benchmarks,
                      int num_seeds);

/// One workers-vs-threads comparison of a Monte-Carlo seed sweep: the
/// same `num_seeds`-seed (benchmark, binder) grid run once through the
/// in-process ExperimentRunner with `parallelism` threads and once
/// through a DistributedRunner with `parallelism` single-threaded worker
/// processes (fork/exec of hlp_worker, SA shards merged back). Both
/// runners start cold and private, so the measurement isolates the
/// process-vs-thread axis; `identical` confirms the two paths agreed bit
/// for bit on every seed (flow::same_outcome).
struct WorkerSweepReport {
  std::string benchmark;
  int num_seeds = 0;
  int parallelism = 0;
  double threads_s = 0.0;
  double workers_s = 0.0;
  bool identical = false;
  double ratio() const {
    return workers_s > 0.0 ? threads_s / workers_s : 0.0;
  }
};
WorkerSweepReport worker_sweep(const std::string& name,
                               const flow::BinderSpec& spec, int num_seeds,
                               int parallelism);

/// Run worker_sweep over `benchmarks` and print the comparison table (the
/// distributed CI leg's artifact). `parallelism` defaults to HLP_WORKERS
/// or 2. Degrades to a notice (no table) when the hlp_worker binary is
/// not next to the current executable.
void print_worker_sweep(std::ostream& os,
                        const std::vector<std::string>& benchmarks,
                        int num_seeds, int parallelism = 0);

/// One cold-vs-warm comparison of the persistent artifact store
/// (src/store/artifact_store.hpp): the same `num_seeds`-seed (benchmark,
/// binder) grid run by a cold runner that populates a fresh store, then by
/// a second fresh runner (empty in-memory caches — a process restart in
/// miniature) warm-starting from it. `identical` confirms the warm run
/// agreed bit for bit (flow::same_outcome); `warm_cached` that every warm
/// job actually skipped the bind-fus..time span; the span_*_s fields
/// isolate the stage seconds the store saves from the grid's wall clock.
struct StoreSweepReport {
  std::string benchmark;
  int num_seeds = 0;
  double cold_s = 0.0;
  double warm_s = 0.0;
  /// Summed per-stage seconds of the cacheable span (bind-fus, refine,
  /// elaborate, map, time) across the grid's pipeline invocations.
  double span_cold_s = 0.0;
  double span_warm_s = 0.0;
  bool identical = false;
  bool warm_cached = false;
  double speedup() const { return warm_s > 0.0 ? cold_s / warm_s : 0.0; }
};
StoreSweepReport store_sweep(const std::string& name,
                             const flow::BinderSpec& spec, int num_seeds);

/// Run store_sweep over `benchmarks` and print the cold-vs-warm table
/// (the CI artifact-store leg's stage-timing artifact). Both runners are
/// single-threaded with private SA caches, so the store is the only state
/// they share.
void print_store_sweep(std::ostream& os,
                       const std::vector<std::string>& benchmarks,
                       int num_seeds);

/// Run the canonical incremental knob walk (base grid, then more vectors
/// / binder retune / scheduler switch — src/explore/) twice against one
/// store directory and print the per-step reuse table: a COLD walk where
/// only the vectors step can reuse (its ArtifactKeys are unchanged, so
/// every span is a store hit), then the identical walk WARM from the
/// persisted store, where every step of the walk must be all-hits /
/// zero-recompute. Wall clock, store hit/recompute counters and the
/// frontier size per step; the frontiers of the two walks must be
/// bit-identical (the explorer's order-independence guarantee) — the
/// artifact-store CI leg uploads this table.
void print_explore_sweep(std::ostream& os,
                         const std::vector<std::string>& benchmarks,
                         int num_seeds);

}  // namespace hlp::bench
