// Incremental design-space explorer on top of the artifact store.
//
// A sweep in this repository is one grid run; an *exploration* is a walk:
// run a base grid, then mutate one knob at a time (binder, scheduler, SA
// mode, stimulus vectors) and rerun. The expensive middle of the pipeline
// — the bind-fus..time span — depends only on its key
// (FlowContext::binding_hash), so a knob that leaves a job's key
// unchanged must not recompute that span: it comes back out of the
// persistent store (PR 9) while only the cheap tail (simulate, power)
// reruns. The Explorer makes that contract measurable and pinnable:
//
//   - each step runs on a FRESH ExperimentRunner sharing one store
//     directory, so the in-memory StageCache is cold every step and the
//     step's store hit/miss/publish counters are exact reuse evidence
//     (tests pin them: a vectors-only step hits the store once per span
//     and publishes nothing);
//   - each step's grid is diffed against the previous step's via
//     ExperimentRunner::artifact_key_for — the same keys the pipeline
//     probes — reported as spans_shared vs spans;
//   - every JobResult streams into one online ParetoFrontier through
//     ExperimentRunner::set_result_callback as it completes, so the
//     frontier is live mid-step and, by the frontier's order-independence
//     guarantee, bit-identical however the pool interleaves.
//
// The walk is cumulative: step N mutates the grid produced by step N-1,
// like a user iterating on a configuration.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/pareto.hpp"
#include "flow/experiment.hpp"

namespace hlp::explore {

/// One knob mutation, applied to every job of the current grid. Unset
/// fields leave the grid alone; `binder` replaces the whole spec while
/// `binder_alpha` retunes just the cost-weight knob of whatever binder
/// each job already runs (applied after `binder` when both are set).
struct KnobStep {
  std::string name;  // display tag for the step's report row
  std::optional<std::string> scheduler;  // changes key -> full recompute
  std::optional<SaMode> sa;              // changes key -> full recompute
  std::optional<flow::BinderSpec> binder;  // changes key -> recompute
  std::optional<double> binder_alpha;    // changes key -> recompute
  std::optional<int> num_vectors;        // tail-only: every span reused
};

/// Which knobs a step mutated, e.g. "scheduler+vectors"; "-" for none.
std::string describe_axes(const KnobStep& step);

/// Reuse evidence of one step of the walk (the base grid is step 0).
struct StepReport {
  std::string name;
  std::string axes;            // describe_axes of the mutation ("-" for base)
  std::size_t num_jobs = 0;
  std::size_t failed = 0;      // results with !ok
  /// Distinct bind-fus..time spans (ArtifactKeys) the step's grid maps
  /// to; jobs whose key cannot be computed (unknown benchmark) are
  /// counted in `failed` by the run and contribute no span.
  std::size_t spans = 0;
  /// Spans with the identical ArtifactKey in the previous step — the
  /// knob-diff: these must come from the store, not be recomputed.
  std::size_t spans_shared = 0;
  /// This step's store counters (fresh runner + fresh store handle per
  /// step, so these are exact per-step deltas, not run-to-date totals).
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_publishes = 0;
  std::uint64_t store_rejected = 0;
  std::size_t frontier_size = 0;  // frontier size after this step
  double seconds = 0.0;           // wall clock of the step's run
};

struct Exploration {
  std::vector<StepReport> steps;        // base first, then one per KnobStep
  std::vector<ParetoPoint> frontier;    // ParetoFrontier::points()
};

class Explorer {
 public:
  /// `base_grid` is step 0. `store_dir` backs every step's runner with
  /// one shared artifact store (empty = no persistence: every step
  /// recomputes — the explicit empty string also shields the walk from
  /// HLP_STORE, exactly like ExperimentRunner::set_store_dir; pass
  /// flow::store_dir_from_env("") to opt back in). `num_threads` sizes
  /// each step's pool; results and frontier are identical for any value.
  explicit Explorer(std::vector<flow::Job> base_grid, std::string store_dir,
                    int num_threads = 1,
                    flow::ExperimentRunner::GraphProvider provider = {});

  /// Append one knob-mutation step to the walk. Returns *this to chain.
  Explorer& step(KnobStep s);

  /// Run the whole walk: base grid, then each step on its own fresh
  /// store-backed runner, streaming every result into the frontier.
  /// Callable repeatedly — a second run against a warm store is the
  /// all-spans-reused fixture the bench sweeps print.
  Exploration run();

  const ParetoFrontier& frontier() const { return frontier_; }

  /// Apply one step's mutations to a grid (exposed for tests).
  static void apply(const KnobStep& step, std::vector<flow::Job>& grid);

 private:
  std::vector<flow::Job> base_;
  std::string store_dir_;
  int num_threads_;
  flow::ExperimentRunner::GraphProvider provider_;
  std::vector<KnobStep> steps_;
  ParetoFrontier frontier_;
};

}  // namespace hlp::explore
