#include "explore/explorer.hpp"

#include <chrono>
#include <memory>
#include <set>
#include <utility>

#include "store/artifact_store.hpp"

namespace hlp::explore {

std::string describe_axes(const KnobStep& step) {
  std::string axes;
  auto add = [&](const char* name) {
    if (!axes.empty()) axes += '+';
    axes += name;
  };
  if (step.scheduler) add("scheduler");
  if (step.sa) add("sa");
  if (step.binder) add("binder");
  if (step.binder_alpha) add("binder.alpha");
  if (step.num_vectors) add("vectors");
  return axes.empty() ? "-" : axes;
}

void Explorer::apply(const KnobStep& step, std::vector<flow::Job>& grid) {
  for (flow::Job& job : grid) {
    if (step.scheduler) job.scheduler = *step.scheduler;
    if (step.sa) job.sa = *step.sa;
    if (step.binder) job.binder = *step.binder;
    if (step.binder_alpha) job.binder.alpha = *step.binder_alpha;
    if (step.num_vectors) job.num_vectors = *step.num_vectors;
  }
}

Explorer::Explorer(std::vector<flow::Job> base_grid, std::string store_dir,
                   int num_threads,
                   flow::ExperimentRunner::GraphProvider provider)
    : base_(std::move(base_grid)),
      store_dir_(std::move(store_dir)),
      num_threads_(num_threads),
      provider_(std::move(provider)) {}

Explorer& Explorer::step(KnobStep s) {
  steps_.push_back(std::move(s));
  return *this;
}

Exploration Explorer::run() {
  using Clock = std::chrono::steady_clock;
  Exploration out;
  std::vector<flow::Job> grid = base_;
  std::set<std::string> prev_keys;

  for (std::size_t s = 0; s <= steps_.size(); ++s) {
    StepReport report;
    if (s == 0) {
      report.name = "base";
      report.axes = "-";
    } else {
      const KnobStep& step = steps_[s - 1];
      apply(step, grid);
      report.name = step.name.empty() ? describe_axes(step) : step.name;
      report.axes = describe_axes(step);
    }
    report.num_jobs = grid.size();

    // A fresh runner per step: the in-memory StageCache starts cold, so
    // every span the step reuses is PROVEN reuse through the store — the
    // handle's hit/miss/publish counters are exact per-step deltas.
    flow::ExperimentRunner runner(num_threads_, provider_);
    runner.set_store_dir(store_dir_);
    runner.set_result_callback(
        [this](std::size_t, const flow::JobResult& r) { frontier_.offer(r); });

    // Knob-diff against the previous step: the keys are the pipeline's
    // own probe keys, so "shared" means "must come from the store".
    // Computing them also primes the memoised contexts the run uses.
    std::set<std::string> keys;
    for (const flow::Job& job : grid) {
      try {
        keys.insert(runner.artifact_key_for(job).binding);
      } catch (const std::exception&) {
        // Unknown benchmark or bad mode env: the run reports it per job.
      }
    }
    report.spans = keys.size();
    for (const std::string& k : keys)
      if (prev_keys.count(k)) ++report.spans_shared;

    const auto t0 = Clock::now();
    const std::vector<flow::JobResult> results = runner.run(grid);
    report.seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    for (const flow::JobResult& r : results)
      if (!r.ok) ++report.failed;

    if (store::ArtifactStore* st = runner.artifact_store()) {
      report.store_hits = st->hits();
      report.store_misses = st->misses();
      report.store_publishes = st->publishes();
      report.store_rejected = st->rejected();
    }
    report.frontier_size = frontier_.size();
    prev_keys = std::move(keys);
    out.steps.push_back(std::move(report));
  }
  out.frontier = frontier_.points();
  return out;
}

}  // namespace hlp::explore
