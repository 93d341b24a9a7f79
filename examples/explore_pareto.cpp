// Incremental exploration: walk a knob at a time across the design space
// and watch the Pareto frontier (power x area x clock period) build up
// while the artifact store turns every already-seen bind-fus..time span
// into a disk hit instead of a recompute.
//
// The walk: a base grid (HLPower binder across a small allocation sweep
// and a few stimulus seeds), then
//   1. retune the binder's alpha        -> bindings change, full recompute
//   2. more stimulus vectors            -> tail-only: every span store-hit
//   3. switch the scheduler             -> new keys, full recompute
//   4. alpha back to the base value     -> step 1's spans? No — the BASE
//      grid's spans, straight out of the store (the walk is cumulative,
//      so scheduler stays switched; only keys seen in step 3 reuse)
//
// With HLP_STORE set the store persists, so a SECOND run of this example
// reuses every span of every step — the per-step hit counters in the
// report prove it. Without HLP_STORE a temp store spans just this
// process (steps still reuse each other's spans).
//
// Run:  ./build/explore_pareto [benchmark]
#include <cstdlib>
#include <iostream>
#include <unistd.h>

#include "common/table.hpp"
#include "explore/explorer.hpp"
#include "flow/experiment.hpp"

int main(int argc, char** argv) {
  using namespace hlp;
  const std::string name = argc > 1 ? argv[1] : "wang";
  const int threads = flow::jobs_from_env(4);

  // Base grid: HLPower binding at a few allocations x 8 stimulus seeds.
  std::vector<ResourceConstraint> rcs{{1, 1}, {2, 1}, {2, 2}, {3, 2}};
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 8; ++s) seeds.push_back(1000 + s);
  flow::Job base;
  base.width = 8;
  base.num_vectors = 60;
  const std::vector<flow::Job> grid = flow::ExperimentRunner::grid(
      {name}, {flow::BinderSpec{"hlpower"}}, seeds, rcs, base);

  // HLP_STORE (when set) makes the walk persistent across runs; otherwise
  // a per-process temp directory keeps the steps sharing spans.
  std::string store_dir = flow::store_dir_from_env("");
  if (store_dir.empty())
    store_dir = "/tmp/hlp-explore-" + std::to_string(::getpid());

  explore::Explorer explorer(grid, store_dir, threads);
  explore::KnobStep retune;
  retune.name = "alpha=1.0";
  retune.binder_alpha = 1.0;
  explore::KnobStep vectors;
  vectors.name = "vectors=200";
  vectors.num_vectors = 200;
  explore::KnobStep resched;
  resched.name = "asap sched";
  resched.scheduler = "asap";
  explore::KnobStep back;
  back.name = "alpha back";
  back.binder_alpha = 0.5;
  explorer.step(retune).step(vectors).step(resched).step(back);
  const explore::Exploration result = explorer.run();

  std::cout << "incremental walk on '" << name << "' (" << threads
            << " threads, store: " << store_dir << "):\n";
  AsciiTable steps({"step", "knobs", "jobs", "spans", "shared", "hits",
                    "recomputed", "frontier", "ms"});
  for (const explore::StepReport& r : result.steps)
    steps.row()
        .add(r.name)
        .add(r.axes)
        .add(r.num_jobs)
        .add(r.spans)
        .add(r.spans_shared)
        .add(r.store_hits)
        .add(r.store_publishes)
        .add(r.frontier_size)
        .add(r.seconds * 1e3, 1);
  steps.print(std::cout);

  std::cout << "\nPareto frontier (" << result.frontier.size()
            << " points, minimising power/area/period):\n";
  AsciiTable frontier({"power (mW)", "LUTs", "clk (ns)", "configuration"});
  for (const explore::ParetoPoint& p : result.frontier)
    frontier.row()
        .add(p.power_mw, 3)
        .add(p.lut_area)
        .add(p.clock_period_ns, 1)
        .add(p.label);
  frontier.print(std::cout);

  const auto& f = explorer.frontier();
  std::cout << "\n" << f.offered() << " results streamed, " << f.skipped()
            << " failures skipped; rerun with HLP_STORE=" << store_dir
            << " to start every step warm.\n";
  return 0;
}
