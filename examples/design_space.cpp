// Design-space exploration: how does the resource constraint (allocation)
// interact with the binding quality? For a fixed benchmark, sweep the
// adder/multiplier allocation from the schedule's minimum upward and report
// the area/power/latency trade-off of the HLPower binding at each point —
// the kind of exploration a user of the library would run before committing
// to an allocation. The 16-point grid fans across the ExperimentRunner's
// thread pool (HLP_JOBS workers, default 4); every allocation is its own
// memoised FlowContext, all sharing one SA cache.
//
// A second phase then Monte-Carlos the stimulus at the lowest-power
// allocation: 64 seeds coalesced into one word-parallel pipeline pass
// (one seed per simulator lane, in the narrowest word that covers the
// group), reporting the power spread and the per-stage cache hits the
// seed sweep enjoyed.
//
// Run:  ./build/design_space [benchmark]
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "cdfg/benchmarks.hpp"
#include "common/table.hpp"
#include "flow/distributed.hpp"
#include "flow/experiment.hpp"
#include "flow/job_io.hpp"
#include "flow/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace hlp;
  const std::string name = argc > 1 ? argv[1] : "wang";
  const int workers = flow::jobs_from_env(4);

  // The (adders x mults) grid as runner jobs.
  std::vector<ResourceConstraint> rcs;
  for (int adders = 1; adders <= 4; ++adders)
    for (int mults = 1; mults <= 4; ++mults) rcs.push_back({adders, mults});
  flow::Job base;
  base.width = 8;
  base.num_vectors = 60;
  const std::vector<flow::Job> jobs =
      flow::ExperimentRunner::grid({name}, {flow::BinderSpec{"hlpower"}}, {},
                                   rcs, base);

  flow::ExperimentRunner runner(workers);
  const auto results = runner.run(jobs);

  AsciiTable t({"adders", "mults", "csteps", "regs", "FUs", "LUTs",
                "power (mW)", "clk (ns)", "latency*clk (ns)"});
  for (const auto& res : results) {
    if (!res.ok) {
      std::cerr << "allocation " << res.job.rc.adders << "x"
                << res.job.rc.multipliers << " failed: " << res.error << "\n";
      continue;
    }
    // Skip allocations the schedule does not actually use (the context
    // reports the resolved rc; duplicates of a tighter point are noise).
    flow::FlowContext& ctx = runner.context_for(res.job);
    const Schedule& s = ctx.schedule();
    if (s.max_density(ctx.cdfg(), OpKind::kAdd) > res.job.rc.adders ||
        s.max_density(ctx.cdfg(), OpKind::kMult) > res.job.rc.multipliers)
      continue;
    const FlowResult& r = res.outcome.flow;
    t.row()
        .add(res.job.rc.adders)
        .add(res.job.rc.multipliers)
        .add(s.num_steps)
        .add(ctx.regs().num_registers)
        .add(res.outcome.fus.num_fus())
        .add(r.mapped.num_luts)
        .add(r.report.dynamic_power_mw, 1)
        .add(r.clock_period_ns, 1)
        .add(s.num_steps * r.clock_period_ns, 0);
  }
  std::cout << "design space for '" << name
            << "' (HLPower binding at every allocation, " << workers
            << " workers):\n";
  t.print(std::cout);

  // Pick the lowest-power feasible allocation from the sweep.
  const flow::JobResult* best = nullptr;
  for (const auto& res : results)
    if (res.ok && (!best || res.outcome.flow.report.dynamic_power_mw <
                                best->outcome.flow.report.dynamic_power_mw))
      best = &res;
  if (!best) return 0;

  // Monte-Carlo the stimulus at that point: 64 seeds differing only in
  // `seed` coalesce into ONE pipeline invocation (one seed per simulator
  // lane), and the bind/elaborate/map artifacts come from the allocation
  // sweep's stage cache.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 64; ++s) seeds.push_back(1000 + s);
  const std::vector<flow::Job> mc_jobs = flow::ExperimentRunner::grid(
      {name}, {best->job.binder}, seeds, {best->job.rc}, best->job);
  const auto mc = runner.run(mc_jobs);

  double mean = 0.0, var = 0.0;
  int ok_count = 0;
  for (const auto& res : mc)
    if (res.ok) {
      mean += res.outcome.flow.report.dynamic_power_mw;
      ++ok_count;
    }
  if (ok_count == 0) return 0;
  mean /= ok_count;
  for (const auto& res : mc)
    if (res.ok) {
      const double d = res.outcome.flow.report.dynamic_power_mw - mean;
      var += d * d;
    }
  var /= ok_count;

  flow::FlowContext& best_ctx = runner.context_for(best->job);
  std::cout << "\nMonte-Carlo at " << best->job.rc.adders << "x"
            << best->job.rc.multipliers << " (" << mc.size()
            << " stimulus seeds, coalesced group of " << mc.front().group_size
            << "): power " << mean << " +/- " << std::sqrt(var)
            << " mW; stage cache: " << best_ctx.stage_cache().hits()
            << " hits / " << best_ctx.stage_cache().misses() << " misses\n";

  // Third phase: the same Monte-Carlo grid sharded across HLP_WORKERS
  // (default 2) hlp_worker processes that pull work units as they finish.
  // Every algorithm is deterministic, so the sharded results must agree
  // bit for bit with the in-process sweep above — verified and timed here.
  try {
    const int workers_n = flow::workers_from_env(2);
    flow::DistributedRunner dist(workers_n, 1);
    const auto t0 = std::chrono::steady_clock::now();
    const auto sharded = dist.run(mc_jobs);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    bool identical = sharded.size() == mc.size();
    for (std::size_t i = 0; identical && i < sharded.size(); ++i)
      identical = flow::same_outcome(mc[i], sharded[i]);
    std::cout << "Distributed re-run: " << workers_n << " worker processes, "
              << sharded.size() << " jobs in " << secs * 1e3 << " ms — "
              << (identical ? "bit-identical to the in-process sweep"
                            : "MISMATCH vs the in-process sweep")
              << "\n";
  } catch (const std::exception& e) {
    std::cout << "Distributed re-run skipped: " << e.what() << "\n";
  }
  return 0;
}
