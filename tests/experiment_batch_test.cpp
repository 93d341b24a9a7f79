// Property tests for ExperimentRunner seed coalescing: for randomized job
// grids (mixed benchmarks, binders, 1-200 seeds, group sizes that are not
// multiples of 64), the coalesced runner must produce JobResults that are
// bit-identical to a runner with coalescing disabled, in the same order,
// with failures still captured per job. The seed-chunk simulation under
// the coalesced path is checked against the scalar oracle at every word
// width the build and CPU support.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "flow/experiment.hpp"
#include "flow/pipeline.hpp"
#include "flow/seed_chunk.hpp"
#include "rtl/datapath.hpp"
#include "sim/schedule_sim.hpp"
#include "sim/simd_mode.hpp"
#include "sim/vectors.hpp"

namespace hlp {
namespace {

constexpr int kWidth = 4;

flow::Job small_job() {
  flow::Job base;
  base.width = kWidth;
  base.num_vectors = 6;
  return base;
}

// Bit-identical comparison of two job results: exact equality on every
// integer statistic and on every derived double (same inputs through the
// same deterministic arithmetic must give the same bits, not just close).
void expect_identical(const flow::JobResult& a, const flow::JobResult& b) {
  EXPECT_EQ(a.job.benchmark, b.job.benchmark);
  EXPECT_EQ(a.job.seed, b.job.seed);
  EXPECT_EQ(a.job.binder.name, b.job.binder.name);
  ASSERT_EQ(a.ok, b.ok) << a.error << " vs " << b.error;
  if (!a.ok) {
    EXPECT_EQ(a.error, b.error);
    return;
  }
  EXPECT_EQ(a.outcome.fus.fu_of_op, b.outcome.fus.fu_of_op);
  EXPECT_EQ(a.outcome.refined, b.outcome.refined);
  EXPECT_EQ(a.outcome.flow.mapped.num_luts, b.outcome.flow.mapped.num_luts);
  EXPECT_EQ(a.outcome.flow.clock_period_ns, b.outcome.flow.clock_period_ns);
  EXPECT_EQ(a.outcome.flow.sim.num_cycles, b.outcome.flow.sim.num_cycles);
  EXPECT_EQ(a.outcome.flow.sim.toggles, b.outcome.flow.sim.toggles);
  EXPECT_EQ(a.outcome.flow.sim.total_transitions,
            b.outcome.flow.sim.total_transitions);
  EXPECT_EQ(a.outcome.flow.sim.functional_transitions,
            b.outcome.flow.sim.functional_transitions);
  EXPECT_EQ(a.outcome.flow.report.dynamic_power_mw,
            b.outcome.flow.report.dynamic_power_mw);
  EXPECT_EQ(a.outcome.flow.report.toggle_rate_mps,
            b.outcome.flow.report.toggle_rate_mps);
  EXPECT_EQ(a.outcome.flow.report.glitch_fraction,
            b.outcome.flow.report.glitch_fraction);
  EXPECT_EQ(a.outcome.flow.mux_stats.mux_length,
            b.outcome.flow.mux_stats.mux_length);
}

void expect_all_identical(const std::vector<flow::JobResult>& coalesced,
                          const std::vector<flow::JobResult>& independent) {
  ASSERT_EQ(coalesced.size(), independent.size());
  for (std::size_t i = 0; i < coalesced.size(); ++i) {
    SCOPED_TRACE("job #" + std::to_string(i));
    expect_identical(coalesced[i], independent[i]);
  }
}

std::vector<flow::JobResult> run_coalesced(const std::vector<flow::Job>& jobs,
                                           int threads = 4) {
  flow::ExperimentRunner runner(threads);
  runner.set_coalescing(true);
  return runner.run(jobs);
}

std::vector<flow::JobResult> run_independent(
    const std::vector<flow::Job>& jobs, int threads = 1) {
  flow::ExperimentRunner runner(threads);
  runner.set_coalescing(false);
  return runner.run(jobs);
}

TEST(ExperimentBatch, RandomizedGridsBitIdentical) {
  std::mt19937_64 rng(20260731);
  const std::vector<std::vector<std::string>> bench_choices = {
      {"pr"}, {"wang"}, {"pr", "wang"}};
  const std::vector<double> alphas = {0.25, 0.5, 1.0};
  // Group sizes straddling the 64-lane word boundary, none a multiple.
  const std::vector<int> seed_counts = {1, 3, 63, 65, 130};

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto& benchmarks = bench_choices[rng() % bench_choices.size()];
    std::vector<flow::BinderSpec> binders;
    binders.push_back(flow::BinderSpec{"lopass"});
    flow::BinderSpec hlp_spec{"hlpower"};
    hlp_spec.alpha = alphas[rng() % alphas.size()];
    binders.push_back(hlp_spec);

    const int num_seeds = seed_counts[rng() % seed_counts.size()];
    std::vector<std::uint64_t> seeds;
    for (int s = 0; s < num_seeds; ++s) seeds.push_back(rng() % 1000);

    const auto jobs =
        flow::ExperimentRunner::grid(benchmarks, binders, seeds, {},
                                     small_job());
    ASSERT_EQ(jobs.size(), benchmarks.size() * binders.size() * seeds.size());

    const auto coalesced = run_coalesced(jobs);
    const auto independent = run_independent(jobs);
    expect_all_identical(coalesced, independent);

    // Every (benchmark, binder) group really was coalesced...
    for (const auto& res : coalesced)
      EXPECT_EQ(res.group_size, static_cast<std::size_t>(num_seeds));
    // ...and the independent runner ran every job alone.
    for (const auto& res : independent) EXPECT_EQ(res.group_size, 1u);
  }
}

TEST(ExperimentBatch, TwoHundredSeedsOneBinding) {
  // The upper end of the issue's 1-200 seed range through one binding:
  // 200 = 3 full 64-lane words + a 8-lane remainder word.
  std::vector<std::uint64_t> seeds;
  for (int s = 0; s < 200; ++s) seeds.push_back(1000 + s);
  const auto jobs = flow::ExperimentRunner::grid(
      {"pr"}, {flow::BinderSpec{"hlpower"}}, seeds, {}, small_job());
  const auto coalesced = run_coalesced(jobs);
  const auto independent = run_independent(jobs, /*threads=*/2);
  expect_all_identical(coalesced, independent);
  EXPECT_EQ(coalesced.front().group_size, 200u);
}

TEST(ExperimentBatch, DuplicateSeedsShareALaneEach) {
  // Duplicate seeds are legal grid points: every copy gets its own lane
  // and its own (identical) result.
  const std::vector<std::uint64_t> seeds = {7, 7, 7, 11, 7};
  const auto jobs = flow::ExperimentRunner::grid(
      {"wang"}, {flow::BinderSpec{"lopass"}}, seeds, {}, small_job());
  const auto coalesced = run_coalesced(jobs);
  const auto independent = run_independent(jobs);
  expect_all_identical(coalesced, independent);
  expect_identical(coalesced[0], coalesced[1]);
  EXPECT_NE(coalesced[0].outcome.flow.sim.toggles,
            coalesced[3].outcome.flow.sim.toggles);
}

TEST(ExperimentBatch, ScalarEngineGroupsCoalesceViaReferencePath) {
  // kScalar groups coalesce too (shared head stages); simulate_runs loops
  // the scalar oracle per lane, so results still match exactly.
  flow::Job base = small_job();
  base.sim_engine = SimEngine::kScalar;
  const auto jobs = flow::ExperimentRunner::grid(
      {"pr"}, {flow::BinderSpec{"hlpower"}}, {1, 2, 3, 4, 5}, {}, base);
  const auto coalesced = run_coalesced(jobs);
  const auto independent = run_independent(jobs);
  expect_all_identical(coalesced, independent);
  EXPECT_EQ(coalesced.front().group_size, 5u);
}

TEST(ExperimentBatch, MixedEnginesDoNotShareAGroup) {
  // Same binding, same seeds, different engines: the group key separates
  // them (results are identical anyway, but the oracle must not silently
  // ride the batch path it is meant to check).
  std::vector<flow::Job> jobs;
  for (const SimEngine engine : {SimEngine::kBatched, SimEngine::kScalar})
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      flow::Job j = small_job();
      j.benchmark = "pr";
      j.seed = seed;
      j.sim_engine = engine;
      jobs.push_back(j);
    }
  const auto results = run_coalesced(jobs);
  for (const auto& res : results) EXPECT_EQ(res.group_size, 3u);
  expect_all_identical(results, run_independent(jobs));
}

TEST(ExperimentBatch, GroupFailureIsCapturedOnEveryMemberJob) {
  // A group whose shared pipeline throws (unknown binder) fails on every
  // member with the error, while other groups are untouched — in order.
  flow::BinderSpec bad{"no-such-binder"};
  const auto bad_jobs = flow::ExperimentRunner::grid(
      {"pr"}, {bad}, {1, 2, 3, 4, 5, 6, 7}, {}, small_job());
  const auto good_jobs = flow::ExperimentRunner::grid(
      {"pr"}, {flow::BinderSpec{"hlpower"}}, {1, 2, 3}, {}, small_job());
  std::vector<flow::Job> jobs;
  jobs.insert(jobs.end(), bad_jobs.begin(), bad_jobs.end());
  jobs.insert(jobs.end(), good_jobs.begin(), good_jobs.end());

  const auto results = run_coalesced(jobs);
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_FALSE(results[i].ok);
    EXPECT_NE(results[i].error.find("no-such-binder"), std::string::npos);
    EXPECT_EQ(results[i].group_size, 7u);
  }
  for (std::size_t i = 7; i < 10; ++i)
    EXPECT_TRUE(results[i].ok) << results[i].error;
  expect_all_identical(results, run_independent(jobs));
}

TEST(SeedChunkWidths, EveryWidthMatchesScalarPerSeed) {
  // The datapath and LUT netlist of one standard pipeline run on pr.
  flow::ExperimentRunner runner(1);
  flow::Job job = small_job();
  job.benchmark = "pr";
  flow::FlowContext& ctx = runner.context_for(job);
  flow::RunSpec spec;
  spec.num_vectors = job.num_vectors;
  flow::Pipeline::standard().run(ctx, spec);
  const auto entry = ctx.stage_cache().find(
      ctx.binding_hash(spec.binder, spec.map, spec.timing));
  ASSERT_TRUE(entry);
  const Netlist& n = entry->mapped.lut_netlist;
  const Datapath& dp = entry->datapath;

  // 61 seeds leave one partial word at every width.
  flow::LaneSamples lane_samples;
  std::vector<CycleSimStats> want;
  for (std::uint64_t seed = 500; seed < 561; ++seed) {
    lane_samples.push_back(random_samples(
        spec.num_vectors, ctx.cdfg().num_inputs(), ctx.width(), seed));
    want.push_back(simulate_frames(n, make_frames(dp, lane_samples.back())));
  }
  for (const SimdMode mode : all_simd_modes()) {
    if (mode == SimdMode::kAuto || !simd_mode_supported(mode)) continue;
    SCOPED_TRACE(simd_mode_name(mode));
    const auto got = flow::simulate_seed_chunk(n, dp, lane_samples, mode);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t l = 0; l < want.size(); ++l) {
      EXPECT_EQ(got[l].num_cycles, want[l].num_cycles) << "seed #" << l;
      EXPECT_EQ(got[l].toggles, want[l].toggles) << "seed #" << l;
      EXPECT_EQ(got[l].functional_transitions,
                want[l].functional_transitions)
          << "seed #" << l;
      EXPECT_EQ(got[l].total_transitions, want[l].total_transitions)
          << "seed #" << l;
    }
  }
}

TEST(ExperimentBatch, CoalescingDefaultsOnAndToggles) {
  unsetenv("HLP_COALESCE");  // isolate from the CI env override
  flow::ExperimentRunner runner(1);
  EXPECT_TRUE(runner.coalescing());  // default on
  runner.set_coalescing(false);
  EXPECT_FALSE(runner.coalescing());
}

}  // namespace
}  // namespace hlp
