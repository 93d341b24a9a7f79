// Tests for the per-binding StageCache: hits skip the bind-fus..time span
// (elaborate/map included), binding_hash() cannot collide across differing
// BinderSpec/rc/width, a hit's outcome equals the miss that published it,
// and threads racing the first run of one binding publish one entry —
// plus the persistent tier underneath it (HLP_STORE / ExperimentRunner
// store wiring): a warm second run against the same artifact store skips
// elaborate/map/time bit-identically from a cold process, a span it loads
// has the shape of the span the cold run computed, and the store keys a
// span by binding_hash() alone, so what the span reads decides what is
// shared.
//
// The direct-FlowContext tests construct their contexts by hand, which
// never binds an artifact store — their hit/miss/size counters stay exact
// whatever HLP_STORE says in the surrounding environment.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cdfg/benchmarks.hpp"
#include "flow/experiment.hpp"
#include "flow/flow_context.hpp"
#include "flow/job_io.hpp"
#include "flow/pipeline.hpp"
#include "store/artifact_store.hpp"
#include "test_dir.hpp"

namespace hlp {
namespace {

constexpr int kWidth = 4;
constexpr int kVectors = 12;

flow::ContextOptions small_options(int width = kWidth) {
  flow::ContextOptions opt;
  opt.width = width;
  return opt;
}

flow::RunSpec hlp_spec() {
  flow::RunSpec spec;
  spec.binder.name = "hlpower";
  spec.num_vectors = kVectors;
  return spec;
}

bool cached(const flow::PipelineOutcome& out, const std::string& stage) {
  return std::find(out.cached_stages.begin(), out.cached_stages.end(),
                   stage) != out.cached_stages.end();
}

void expect_equal_outcomes(const flow::PipelineOutcome& a,
                           const flow::PipelineOutcome& b) {
  EXPECT_EQ(a.fus.fu_of_op, b.fus.fu_of_op);
  EXPECT_EQ(a.refined, b.refined);
  EXPECT_EQ(a.flow.mapped.num_luts, b.flow.mapped.num_luts);
  EXPECT_EQ(a.flow.mapped.depth, b.flow.mapped.depth);
  EXPECT_EQ(a.flow.clock_period_ns, b.flow.clock_period_ns);
  EXPECT_EQ(a.flow.sim.toggles, b.flow.sim.toggles);
  EXPECT_EQ(a.flow.sim.total_transitions, b.flow.sim.total_transitions);
  EXPECT_EQ(a.flow.sim.functional_transitions,
            b.flow.sim.functional_transitions);
  EXPECT_EQ(a.flow.report.dynamic_power_mw, b.flow.report.dynamic_power_mw);
  EXPECT_EQ(a.flow.report.toggle_rate_mps, b.flow.report.toggle_rate_mps);
  EXPECT_EQ(a.flow.mux_stats.mux_length, b.flow.mux_stats.mux_length);
}

TEST(StageCache, SecondRunHitsAndSkipsElaborateAndMap) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());

  const flow::PipelineOutcome first = flow::Pipeline::run(ctx, hlp_spec());
  EXPECT_TRUE(first.cached_stages.empty());
  EXPECT_EQ(ctx.stage_cache().hits(), 0u);
  EXPECT_EQ(ctx.stage_cache().misses(), 1u);
  EXPECT_EQ(ctx.stage_cache().size(), 1u);

  const flow::PipelineOutcome second = flow::Pipeline::run(ctx, hlp_spec());
  EXPECT_EQ(ctx.stage_cache().hits(), 1u);
  EXPECT_EQ(ctx.stage_cache().misses(), 1u);
  // The whole bind-fus..time span came from the cache, elaborate and map
  // included, and took no time; the seed-dependent tail (simulate, power)
  // still ran.
  for (const char* stage :
       {"bind-fus", "refine", "elaborate", "map", "time"}) {
    EXPECT_TRUE(cached(second, stage)) << stage;
    EXPECT_EQ(second.stage_seconds(stage), 0.0) << stage;
  }
  EXPECT_FALSE(cached(second, "simulate"));
  EXPECT_FALSE(cached(second, "power"));
  // The timing ledger still has one entry per stage, in order.
  const auto& names = flow::Pipeline::stage_names();
  ASSERT_EQ(second.timings.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(second.timings[i].name, names[i]);
  expect_equal_outcomes(first, second);
}

TEST(StageCache, DistinctSpecsMissAndCoexist) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());

  flow::RunSpec lopass;
  lopass.binder.name = "lopass";
  lopass.num_vectors = kVectors;
  flow::RunSpec half = hlp_spec();
  flow::RunSpec one = hlp_spec();
  one.binder.alpha = 1.0;

  flow::Pipeline::run(ctx, lopass);
  flow::Pipeline::run(ctx, half);
  flow::Pipeline::run(ctx, one);
  EXPECT_EQ(ctx.stage_cache().size(), 3u);
  EXPECT_EQ(ctx.stage_cache().hits(), 0u);

  // Revisiting any of the three hits its own entry.
  const auto again = flow::Pipeline::run(ctx, lopass);
  EXPECT_EQ(ctx.stage_cache().hits(), 1u);
  EXPECT_TRUE(cached(again, "elaborate"));
}

TEST(StageCache, BindingHashCannotCollideAcrossTheTestGrid) {
  // The "hash" is an exact serialisation of every field the cached span
  // reads, so distinct (BinderSpec, rc, width) grid points must map to
  // distinct keys — collision-freedom by construction, verified here over
  // the full cross product.
  std::set<std::string> hashes;
  std::size_t points = 0;
  for (const int width : {4, 8})
    for (const ResourceConstraint rc :
         {ResourceConstraint{2, 2}, ResourceConstraint{3, 2},
          ResourceConstraint{2, 3}, ResourceConstraint{3, 3}}) {
      flow::FlowContext ctx(make_paper_benchmark("pr"), rc,
                            small_options(width));
      for (const char* name : {"hlpower", "lopass"})
        for (const double alpha : {0.25, 0.5, 1.0})
          for (const double beta : {-1.0, 0.5})
            for (const bool refine : {false, true}) {
              flow::BinderSpec spec{name};
              spec.alpha = alpha;
              spec.beta_add = beta;
              spec.refine = refine;
              hashes.insert(ctx.binding_hash(spec));
              ++points;
            }
    }
  EXPECT_EQ(hashes.size(), points);
}

TEST(StageCache, CachedAndUncachedOutcomesAreEqual) {
  // Same context: the run that computes and publishes the span and the run
  // served from it report identical numbers.
  flow::FlowContext ctx(make_paper_benchmark("wang"), {2, 2}, small_options());
  const auto miss = flow::Pipeline::run(ctx, hlp_spec());  // populates
  const auto hit = flow::Pipeline::run(ctx, hlp_spec());   // reuses
  EXPECT_EQ(ctx.stage_cache().misses(), 1u);
  EXPECT_EQ(ctx.stage_cache().hits(), 1u);
  EXPECT_TRUE(miss.cached_stages.empty());
  EXPECT_TRUE(cached(hit, "map"));
  expect_equal_outcomes(miss, hit);
}

TEST(StageCache, RefineArtifactsRoundTrip) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  flow::RunSpec spec = hlp_spec();
  spec.binder.refine = true;

  const auto first = flow::Pipeline::run(ctx, spec);
  const auto second = flow::Pipeline::run(ctx, spec);
  ASSERT_TRUE(first.refined);
  ASSERT_TRUE(second.refined);
  EXPECT_TRUE(cached(second, "refine"));
  EXPECT_EQ(first.refine.cost_before, second.refine.cost_before);
  EXPECT_EQ(first.refine.cost_after, second.refine.cost_after);
  expect_equal_outcomes(first, second);
}

TEST(StageCache, ConcurrentMissesPublishOneEntry) {
  // Threads racing the first run of one binding may each miss and compute
  // the span, but the first insert wins and every run reads the published
  // (value-identical) entry: one entry, one probe per run, equal outcomes.
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  constexpr int kThreads = 4;
  std::vector<flow::PipelineOutcome> outs(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      outs[t] = flow::Pipeline::run(ctx, hlp_spec());
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(ctx.stage_cache().size(), 1u);
  EXPECT_EQ(ctx.stage_cache().hits() + ctx.stage_cache().misses(),
            static_cast<std::uint64_t>(kThreads));
  for (int t = 1; t < kThreads; ++t) expect_equal_outcomes(outs[0], outs[t]);
}

TEST(StageCache, BatchRunsShareTheCacheWithSingleRuns) {
  // run_batch populates the same per-context cache run() reads, and vice
  // versa — a seed sweep after a single probe run skips straight to
  // simulate.
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  const auto probe = flow::Pipeline::run(ctx, hlp_spec());
  const auto batch = flow::Pipeline::run_batch(ctx, hlp_spec(), {5, 6, 7});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(ctx.stage_cache().hits(), 1u);
  for (const auto& out : batch) {
    EXPECT_TRUE(std::find(out.cached_stages.begin(), out.cached_stages.end(),
                          "elaborate") != out.cached_stages.end());
    EXPECT_EQ(out.fus.fu_of_op, probe.fus.fu_of_op);
    EXPECT_EQ(out.flow.clock_period_ns, probe.flow.clock_period_ns);
  }
  // Seed 42 is the probe's default: lane results match the single run.
  const auto again = flow::Pipeline::run_batch(ctx, hlp_spec(), {42});
  EXPECT_EQ(again[0].flow.sim.toggles, probe.flow.sim.toggles);
  EXPECT_EQ(again[0].flow.report.dynamic_power_mw,
            probe.flow.report.dynamic_power_mw);
}

// --- the persistent tier: ExperimentRunner + ArtifactStore ---------------

std::vector<flow::Job> store_grid() {
  std::vector<flow::Job> jobs;
  for (const char* bench : {"pr", "wang"})
    for (const std::uint64_t seed : {42ull, 7ull}) {
      flow::Job j;
      j.benchmark = bench;
      j.binder.name = "hlpower";
      j.width = kWidth;
      j.num_vectors = kVectors;
      j.seed = seed;
      jobs.push_back(j);
    }
  return jobs;
}

TEST(StageCacheStore, WarmRunnerSkipsTheCachedSpanBitIdentically) {
  const std::string dir = test::fresh_dir("pipeline_store_warm");
  const std::vector<flow::Job> jobs = store_grid();

  // Cold: a fresh runner computes everything and publishes each context's
  // bind-fus..time entry into the store.
  std::vector<flow::JobResult> cold;
  {
    flow::ExperimentRunner runner(2);
    runner.set_store_dir(dir);
    cold = runner.run(jobs);
    ASSERT_NE(runner.artifact_store(), nullptr);
    EXPECT_EQ(runner.artifact_store()->hits(), 0u);
    EXPECT_GT(runner.artifact_store()->publishes(), 0u);
    EXPECT_GT(runner.artifact_store()->size(), 0u);
  }
  for (const auto& r : cold) ASSERT_TRUE(r.ok) << r.error;

  // Warm: a NEW runner (fresh process state: empty in-memory caches)
  // against the same store must reuse every entry — the expensive span is
  // skipped wholesale and the numbers are bit-identical.
  flow::ExperimentRunner warm_runner(2);
  warm_runner.set_store_dir(dir);
  const std::vector<flow::JobResult> warm = warm_runner.run(jobs);
  ASSERT_NE(warm_runner.artifact_store(), nullptr);
  EXPECT_GT(warm_runner.artifact_store()->hits(), 0u);
  EXPECT_EQ(warm_runner.artifact_store()->rejected(), 0u);
  // Nothing new to say: every publish was a byte-equal no-op.
  EXPECT_EQ(warm_runner.artifact_store()->publishes(), 0u);

  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    ASSERT_TRUE(warm[i].ok) << warm[i].error;
    EXPECT_TRUE(flow::same_outcome(cold[i], warm[i])) << "job " << i;
    // The whole cached span came off disk, elaborate/map/time included.
    for (const char* stage : {"bind-fus", "elaborate", "map", "time"})
      EXPECT_TRUE(cached(warm[i].outcome, stage))
          << "job " << i << " stage " << stage;
  }
}

TEST(StageCacheStore, ColdAndWarmSpansSerialiseToTheSameBytes) {
  // A computed span and a span read back from the store have one shape:
  // the entry a cold runner computed and the entry a warm runner loaded,
  // under the same key, serialise to the same bytes, and a refined
  // span's refined binding comes back as its binding.
  for (const bool refine : {false, true}) {
    SCOPED_TRACE(refine ? "refined" : "unrefined");
    const std::string dir = test::fresh_dir("span_cold_warm");
    flow::Job job = store_grid()[0];
    job.binder.refine = refine;

    flow::ExperimentRunner cold(1);
    cold.set_store_dir(dir);
    ASSERT_TRUE(cold.run({job})[0].ok);
    const store::ArtifactKey key = cold.artifact_key_for(job);
    const auto computed =
        cold.context_for(job).stage_cache().find(key.binding);
    ASSERT_TRUE(computed);

    flow::ExperimentRunner warm(1);
    warm.set_store_dir(dir);
    const auto got = warm.run({job});
    ASSERT_TRUE(got[0].ok) << got[0].error;
    EXPECT_TRUE(cached(got[0].outcome, "map"));
    EXPECT_EQ(warm.artifact_store()->hits(), 1u);
    const auto loaded =
        warm.context_for(job).stage_cache().find(key.binding);
    ASSERT_TRUE(loaded);

    EXPECT_EQ(store::ArtifactStore::serialize(key, *loaded),
              store::ArtifactStore::serialize(key, *computed));
    EXPECT_EQ(loaded->refined, refine);
    EXPECT_EQ(loaded->refine.fus.fu_of_op, computed->refine.fus.fu_of_op);
    EXPECT_EQ(loaded->refine.fus.flipped, computed->refine.fus.flipped);
  }
}

TEST(StageCacheStore, RunnersWithoutAStoreStayCold) {
  // No store dir: two fresh runners never share artifacts (the pre-store
  // behaviour), pinning that persistence is strictly opt-in.
  const std::vector<flow::Job> jobs = {store_grid()[0]};
  flow::ExperimentRunner a(1), b(1);
  a.set_store_dir("");
  b.set_store_dir("");
  const auto ra = a.run(jobs);
  const auto rb = b.run(jobs);
  ASSERT_TRUE(ra[0].ok && rb[0].ok);
  EXPECT_TRUE(ra[0].outcome.cached_stages.empty());
  EXPECT_TRUE(rb[0].outcome.cached_stages.empty());
  EXPECT_TRUE(flow::same_outcome(ra[0], rb[0]));
  EXPECT_EQ(a.artifact_store(), nullptr);
}

TEST(StageCacheStore, CorruptStoreDegradesToAColdRunAndSelfHeals) {
  const std::string dir = test::fresh_dir("pipeline_store_corrupt");
  const std::vector<flow::Job> jobs = {store_grid()[0]};
  std::vector<flow::JobResult> cold;
  {
    flow::ExperimentRunner runner(1);
    runner.set_store_dir(dir);
    cold = runner.run(jobs);
    ASSERT_TRUE(cold[0].ok) << cold[0].error;
    ASSERT_EQ(runner.artifact_store()->size(), 1u);
  }
  // Truncate every object: a warm run must fall back to computing (and
  // republish the repaired entries), never fail or serve garbage.
  for (const auto& de :
       std::filesystem::directory_iterator(dir + "/objects")) {
    const auto sz = std::filesystem::file_size(de.path());
    std::filesystem::resize_file(de.path(), sz / 2);
  }
  flow::ExperimentRunner warm(1);
  warm.set_store_dir(dir);
  const auto again = warm.run(jobs);
  ASSERT_TRUE(again[0].ok) << again[0].error;
  EXPECT_TRUE(again[0].outcome.cached_stages.empty());  // cold recompute
  EXPECT_GT(warm.artifact_store()->rejected(), 0u);
  EXPECT_GT(warm.artifact_store()->publishes(), 0u);  // repaired
  EXPECT_TRUE(flow::same_outcome(cold[0], again[0]));

  // Third run: the repair made the store warm again.
  flow::ExperimentRunner healed(1);
  healed.set_store_dir(dir);
  const auto third = healed.run(jobs);
  ASSERT_TRUE(third[0].ok) << third[0].error;
  EXPECT_TRUE(cached(third[0].outcome, "elaborate"));
  EXPECT_TRUE(flow::same_outcome(cold[0], third[0]));
}

// --- one key per span: FlowContext::binding_hash() -----------------------

TEST(SpanKey, TwoSpellingsOfOneAllocationShareOneObject) {
  // rc {0, 0} asks for the schedule-minimum allocation, which on pr
  // resolves to {1, 1}. The span reads only the resolved allocation, so
  // both spellings have one key: the second is a store hit on the object
  // the first published, with bit-identical outcomes.
  const std::string dir = test::fresh_dir("span_key_spellings");
  flow::Job derived = store_grid()[0];
  derived.rc = {0, 0};
  flow::Job spelled = derived;
  spelled.rc = {1, 1};

  flow::ExperimentRunner first(1);
  first.set_store_dir(dir);
  const auto a = first.run({derived});
  ASSERT_TRUE(a[0].ok) << a[0].error;
  const ResourceConstraint resolved = first.context_for(derived).rc();
  ASSERT_EQ(resolved.adders, 1);
  ASSERT_EQ(resolved.multipliers, 1);
  EXPECT_EQ(first.artifact_store()->publishes(), 1u);

  flow::ExperimentRunner second(1);
  second.set_store_dir(dir);
  const auto b = second.run({spelled});
  ASSERT_TRUE(b[0].ok) << b[0].error;
  EXPECT_EQ(second.artifact_store()->hits(), 1u);
  EXPECT_EQ(second.artifact_store()->misses(), 0u);
  EXPECT_EQ(second.artifact_store()->publishes(), 0u);
  EXPECT_EQ(second.artifact_store()->size(), 1u);
  EXPECT_TRUE(cached(b[0].outcome, "elaborate"));
  EXPECT_TRUE(flow::same_outcome(a[0], b[0]));
}

TEST(SpanKey, ProvidersThatReuseANameMissEachOther) {
  // Two graph providers both answer "pr", with different graphs. The span
  // key ends in a structural digest of the CDFG, so the second runner
  // misses the first one's object and computes its own graph, exactly as
  // a run with no store does.
  const auto provider = [](std::uint64_t seed) {
    return [seed](const std::string& name) {
      return make_benchmark(benchmark_profile(name), seed);
    };
  };
  const std::string dir = test::fresh_dir("span_key_providers");
  const std::vector<flow::Job> jobs = {store_grid()[0]};
  flow::ExperimentRunner first(1, provider(42));
  first.set_store_dir(dir);
  const auto theirs = first.run(jobs);
  ASSERT_TRUE(theirs[0].ok) << theirs[0].error;
  EXPECT_EQ(first.artifact_store()->publishes(), 1u);

  flow::ExperimentRunner second(1, provider(7));
  second.set_store_dir(dir);
  EXPECT_NE(second.artifact_key_for(jobs[0]), first.artifact_key_for(jobs[0]));
  const auto got = second.run(jobs);
  ASSERT_TRUE(got[0].ok) << got[0].error;
  EXPECT_EQ(second.artifact_store()->hits(), 0u);
  EXPECT_EQ(second.artifact_store()->misses(), 1u);
  EXPECT_EQ(second.artifact_store()->publishes(), 1u);
  EXPECT_EQ(second.artifact_store()->size(), 2u);

  flow::ExperimentRunner alone(1, provider(7));
  alone.set_store_dir("");
  const auto want = alone.run(jobs);
  ASSERT_TRUE(want[0].ok) << want[0].error;
  EXPECT_TRUE(flow::same_outcome(want[0], got[0]));
  EXPECT_FALSE(flow::same_outcome(theirs[0], got[0]));
}

}  // namespace
}  // namespace hlp
