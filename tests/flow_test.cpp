// Tests for the src/flow subsystem: registry lookup, context memoisation,
// stage-by-stage pipeline equivalence with the legacy run_flow, SaCache
// thread safety, and ExperimentRunner determinism across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <ios>
#include <string>
#include <thread>

#include "binding/register_binder.hpp"
#include "common/error.hpp"
#include "cdfg/benchmarks.hpp"
#include "core/hlpower.hpp"
#include "flow/experiment.hpp"
#include "flow/flow_context.hpp"
#include "flow/pipeline.hpp"
#include "flow/registry.hpp"
#include "power/sa_mode.hpp"
#include "rtl/flow.hpp"
#include "sched/list_scheduler.hpp"

namespace hlp {
namespace {

constexpr int kWidth = 4;
constexpr int kVectors = 40;

flow::ContextOptions small_options() {
  flow::ContextOptions opt;
  opt.width = kWidth;
  return opt;
}

TEST(Registry, BuiltinsRegistered) {
  EXPECT_TRUE(flow::scheduler_registry().contains("list"));
  EXPECT_TRUE(flow::scheduler_registry().contains("fds"));
  EXPECT_TRUE(flow::scheduler_registry().contains("asap"));
  EXPECT_TRUE(flow::scheduler_registry().contains("alap"));
  EXPECT_TRUE(flow::binder_registry().contains("hlpower"));
  EXPECT_TRUE(flow::binder_registry().contains("lopass"));
}

TEST(Registry, AsapAlapSchedulersRunThroughPipeline) {
  // ASAP/ALAP selected by name drive a full pipeline evaluation; validate
  // against the CDFG and check the expected schedule shapes.
  const Cdfg g = make_paper_benchmark("pr");
  flow::SchedulerSpec spec;
  const Schedule asap =
      flow::scheduler_registry().at("asap")(g, ResourceConstraint{}, spec);
  const Schedule alap =
      flow::scheduler_registry().at("alap")(g, ResourceConstraint{}, spec);
  asap.validate(g);
  alap.validate(g);
  EXPECT_EQ(asap.num_steps, g.depth());
  EXPECT_EQ(alap.num_steps, g.depth());
  for (int op = 0; op < g.num_ops(); ++op)
    EXPECT_LE(asap.cstep(op), alap.cstep(op));

  for (const char* sched : {"asap", "alap"}) {
    flow::ContextOptions opt = small_options();
    opt.scheduler = sched;
    flow::FlowContext ctx(make_paper_benchmark("pr"), {0, 0}, std::move(opt));
    flow::RunSpec rs;
    rs.num_vectors = 10;
    const flow::PipelineOutcome out = flow::Pipeline::run(ctx, rs);
    EXPECT_GT(out.flow.sim.total_transitions, 0u) << sched;
  }
}

TEST(Registry, UnknownNameThrowsWithKnownNames) {
  try {
    flow::binder_registry().at("quartus");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quartus"), std::string::npos);
    EXPECT_NE(what.find("hlpower"), std::string::npos);
    EXPECT_NE(what.find("lopass"), std::string::npos);
  }
}

TEST(FlowContext, MemoisesScheduleAndRegs) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  const Schedule& s1 = ctx.schedule();
  const Schedule& s2 = ctx.schedule();
  EXPECT_EQ(&s1, &s2);
  const RegisterBinding& r1 = ctx.regs();
  const RegisterBinding& r2 = ctx.regs();
  EXPECT_EQ(&r1, &r2);
  // Matches a direct invocation of the underlying algorithms.
  const Schedule direct = list_schedule(ctx.cdfg(), {2, 2});
  EXPECT_EQ(s1.cstep_of_op, direct.cstep_of_op);
  EXPECT_EQ(r1.reg_of_value, bind_registers(ctx.cdfg(), direct).reg_of_value);
}

TEST(FlowContext, ZeroConstraintResolvesToScheduleMinimum) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {0, 0}, small_options());
  const ResourceConstraint& rc = ctx.rc();
  EXPECT_GE(rc.adders, 1);
  EXPECT_GE(rc.multipliers, 1);
  EXPECT_GE(rc.adders, ctx.schedule().max_density(ctx.cdfg(), OpKind::kAdd));
  EXPECT_GE(rc.multipliers,
            ctx.schedule().max_density(ctx.cdfg(), OpKind::kMult));
}

// The acceptance gate of the refactor: the staged pipeline reproduces the
// legacy single-shot run_flow bit for bit on a paper benchmark.
TEST(Pipeline, MatchesLegacyRunFlow) {
  const Cdfg g = make_paper_benchmark("pr");
  const ResourceConstraint rc{2, 2};

  // Legacy path, exactly as bench_common did it in the seed.
  const Schedule s = list_schedule(g, rc);
  const RegisterBinding regs = bind_registers(g, s);
  SaCache cache(kWidth);
  const FuBinding fus = bind_fus_hlpower(g, s, regs, rc, cache).fus;
  FlowParams fp;
  fp.width = kWidth;
  fp.num_vectors = kVectors;
  const FlowResult legacy = run_flow(g, s, Binding{regs, fus}, fp);

  // Staged pipeline. The legacy path's SaCache above is estimate-mode, so
  // pin the pipeline's context to the same backend: this test compares the
  // staged decomposition, not the SA engine, and must hold under the
  // sim-mode CI leg (HLP_SA_MODE=sim) too.
  flow::ContextOptions opt = small_options();
  opt.sa_mode = SaMode::kEstimated;
  flow::FlowContext ctx(g, rc, opt);
  flow::RunSpec spec;
  spec.binder.name = "hlpower";
  spec.num_vectors = kVectors;
  const flow::PipelineOutcome out = flow::Pipeline::run(ctx, spec);

  EXPECT_EQ(out.fus.fu_of_op, fus.fu_of_op);
  EXPECT_EQ(out.flow.mapped.num_luts, legacy.mapped.num_luts);
  EXPECT_DOUBLE_EQ(out.flow.clock_period_ns, legacy.clock_period_ns);
  EXPECT_EQ(out.flow.sim.num_cycles, legacy.sim.num_cycles);
  EXPECT_EQ(out.flow.sim.total_transitions, legacy.sim.total_transitions);
  EXPECT_EQ(out.flow.sim.functional_transitions,
            legacy.sim.functional_transitions);
  EXPECT_DOUBLE_EQ(out.flow.report.dynamic_power_mw,
                   legacy.report.dynamic_power_mw);
  EXPECT_DOUBLE_EQ(out.flow.report.toggle_rate_mps,
                   legacy.report.toggle_rate_mps);
  EXPECT_DOUBLE_EQ(out.flow.report.glitch_fraction,
                   legacy.report.glitch_fraction);
  EXPECT_EQ(out.flow.mux_stats.mux_length, legacy.mux_stats.mux_length);
  EXPECT_EQ(out.flow.mux_stats.largest_mux, legacy.mux_stats.largest_mux);
  EXPECT_DOUBLE_EQ(out.flow.mux_stats.muxdiff_mean,
                   legacy.mux_stats.muxdiff_mean);
}

TEST(Pipeline, RecordsEveryStageTiming) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  flow::RunSpec spec;
  spec.num_vectors = 10;
  const flow::PipelineOutcome out = flow::Pipeline::run(ctx, spec);
  const auto& names = flow::Pipeline::stage_names();
  ASSERT_EQ(out.timings.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(out.timings[i].name, names[i]);
    EXPECT_GE(out.timings[i].seconds, 0.0);
  }
  EXPECT_GT(out.bind_seconds, 0.0);
  EXPECT_EQ(out.stage_seconds("bind-fus") + out.stage_seconds("refine"),
            out.bind_seconds);
}

TEST(Pipeline, BatchedAndScalarEnginesAgreeBitForBit) {
  // The simulate stage's batched default must reproduce the scalar oracle
  // exactly: same toggles, same functional/glitch split, same power report.
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  flow::RunSpec scalar_spec, batched_spec;
  scalar_spec.num_vectors = batched_spec.num_vectors = kVectors;
  scalar_spec.sim_engine = SimEngine::kScalar;
  batched_spec.sim_engine = SimEngine::kBatched;
  const flow::PipelineOutcome a = flow::Pipeline::run(ctx, scalar_spec);
  const flow::PipelineOutcome b = flow::Pipeline::run(ctx, batched_spec);
  EXPECT_EQ(a.flow.sim.toggles, b.flow.sim.toggles);
  EXPECT_EQ(a.flow.sim.total_transitions, b.flow.sim.total_transitions);
  EXPECT_EQ(a.flow.sim.functional_transitions,
            b.flow.sim.functional_transitions);
  EXPECT_EQ(a.flow.sim.glitch_transitions(), b.flow.sim.glitch_transitions());
  EXPECT_DOUBLE_EQ(a.flow.report.dynamic_power_mw,
                   b.flow.report.dynamic_power_mw);
  EXPECT_DOUBLE_EQ(a.flow.report.toggle_rate_mps, b.flow.report.toggle_rate_mps);
}

TEST(Pipeline, RefineStageRunsWhenRequested) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  flow::RunSpec spec;
  spec.binder.refine = true;
  spec.num_vectors = 10;
  const flow::PipelineOutcome out = flow::Pipeline::run(ctx, spec);
  EXPECT_TRUE(out.refined);
  EXPECT_LE(out.refine.cost_after, out.refine.cost_before);
}

TEST(SaCache, ConcurrentHammerIsConsistent) {
  SaCache cache(kWidth);
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  constexpr int kMaxMux = 3;
  std::vector<std::thread> pool;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&cache, &mismatches] {
      for (int round = 0; round < kRounds; ++round)
        for (int kind = 0; kind < kNumOpKinds; ++kind)
          for (int a = 1; a <= kMaxMux; ++a)
            for (int b = 1; b <= kMaxMux; ++b) {
              const OpKind k = static_cast<OpKind>(kind);
              const double sa = cache.switching_activity(k, a, b);
              if (sa != cache.compute_uncached(k, a, b)) ++mismatches;
            }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Exactly one entry per key survives, no duplicates from races.
  EXPECT_EQ(cache.size(),
            static_cast<std::size_t>(kNumOpKinds * kMaxMux * kMaxMux));
  EXPECT_GE(cache.misses(), static_cast<std::uint64_t>(cache.size()));
}

TEST(ExperimentRunner, SameResultsAtAnyThreadCount) {
  const auto jobs = [] {
    flow::Job base;
    base.width = kWidth;
    base.num_vectors = kVectors;
    return flow::ExperimentRunner::grid(
        {"pr", "wang"},
        {flow::BinderSpec{"lopass"}, flow::BinderSpec{"hlpower"}}, {}, {},
        base);
  }();
  ASSERT_EQ(jobs.size(), 4u);

  flow::ExperimentRunner serial(1);
  flow::ExperimentRunner parallel(4);
  const auto a = serial.run(jobs);
  const auto b = parallel.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok) << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].error;
    EXPECT_EQ(a[i].job.benchmark, b[i].job.benchmark);
    EXPECT_EQ(a[i].outcome.fus.fu_of_op, b[i].outcome.fus.fu_of_op);
    EXPECT_EQ(a[i].outcome.flow.mapped.num_luts,
              b[i].outcome.flow.mapped.num_luts);
    EXPECT_DOUBLE_EQ(a[i].outcome.flow.report.dynamic_power_mw,
                     b[i].outcome.flow.report.dynamic_power_mw);
    EXPECT_DOUBLE_EQ(a[i].outcome.flow.report.toggle_rate_mps,
                     b[i].outcome.flow.report.toggle_rate_mps);
  }
}

TEST(ExperimentRunner, WangResultsArePinned) {
  // Golden end-to-end numbers of the paper flow at the Job defaults (rc
  // {0, 0}, width 8, 200 vectors, seed 42), in hexfloat and compared with
  // ==. The SA mode is pinned so HLP_SA_MODE cannot change the table. A
  // change that moves these on purpose updates the literals and says why in
  // CHANGES.md.
  flow::Job lopass;
  lopass.benchmark = "wang";
  lopass.binder = flow::BinderSpec{"lopass"};
  lopass.sa = SaMode::kEstimated;
  flow::Job hlpower = lopass;
  hlpower.binder = flow::BinderSpec{"hlpower"};
  hlpower.binder.alpha = 0.5;
  flow::ExperimentRunner runner(2);
  const auto results = runner.run({lopass, hlpower});
  ASSERT_EQ(results.size(), 2u);
  struct Expected {
    double power_mw, clock_ns;
    int luts;
  };
  const Expected expected[] = {{0x1.c17eff5a55cfcp+3, 0x1.04cccccccccccp+5, 668},
                               {0x1.d2b7627339794p+3, 0x1.ee66666666666p+4, 628}};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const flow::JobResult& r = results[i];
    ASSERT_TRUE(r.ok) << r.error;
    const FlowResult& f = r.outcome.flow;
    EXPECT_EQ(f.report.dynamic_power_mw, expected[i].power_mw)
        << r.job.binder.name << ": got " << std::hexfloat
        << f.report.dynamic_power_mw;
    EXPECT_EQ(f.clock_period_ns, expected[i].clock_ns)
        << r.job.binder.name << ": got " << std::hexfloat << f.clock_period_ns;
    EXPECT_EQ(f.mapped.num_luts, expected[i].luts) << r.job.binder.name;
  }
}

TEST(ExperimentRunner, CapturesPerJobFailures) {
  flow::Job bad;
  bad.benchmark = "pr";
  bad.binder.name = "no-such-binder";
  bad.width = kWidth;
  bad.num_vectors = 5;
  flow::Job good;
  good.benchmark = "pr";
  good.width = kWidth;
  good.num_vectors = 5;
  flow::ExperimentRunner runner(2);
  const auto results = runner.run({bad, good});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("no-such-binder"), std::string::npos);
  EXPECT_TRUE(results[1].ok) << results[1].error;
}

TEST(Registry, AnnealBinderIsRegisteredAndValid) {
  EXPECT_TRUE(flow::binder_registry().contains("anneal"));
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  const flow::BinderSpec spec{"anneal"};
  const FuBinding fus = flow::binder_registry().at("anneal")(ctx, spec);
  // A feasible binding under the resolved constraint: kinds match, no two
  // ops of one FU share a step, allocation within rc.
  fus.validate(ctx.cdfg(), ctx.schedule(), ctx.rc());
  EXPECT_EQ(fus.num_fus(), ctx.rc().adders + ctx.rc().multipliers);
}

TEST(Registry, AnnealBinderIsDeterministic) {
  // Every stochastic choice comes from an Rng seeded by the context's
  // reg_seed, so two contexts with identical options produce identical
  // bindings (this is what makes anneal safe for the distributed runner's
  // bit-identity contract).
  const flow::BinderSpec spec{"anneal"};
  flow::FlowContext a(make_paper_benchmark("wang"), {2, 2}, small_options());
  flow::FlowContext b(make_paper_benchmark("wang"), {2, 2}, small_options());
  const FuBinding fa = flow::binder_registry().at("anneal")(a, spec);
  const FuBinding fb = flow::binder_registry().at("anneal")(b, spec);
  EXPECT_EQ(fa.fu_of_op, fb.fu_of_op);
  EXPECT_EQ(fa.kind_of_fu, fb.kind_of_fu);

  // A different reg_seed is allowed to anneal to a different binding, and
  // the result must still be feasible.
  flow::ContextOptions opt = small_options();
  opt.reg_seed = 1234;
  flow::FlowContext c(make_paper_benchmark("wang"), {2, 2}, std::move(opt));
  const FuBinding fc = flow::binder_registry().at("anneal")(c, spec);
  fc.validate(c.cdfg(), c.schedule(), c.rc());
}

TEST(Registry, AnnealBinderRunsThroughPipelineAndRunner) {
  // Selected by name like any other binder: through a full pipeline run
  // and through the ExperimentRunner (coalesced seed group included).
  flow::Job job;
  job.benchmark = "pr";
  job.binder.name = "anneal";
  job.width = kWidth;
  job.num_vectors = 20;
  std::vector<flow::Job> jobs;
  for (std::uint64_t s = 0; s < 3; ++s) {
    jobs.push_back(job);
    jobs.back().seed = 900 + s;
  }
  flow::ExperimentRunner runner(2);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.outcome.flow.sim.total_transitions, 0u);
  }
  // The three seeds share one annealed binding (same context, one
  // bind-fus pass via coalescing), so structural results agree.
  EXPECT_EQ(results[0].outcome.fus.fu_of_op,
            results[2].outcome.fus.fu_of_op);
}

TEST(VectorsFromEnv, StrictParsing) {
  ASSERT_EQ(unsetenv("HLP_VECTORS"), 0);
  EXPECT_EQ(vectors_from_env(123), 123);
  ASSERT_EQ(setenv("HLP_VECTORS", "250", 1), 0);
  EXPECT_EQ(vectors_from_env(123), 250);
  for (const char* bad : {"12abc", "abc", "1e3", "-5", "0", "",
                          "99999999999999999999"}) {
    ASSERT_EQ(setenv("HLP_VECTORS", bad, 1), 0);
    if (*bad == '\0') {
      EXPECT_EQ(vectors_from_env(123), 123) << "empty falls back";
    } else {
      EXPECT_THROW(vectors_from_env(123), Error) << "input '" << bad << "'";
    }
  }
  ASSERT_EQ(unsetenv("HLP_VECTORS"), 0);
}

}  // namespace
}  // namespace hlp
