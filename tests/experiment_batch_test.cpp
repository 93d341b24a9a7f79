// Property tests for ExperimentRunner seed coalescing: for randomized job
// grids (mixed benchmarks, binders, 1-200 seeds, group sizes that are not
// multiples of 64), the coalesced runner must produce JobResults that are
// bit-identical to a runner with coalescing disabled, in the same order,
// with failures still captured per job. Both datapath engines under the
// pipeline — the seed chunks of the coalesced path and the sample lanes of
// a single-seed run — are checked against the scalar oracle at every word
// width the build and CPU support, and must reject ragged stimulus. A seed
// chunk cut into explicit time ranges must give its serial run's
// statistics lane for lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "flow/experiment.hpp"
#include "flow/pipeline.hpp"
#include "rtl/datapath.hpp"
#include "rtl/lane_sim.hpp"
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
  // kScalar groups coalesce too (shared head stages); run_batch loops the
  // scalar oracle per seed, so results still match exactly.
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

// Every concrete SimdMode this build + CPU can execute.
std::vector<SimdMode> supported_modes() {
  std::vector<SimdMode> modes;
  for (const SimdMode mode : all_simd_modes())
    if (mode != SimdMode::kAuto && simd_mode_supported(mode))
      modes.push_back(mode);
  return modes;
}

// The bind-fus..time span of one pipeline run of `job`: the control plan
// and LUT netlist the `simulate` stage reads, from the StageCache entry the
// run published on the runner's context.
std::shared_ptr<const flow::StageCache::Entry> published_span(
    flow::ExperimentRunner& runner, const flow::Job& job) {
  flow::FlowContext& ctx = runner.context_for(job);
  flow::RunSpec spec;
  spec.binder = job.binder;
  spec.num_vectors = job.num_vectors;
  flow::Pipeline::run(ctx, spec);
  return ctx.stage_cache().find(ctx.binding_hash(spec.binder));
}

void expect_same_stats(const CycleSimStats& got, const CycleSimStats& want) {
  EXPECT_EQ(got.num_cycles, want.num_cycles);
  EXPECT_EQ(got.toggles, want.toggles);
  EXPECT_EQ(got.functional_transitions, want.functional_transitions);
  EXPECT_EQ(got.total_transitions, want.total_transitions);
}

TEST(SeedChunkWidths, EveryWidthMatchesScalarPerSeed) {
  flow::ExperimentRunner runner(1);
  flow::Job job = small_job();
  job.benchmark = "pr";
  const auto entry = published_span(runner, job);
  ASSERT_TRUE(entry);
  const Netlist& n = entry->mapped.lut_netlist;
  const DatapathPlan& dp = entry->plan;
  const int num_inputs = runner.context_for(job).cdfg().num_inputs();

  // 130 seeds, chunked to the word as run_batch chunks them: two full
  // words and a partial one at u64, a full and a partial one at x2, and
  // one partial word, with lanes past 63 in use, at every wider backend.
  LaneSamples lane_samples;
  std::vector<CycleSimStats> want;
  for (std::uint64_t seed = 500; seed < 630; ++seed) {
    lane_samples.push_back(
        random_samples(job.num_vectors, num_inputs, kWidth, seed));
    want.push_back(
        simulate_frames(n, make_frames(n, dp, lane_samples.back())));
  }
  for (const SimdMode mode : supported_modes()) {
    SCOPED_TRACE(simd_mode_name(mode));
    const std::size_t lanes = static_cast<std::size_t>(simd_lanes(mode));
    for (std::size_t g0 = 0; g0 < want.size(); g0 += lanes) {
      const std::size_t count = std::min(lanes, want.size() - g0);
      const LaneSamples chunk(lane_samples.begin() + g0,
                              lane_samples.begin() + g0 + count);
      const auto got = simulate_seed_chunk(n, dp, chunk, mode);
      ASSERT_EQ(got.size(), count);
      for (std::size_t l = 0; l < count; ++l) {
        SCOPED_TRACE("seed #" + std::to_string(g0 + l));
        expect_same_stats(got[l], want[g0 + l]);
      }
    }
  }
}

TEST(SeedChunk, RaggedInputThrows) {
  flow::ExperimentRunner runner(1);
  flow::Job job = small_job();
  job.benchmark = "pr";
  const auto entry = published_span(runner, job);
  ASSERT_TRUE(entry);
  const Netlist& n = entry->mapped.lut_netlist;
  const DatapathPlan& dp = entry->plan;
  const std::size_t num_inputs = dp.data_input_pos.size();
  const int inputs = static_cast<int>(num_inputs);

  // Seed lanes of different lengths.
  const LaneSamples ragged = {random_samples(20, inputs, kWidth, 1),
                              random_samples(5, inputs, kWidth, 2)};
  EXPECT_THROW(simulate_seed_chunk(n, dp, ragged, SimdMode::kU64), Error);

  // A sample short of words, in either engine, fails as make_frames does.
  Samples short_sample = random_samples(3, inputs, kWidth, 3);
  short_sample[1].resize(1);
  const std::string want = "sample has 1 words, datapath expects " +
                           std::to_string(num_inputs);
  const auto expect_short = [&](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "short sample accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  };
  expect_short([&] {
    simulate_seed_chunk(n, dp, {short_sample, short_sample}, SimdMode::kU64);
  });
  expect_short([&] {
    simulate_sample_lanes(n, dp, short_sample, SimdMode::kU64);
  });
  expect_short([&] { make_frames(n, dp, short_sample); });
}

TEST(SampleLaneWidths, EveryWidthMatchesScalar) {
  // Eight datapaths (pr and wang, schedule-minimum and Table 2
  // allocation, both binders), each run at one sample count. Together the
  // counts cross every word boundary: empty, one lane, a u64 word less,
  // exactly and more than full, and partial x2, x4 and x8/avx512 words.
  // One count per datapath keeps the test under a second; the full cross
  // product spends about 4 s in the scalar oracle.
  constexpr std::size_t kCounts[] = {513, 257, 129, 65, 64, 63, 1, 0};
  flow::ExperimentRunner runner(1);
  const std::size_t* count = kCounts;
  for (const char* bench : {"pr", "wang"})
    for (const ResourceConstraint rc :
         {ResourceConstraint{0, 0}, ResourceConstraint{2, 2}})
      for (const char* binder : {"lopass", "hlpower"}) {
        flow::Job job = small_job();
        job.benchmark = bench;
        job.rc = rc;
        job.binder.name = binder;
        SCOPED_TRACE(std::string(bench) + " rc=" + std::to_string(rc.adders) +
                     " " + binder + ", " + std::to_string(*count) +
                     " samples");
        const auto entry = published_span(runner, job);
        ASSERT_TRUE(entry);
        const Netlist& n = entry->mapped.lut_netlist;
        const DatapathPlan& dp = entry->plan;
        const Samples samples = random_samples(
            static_cast<int>(*count++),
            static_cast<int>(dp.data_input_pos.size()), kWidth, 77);
        const CycleSimStats want =
            simulate_frames(n, make_frames(n, dp, samples));
        for (const SimdMode mode : supported_modes()) {
          SCOPED_TRACE(simd_mode_name(mode));
          expect_same_stats(simulate_sample_lanes(n, dp, samples, mode), want);
        }
      }
}

// A 2-bit free-running counter (D = Q+1) that never forgets: with 3
// phases a sample ends 3 counts past where it started, so every sample's
// start state depends on every earlier sample, where the paper designs'
// registers reload every sample.
Datapath free_running_counter() {
  Datapath dp;
  Netlist& n = dp.netlist;
  const NetId a = n.add_input("a");
  const NetId sel = n.add_input("sel");
  const NetId q0 = n.add_net("q0");
  const NetId q1 = n.add_net("q1");
  n.add_latch(q0, n.add_gate_net("d0", {q0}, TruthTable::not1()));
  n.add_latch(q1, n.add_gate_net("d1", {q0, q1}, TruthTable::xor2()));
  n.add_output(n.add_gate_net("y", {a, q0}, TruthTable::and2()));
  n.add_output(n.add_gate_net("z", {sel, q1}, TruthTable::xor2()));
  dp.width = 1;
  dp.num_phases = 3;
  dp.data_input_pos = {0};
  dp.controls.push_back(ControlGroup{"sel", {1}, {0, 1, 1}});
  return dp;
}

TEST(SampleLanes, StateThatNeverForgetsStaysExact) {
  // No lane's first guess is right unless it happens to match the count;
  // the fix-up loop must still converge to the scalar run exactly.
  const Datapath dp = free_running_counter();
  const Netlist& n = dp.netlist;
  const Samples samples = random_samples(600, 1, 1, 5);
  const CycleSimStats want = simulate_frames(n, make_frames(n, dp, samples));
  ASSERT_GT(want.functional_transitions, 0u);
  for (const SimdMode mode : supported_modes()) {
    SCOPED_TRACE(simd_mode_name(mode));
    expect_same_stats(simulate_sample_lanes(n, dp, samples, mode), want);
  }
}

// The cuts of 1, 2 and 3 ranges and of one range per sample.
std::vector<std::vector<std::size_t>> partitions(std::size_t samples) {
  std::vector<std::size_t> every;
  for (std::size_t s = 1; s < samples; ++s) every.push_back(s);
  return {{}, {samples / 2}, {samples / 3, 2 * samples / 3}, every};
}

// Runs `chunk` at the u64 word and at the 512-lane word under every cut of
// partitions() and expects every lane's statistics to equal the serial
// run's (no cut). A range after a cut starts from the state a zero-delay
// walk reaches, so a walk that went wrong, or a hand-off that assumed the
// reset state, shows up in the counts.
void expect_partitions_match_serial(const Netlist& n, const DatapathPlan& dp,
                                    const LaneSamples& chunk) {
  const SimdMode wide = simd_mode_supported(SimdMode::kAvx512)
                            ? SimdMode::kAvx512
                            : SimdMode::kX8;
  for (const SimdMode mode : {SimdMode::kU64, wide}) {
    SCOPED_TRACE(simd_mode_name(mode));
    const auto serial =
        detail::simulate_seed_chunk_cut(n, dp, chunk, {}, mode);
    ASSERT_EQ(serial.size(), chunk.size());
    for (const auto& cuts : partitions(chunk.front().size())) {
      SCOPED_TRACE(std::to_string(cuts.size() + 1) + " ranges");
      const auto got =
          detail::simulate_seed_chunk_cut(n, dp, chunk, cuts, mode);
      ASSERT_EQ(got.size(), chunk.size());
      for (std::size_t l = 0; l < chunk.size(); ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        expect_same_stats(got[l], serial[l]);
      }
    }
  }
}

TEST(SeedChunkPartitions, EveryPartitionMatchesTheSerialRun) {
  flow::ExperimentRunner runner(1);
  for (const char* bench : {"pr", "wang"}) {
    SCOPED_TRACE(bench);
    flow::Job job = small_job();
    job.benchmark = bench;
    job.num_vectors = 12;
    const auto entry = published_span(runner, job);
    ASSERT_TRUE(entry);
    const int num_inputs = runner.context_for(job).cdfg().num_inputs();
    LaneSamples chunk;
    for (std::uint64_t seed = 900; seed < 960; ++seed)
      chunk.push_back(
          random_samples(job.num_vectors, num_inputs, kWidth, seed));
    expect_partitions_match_serial(entry->mapped.lut_netlist, entry->plan,
                                   chunk);
  }
}

TEST(SeedChunkPartitions, StateThatNeverForgetsStaysExact) {
  const Datapath dp = free_running_counter();
  LaneSamples chunk;
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    chunk.push_back(random_samples(30, 1, 1, seed));
  // The serial run itself is pinned to the scalar oracle, lane by lane.
  const auto serial = detail::simulate_seed_chunk_cut(dp.netlist, dp, chunk,
                                                      {}, SimdMode::kU64);
  for (std::size_t l = 0; l < chunk.size(); ++l)
    expect_same_stats(serial[l], simulate_frames(dp.netlist,
                                                 make_frames(dp.netlist, dp,
                                                             chunk[l])));
  expect_partitions_match_serial(dp.netlist, dp, chunk);
}

TEST(SeedChunkPartitions, BadCutsThrow) {
  const Datapath dp = free_running_counter();
  const LaneSamples chunk = {random_samples(4, 1, 1, 1)};
  for (const std::vector<std::size_t>& cuts :
       std::vector<std::vector<std::size_t>>{{0}, {4}, {2, 2}, {3, 1}})
    EXPECT_THROW(detail::simulate_seed_chunk_cut(dp.netlist, dp, chunk, cuts,
                                                 SimdMode::kU64),
                 Error);
}

TEST(SeedChunkPartitions, AHelpersErrorReachesTheCaller) {
  // The last sample is short of words, so only the range after the cut
  // reaches it: the error must still surface, with make_frames' message.
  const Datapath dp = free_running_counter();
  Samples samples = random_samples(6, 1, 1, 2);
  samples.back().clear();
  const LaneSamples chunk = {samples, samples};
  for (const std::vector<std::size_t>& cuts :
       std::vector<std::vector<std::size_t>>{{3}, {1, 2, 3, 4, 5}}) {
    try {
      detail::simulate_seed_chunk_cut(dp.netlist, dp, chunk, cuts,
                                      SimdMode::kU64);
      ADD_FAILURE() << "short sample accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "sample has 0 words, datapath expects 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ExperimentBatch, CoalescingDefaultsOnAndToggles) {
  flow::ExperimentRunner runner(1);
  EXPECT_TRUE(runner.coalescing());  // default on
  runner.set_coalescing(false);
  EXPECT_FALSE(runner.coalescing());
}

}  // namespace
}  // namespace hlp
