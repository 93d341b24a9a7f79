// The incremental explorer tier (src/explore/): the Pareto frontier's
// dominance/tie semantics and its arrival-order-independence guarantee
// (same job set -> bit-identical frontier for any shuffle, thread count
// or worker count), the runner's streaming result callback, and the
// explorer's store-reuse contract — a knob-mutation step against a warm
// store recomputes ZERO unaffected bind-fus..time spans, pinned through
// the store's hit/miss/publish counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "explore/pareto.hpp"
#include "flow/distributed.hpp"
#include "flow/experiment.hpp"
#include "power/sa_mode.hpp"
#include "store/artifact_store.hpp"
#include "test_dir.hpp"

namespace hlp {
namespace {

constexpr int kWidth = 4;
constexpr int kVectors = 12;

using explore::InsertOutcome;
using explore::ParetoFrontier;
using explore::ParetoPoint;

ParetoPoint pt(double power, int area, double period,
               const std::string& id) {
  ParetoPoint p;
  p.power_mw = power;
  p.lut_area = area;
  p.clock_period_ns = period;
  p.id = id;
  p.label = id;
  return p;
}

// --- frontier unit semantics ---------------------------------------------

TEST(ParetoFrontier, DominanceInsertAndEvict) {
  ParetoFrontier f;
  EXPECT_EQ(f.insert(pt(2.0, 20, 2.0, "a")), InsertOutcome::kInserted);
  // Strictly worse on one axis, equal elsewhere: dominated.
  EXPECT_EQ(f.insert(pt(2.0, 21, 2.0, "b")), InsertOutcome::kDominated);
  // Incomparable (better power, worse area): joins.
  EXPECT_EQ(f.insert(pt(1.0, 30, 2.0, "c")), InsertOutcome::kInserted);
  EXPECT_EQ(f.size(), 2u);
  // Dominates both: evicts both.
  EXPECT_EQ(f.insert(pt(1.0, 20, 1.0, "d")), InsertOutcome::kInserted);
  const auto points = f.points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].id, "d");
}

TEST(ParetoFrontier, EqualVectorTieKeepsTheSmallestIdentity) {
  // Whichever arrival order, the equal-vector group collapses to the
  // lexicographically smallest id — the deterministic tie-break the
  // order-independence guarantee needs.
  for (const std::vector<std::string>& order :
       {std::vector<std::string>{"b", "a", "c"}, {"c", "b", "a"},
        {"a", "c", "b"}}) {
    ParetoFrontier f;
    for (const std::string& id : order) f.insert(pt(1.0, 10, 1.0, id));
    const auto points = f.points();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].id, "a");
  }
  // Identical id too: idempotent no-op.
  ParetoFrontier f;
  EXPECT_EQ(f.insert(pt(1.0, 10, 1.0, "a")), InsertOutcome::kInserted);
  EXPECT_EQ(f.insert(pt(1.0, 10, 1.0, "a")), InsertOutcome::kDuplicate);
  EXPECT_EQ(f.size(), 1u);
}

TEST(ParetoFrontier, SyntheticOrderIndependence) {
  // A point soup with dominated points, incomparable points and tie
  // groups; every shuffle must converge to the identical frontier.
  std::vector<ParetoPoint> soup;
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j)
      soup.push_back(pt(1.0 + i * 0.5, 10 + j * 3, 4.0 - (i + j) * 0.25,
                        "p" + std::to_string(i) + std::to_string(j)));
  // Tie group on one of the minimal vectors.
  soup.push_back(pt(1.0, 10, 4.0, "tie-z"));
  soup.push_back(pt(1.0, 10, 4.0, "tie-a"));

  ParetoFrontier reference;
  for (const ParetoPoint& p : soup) reference.insert(p);
  const auto expect = reference.points();
  ASSERT_FALSE(expect.empty());

  std::mt19937 rng(1234);
  for (int round = 0; round < 10; ++round) {
    std::shuffle(soup.begin(), soup.end(), rng);
    ParetoFrontier f;
    for (const ParetoPoint& p : soup) f.insert(p);
    EXPECT_EQ(f.points(), expect) << "round " << round;
  }
}

// --- streaming from the runner -------------------------------------------

std::vector<flow::Job> small_grid() {
  std::vector<flow::Job> jobs;
  for (const char* bench : {"pr", "wang"})
    for (const char* binder : {"hlpower", "lopass"})
      for (const std::uint64_t seed : {42ull, 7ull, 9ull}) {
        flow::Job j;
        j.benchmark = bench;
        j.binder.name = binder;
        j.width = kWidth;
        j.num_vectors = kVectors;
        j.seed = seed;
        jobs.push_back(j);
      }
  return jobs;
}

TEST(ResultCallback, FiresOncePerJobWithThePopulatedSlot) {
  std::vector<flow::Job> jobs = small_grid();
  // A failing job must fire too (the frontier counts and skips it).
  flow::Job bad = jobs[0];
  bad.benchmark = "no-such-benchmark";
  jobs.push_back(bad);

  flow::ExperimentRunner runner(4);
  runner.set_store_dir("");
  std::mutex mu;
  std::vector<int> fired(jobs.size(), 0);
  std::size_t ok_count = 0;
  runner.set_result_callback([&](std::size_t i, const flow::JobResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_LT(i, fired.size());
    ++fired[i];
    // The slot is fully populated when the callback fires: either a
    // success with its outcome or a failure with its error, seconds set.
    EXPECT_TRUE(r.ok || !r.error.empty());
    EXPECT_GE(r.seconds, 0.0);
    EXPECT_EQ(r.job.benchmark, jobs[i].benchmark);
    EXPECT_EQ(r.job.seed, jobs[i].seed);
    if (r.ok) ++ok_count;
  });
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(fired[i], 1) << "job " << i;
  EXPECT_FALSE(results.back().ok);
  EXPECT_EQ(ok_count, jobs.size() - 1);
}

TEST(ParetoStream, FrontierIsBitIdenticalAcrossArrivalOrders) {
  std::vector<flow::Job> jobs = small_grid();
  flow::Job bad = jobs[0];
  bad.benchmark = "no-such-benchmark";
  bad.label = "fails-deterministically";
  jobs.push_back(bad);

  auto streamed = [&](const std::vector<flow::Job>& grid, int threads) {
    ParetoFrontier f;
    flow::ExperimentRunner runner(threads);
    runner.set_store_dir("");
    runner.set_result_callback(
        [&](std::size_t, const flow::JobResult& r) { f.offer(r); });
    runner.run(grid);
    return f.points();
  };

  const auto reference = streamed(jobs, 1);
  ASSERT_FALSE(reference.empty());

  // Thread-count invariance: the pool interleaves offers arbitrarily.
  EXPECT_EQ(streamed(jobs, flow::jobs_from_env(4)), reference);

  // Shuffle invariance: the job SET is what matters, not its order.
  std::vector<flow::Job> shuffled = jobs;
  std::mt19937 rng(99);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    EXPECT_EQ(streamed(shuffled, 4), reference) << "round " << round;
  }
}

TEST(ParetoStream, FrontierMatchesAcrossWorkerProcesses) {
  // HLP_WORKERS=2-style distribution: the same grid sharded across two
  // hlp_worker processes must stream to the bit-identical frontier (the
  // distributed runner returns in job order; insertion order cannot
  // matter by the frontier guarantee, so inserting the merged results is
  // exactly a streamed arrival order).
  const std::vector<flow::Job> jobs = small_grid();

  ParetoFrontier in_process;
  flow::ExperimentRunner runner(2);
  runner.set_store_dir("");
  runner.set_result_callback(
      [&](std::size_t, const flow::JobResult& r) { in_process.offer(r); });
  runner.run(jobs);

  try {
    flow::DistributedRunner dist(2, 1);
    ParetoFrontier distributed;
    for (const flow::JobResult& r : dist.run(jobs)) distributed.offer(r);
    EXPECT_EQ(distributed.points(), in_process.points());
    EXPECT_EQ(distributed.offered(), in_process.offered());
  } catch (const std::exception& e) {
    GTEST_SKIP() << "worker binary unavailable: " << e.what();
  }
}

// --- explorer: incremental reuse through the store -----------------------

std::vector<flow::Job> explorer_grid() {
  std::vector<flow::Job> jobs;
  for (const std::uint64_t seed : {42ull, 7ull, 9ull}) {
    flow::Job j;
    j.benchmark = "pr";
    j.binder.name = "hlpower";
    j.width = kWidth;
    j.num_vectors = kVectors;
    j.seed = seed;
    jobs.push_back(j);
  }
  return jobs;
}

// The canonical three-step walk: a tail-only knob (vectors), a
// binding-changing knob (alpha) and a scope-changing knob (scheduler).
// The Explorer owns a mutex-guarded frontier so it cannot be returned by
// value; callers construct and we add the steps.
void add_walk_steps(explore::Explorer& ex) {
  explore::KnobStep vectors;
  vectors.name = "vectors";
  vectors.num_vectors = kVectors * 2;
  explore::KnobStep alpha;
  alpha.name = "alpha";
  alpha.binder_alpha = 1.0;
  explore::KnobStep sched;
  sched.name = "asap";
  sched.scheduler = "asap";
  ex.step(vectors).step(alpha).step(sched);
}

TEST(Explorer, KnobStepsRecomputeOnlyAffectedSpans) {
  const std::string dir = test::fresh_dir("explore_incremental");
  const std::vector<flow::Job> grid = explorer_grid();

  // Single-threaded, 3 coalesced seeds = exactly one work unit per step,
  // so every store counter is exactly pinnable.
  explore::Explorer walk(grid, dir, 1);
  add_walk_steps(walk);
  const explore::Exploration cold = walk.run();
  ASSERT_EQ(cold.steps.size(), 4u);

  // Step 0 (base): one span, cold — computed and published.
  EXPECT_EQ(cold.steps[0].spans, 1u);
  EXPECT_EQ(cold.steps[0].spans_shared, 0u);
  EXPECT_EQ(cold.steps[0].store_hits, 0u);
  EXPECT_EQ(cold.steps[0].store_misses, 1u);
  EXPECT_EQ(cold.steps[0].store_publishes, 1u);

  // Step 1 (vectors only): the ArtifactKey is unchanged — the span is
  // shared with the previous step and comes FROM THE STORE: one hit,
  // zero misses, zero publishes. This is the incremental contract: a
  // knob that cannot affect the bind-fus..time span recomputes none.
  EXPECT_EQ(cold.steps[1].axes, "vectors");
  EXPECT_EQ(cold.steps[1].spans, 1u);
  EXPECT_EQ(cold.steps[1].spans_shared, 1u);
  EXPECT_EQ(cold.steps[1].store_hits, 1u);
  EXPECT_EQ(cold.steps[1].store_misses, 0u);
  EXPECT_EQ(cold.steps[1].store_publishes, 0u);

  // Step 2 (binder alpha): new binding hash — nothing shared, one
  // recompute, one publish.
  EXPECT_EQ(cold.steps[2].spans, 1u);
  EXPECT_EQ(cold.steps[2].spans_shared, 0u);
  EXPECT_EQ(cold.steps[2].store_hits, 0u);
  EXPECT_EQ(cold.steps[2].store_misses, 1u);
  EXPECT_EQ(cold.steps[2].store_publishes, 1u);

  // Step 3 (scheduler): new scope — same shape.
  EXPECT_EQ(cold.steps[3].spans_shared, 0u);
  EXPECT_EQ(cold.steps[3].store_hits, 0u);
  EXPECT_EQ(cold.steps[3].store_misses, 1u);
  EXPECT_EQ(cold.steps[3].store_publishes, 1u);

  for (const explore::StepReport& r : cold.steps) {
    EXPECT_EQ(r.failed, 0u) << r.name;
    EXPECT_EQ(r.store_rejected, 0u) << r.name;
  }

  // The whole walk again, fresh Explorer, same store: every step's span
  // is already persisted — all hits, zero recomputes anywhere.
  explore::Explorer warm(grid, dir, 1);
  add_walk_steps(warm);
  const explore::Exploration rerun = warm.run();
  for (const explore::StepReport& r : rerun.steps) {
    EXPECT_EQ(r.store_hits, r.spans) << r.name;
    EXPECT_EQ(r.store_misses, 0u) << r.name;
    EXPECT_EQ(r.store_publishes, 0u) << r.name;
  }

  // Warm results are bit-identical: same frontier, point for point.
  EXPECT_EQ(rerun.frontier, cold.frontier);
  ASSERT_FALSE(cold.frontier.empty());
}

TEST(Explorer, FrontierIsThreadCountInvariant) {
  const std::vector<flow::Job> grid = explorer_grid();
  explore::Explorer serial(grid, test::fresh_dir("explore_serial"), 1);
  add_walk_steps(serial);
  explore::Explorer threaded(grid, test::fresh_dir("explore_threaded"), 4);
  add_walk_steps(threaded);
  EXPECT_EQ(threaded.run().frontier, serial.run().frontier);
}

TEST(Explorer, WithoutAStoreEveryStepRecomputes) {
  // Persistence is opt-in: an empty store dir means fresh runners share
  // nothing — the vectors-only step recomputes its span too.
  explore::Explorer walk(explorer_grid(), "", 1);
  add_walk_steps(walk);
  const explore::Exploration result = walk.run();
  for (const explore::StepReport& r : result.steps) {
    EXPECT_EQ(r.store_hits, 0u) << r.name;
    EXPECT_EQ(r.store_publishes, 0u) << r.name;
    EXPECT_EQ(r.failed, 0u) << r.name;
  }
  EXPECT_EQ(result.steps[1].spans_shared, 1u);  // the diff still reports
}

TEST(Explorer, JobIdentityResolvesTheSaModeLikeTheManifest) {
  // A job deferring to the environment and one pinning the same mode are
  // the same identity (a manifest round trip pins the resolved mode, and
  // frontier equality across workers depends on the ids agreeing).
  flow::Job deferred = explorer_grid()[0];
  flow::Job pinned = deferred;
  pinned.sa = effective_sa_mode(std::nullopt);
  EXPECT_EQ(explore::job_identity(deferred), explore::job_identity(pinned));
  // The seed is part of the identity (distinct configurations).
  flow::Job other_seed = deferred;
  other_seed.seed += 1;
  EXPECT_NE(explore::job_identity(deferred),
            explore::job_identity(other_seed));
}

}  // namespace
}  // namespace hlp
