// Tests for the distributed runner stack (src/flow/job_io, distributed,
// tools/hlp_worker): wire-format round trips (manifest/results records
// and the unit frames that wrap them) are exact and truncation-detecting,
// a multi-process run is bit-identical to the in-process threaded runner
// on a randomized job grid, worker failures (nonzero exit, death by
// signal, invalid frames, per-unit timeout) propagate into per-job errors
// after a bounded requeue, a worker stays warm across the units it serves,
// and a fleet sharing one artifact store stays consistent.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "flow/distributed.hpp"
#include "flow/experiment.hpp"
#include "flow/job_io.hpp"
#include "power/sa_mode.hpp"
#include "store/artifact_store.hpp"

namespace hlp {
namespace {

constexpr int kWidth = 4;
constexpr int kVectors = 40;

flow::Job small_job(const std::string& benchmark) {
  flow::Job j;
  j.benchmark = benchmark;
  j.width = kWidth;
  j.num_vectors = kVectors;
  return j;
}

// The randomized acceptance grid: benchmarks x binders (all four
// registered families, refinement included) x a non-multiple-of-64 seed
// count, shuffled so work units interleave across the grid.
std::vector<flow::Job> property_grid() {
  flow::BinderSpec hlp_half{"hlpower"};
  flow::BinderSpec lopass{"lopass"};
  flow::BinderSpec anneal{"anneal"};
  flow::BinderSpec refined{"hlpower"};
  refined.alpha = 1.0;
  refined.refine = true;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 17; ++s) seeds.push_back(300 + s);
  std::vector<flow::Job> jobs = flow::ExperimentRunner::grid(
      {"pr", "wang"}, {hlp_half, lopass, anneal, refined}, seeds, {},
      small_job("pr"));
  // One job that fails inside the worker: per-job errors must round-trip
  // and match the in-process runner's message exactly.
  jobs.push_back(small_job("no-such-benchmark"));
  Rng rng(7);
  rng.shuffle(jobs);
  return jobs;
}

std::string write_fake_worker(const std::string& name,
                              const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  {
    std::ofstream f(path);
    f << "#!/bin/sh\n" << body << "\n";
  }
  EXPECT_EQ(::chmod(path.c_str(), 0755), 0);
  return path;
}

// The real hlp_worker binary, which the build puts next to this test.
std::string real_worker_binary() {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "";
  return (self.parent_path() / "hlp_worker").string();
}

// ---- wire format ---------------------------------------------------------

TEST(JobIo, TokenRoundTrip) {
  const std::string nasty = "a b\tc\nd%e=f\x01g";
  const std::string enc = flow::encode_token(nasty);
  EXPECT_EQ(enc.find(' '), std::string::npos);
  EXPECT_EQ(enc.find('\n'), std::string::npos);
  EXPECT_EQ(flow::decode_token(enc), nasty);
  EXPECT_EQ(flow::decode_token(flow::encode_token("")), "");
  EXPECT_THROW(flow::decode_token("bad%2"), Error);
  EXPECT_THROW(flow::decode_token("bad%zz"), Error);
}

TEST(JobIo, ManifestRoundTripIsExact) {
  std::vector<flow::ManifestJob> jobs;
  flow::ManifestJob a;
  a.index = 12;
  a.job = small_job("pr");
  a.job.scheduler = "fds";
  a.job.binder = {"hlpower", 0.1, 0.375, -1.0, true};
  a.job.rc = {3, 2};
  a.job.seed = 0xdeadbeefcafe1234ull;
  a.job.reg_seed = 99;
  a.job.sched_spec = {5, 3};
  a.job.sim_engine = SimEngine::kScalar;
  a.job.sa = SaMode::kSimulated;
  a.job.label = "label with spaces & %";
  jobs.push_back(a);
  flow::ManifestJob b;  // all defaults
  b.index = 0;
  jobs.push_back(b);

  std::ostringstream text;
  flow::save_manifest(text, jobs);
  std::istringstream in(text.str());
  const auto back = flow::load_manifest(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].index, 12u);
  const flow::Job& j = back[0].job;
  EXPECT_EQ(j.benchmark, "pr");
  EXPECT_EQ(j.scheduler, "fds");
  EXPECT_EQ(j.binder.name, "hlpower");
  EXPECT_EQ(j.binder.alpha, 0.1);  // bit-exact, not just approximate
  EXPECT_EQ(j.binder.beta_add, 0.375);
  EXPECT_EQ(j.binder.beta_mult, -1.0);
  EXPECT_TRUE(j.binder.refine);
  EXPECT_EQ(j.rc.adders, 3);
  EXPECT_EQ(j.rc.multipliers, 2);
  EXPECT_EQ(j.seed, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(j.reg_seed, 99u);
  EXPECT_EQ(j.sched_spec.min_latency, 5);
  EXPECT_EQ(j.sched_spec.latency_slack, 3);
  EXPECT_EQ(j.sim_engine, SimEngine::kScalar);
  ASSERT_TRUE(j.sa.has_value());
  EXPECT_EQ(*j.sa, SaMode::kSimulated);
  EXPECT_EQ(j.label, "label with spaces & %");
  EXPECT_EQ(back[1].job.benchmark, flow::Job{}.benchmark);
  // The SA mode is serialised RESOLVED: a job that deferred to HLP_SA_MODE
  // leaves the parent as a concrete mode, so a worker with a different
  // environment still runs exactly the parent's backend.
  ASSERT_TRUE(back[1].job.sa.has_value());
  EXPECT_EQ(*back[1].job.sa, effective_sa_mode(std::nullopt));
}

// Job frames are strict: an unknown key (the retired simd= included), a
// repeated key, a missing key and a value outside the key's set (the
// retired sa=exact included) each fail with an error that names the key
// and the line, in manifest and results frames alike.
TEST(JobIo, FieldErrorsNameTheKeyAndTheLine) {
  std::ostringstream manifest;
  flow::save_manifest(manifest, {flow::ManifestJob{0, small_job("pr")}});
  flow::ManifestResult failed;
  failed.result.error = "boom";
  std::ostringstream results;
  flow::save_results(results, {failed});

  // Edit the first record of a frame, which is line 3 (after the magic
  // and count lines).
  const auto edit_line3 = [](std::string frame, const std::string& from,
                             const std::string& to) {
    const std::size_t line3 = frame.find('\n', frame.find('\n') + 1) + 1;
    const std::size_t at = frame.find(from, line3);
    EXPECT_LT(at, frame.find('\n', line3)) << "'" << from << "' not on line 3";
    return frame.replace(at, from.size(), to);
  };
  struct Row {
    bool manifest;
    std::string from, to, key;
  };
  // The manifest carries the resolved mode, so match whatever this run's
  // HLP_SA_MODE resolves to.
  const std::string sa =
      std::string(" sa=") + sa_mode_name(effective_sa_mode(std::nullopt));
  const Row rows[] = {
      {true, " label=", " bogus=1 label=", "bogus"},
      {true, sa, " sa=exact", "sa"},
      {true, " label=", " simd=auto label=", "simd"},
      {true, " reg_seed=", " seed=7 reg_seed=", "seed"},
      {true, " width=4", "", "width"},
      {false, " error=", " ok=1 error=", "ok"},
  };
  for (const Row& row : rows) {
    std::istringstream in(
        edit_line3(row.manifest ? manifest.str() : results.str(), row.from,
                   row.to));
    try {
      if (row.manifest)
        flow::load_manifest(in);
      else
        flow::load_results(in);
      ADD_FAILURE() << "a frame with a bad '" << row.key << "' field loaded";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + row.key + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    }
  }
}

flow::ManifestResult synthetic_result() {
  flow::ManifestResult mr;
  mr.index = 7;
  flow::JobResult& r = mr.result;
  r.job = small_job("wang");
  r.ok = true;
  r.seconds = 0.1234567890123456789;
  r.group_size = 17;
  flow::PipelineOutcome& o = r.outcome;
  o.fus.fu_of_op = {0, 1, 0, 2};
  o.fus.kind_of_fu = {OpKind::kAdd, OpKind::kMult, OpKind::kAdd};
  o.fus.flipped = {0, 1, 0, 0};
  o.refined = true;
  o.refine.fus = o.fus;
  o.refine.flips_applied = 2;
  o.refine.passes = 3;
  o.refine.cost_before = 1.0 / 3.0;
  o.refine.cost_after = 0.1 + 0.2;  // deliberately not exactly 0.3
  o.flow.mux_stats = {4, 9, 3, 1.5, 0.25, {2, 3}, {1, 4}, {1, 1}};
  o.flow.mapped.num_luts = 123;
  o.flow.mapped.depth = 6;
  o.flow.clock_period_ns = 7.25;
  o.flow.sim.toggles = {0, 5, 11, 0, 2};
  o.flow.sim.num_cycles = 40;
  o.flow.sim.total_transitions = 18;
  o.flow.sim.functional_transitions = 12;
  o.flow.report = {0.25, 7.25, 123, 31, 1e9 / 3.0, 4.5, 1.0 / 7.0};
  o.bind_seconds = 1e-5;
  o.cached_stages = {"elaborate", "map"};
  o.timings = {{"schedule", 0.5}, {"simulate", 1.0 / 3.0}};
  return mr;
}

TEST(JobIo, ResultsRoundTripIsBitExact) {
  std::vector<flow::ManifestResult> results;
  results.push_back(synthetic_result());
  flow::ManifestResult failed;
  failed.index = 2;
  failed.result.job = small_job("pr");
  failed.result.ok = false;
  failed.result.error = "multi word error\nwith a newline and 100% escapes";
  failed.result.seconds = 0.5;
  results.push_back(failed);

  std::ostringstream text;
  flow::save_results(text, results);
  std::istringstream in(text.str());
  const auto back = flow::load_results(in);
  ASSERT_EQ(back.size(), 2u);

  EXPECT_EQ(back[0].index, 7u);
  const flow::JobResult& orig = results[0].result;
  const flow::JobResult& got = back[0].result;
  EXPECT_TRUE(flow::same_outcome(orig, got));
  // Beyond same_outcome: execution metadata round-trips too.
  EXPECT_EQ(got.seconds, orig.seconds);
  EXPECT_EQ(got.group_size, 17u);
  EXPECT_EQ(got.outcome.bind_seconds, orig.outcome.bind_seconds);
  EXPECT_EQ(got.outcome.cached_stages, orig.outcome.cached_stages);
  ASSERT_EQ(got.outcome.timings.size(), 2u);
  EXPECT_EQ(got.outcome.timings[1].name, "simulate");
  EXPECT_EQ(got.outcome.timings[1].seconds, 1.0 / 3.0);
  // The refined binding is reconstituted from the outcome's fus.
  EXPECT_EQ(got.outcome.refine.fus.fu_of_op, orig.outcome.fus.fu_of_op);

  EXPECT_EQ(back[1].index, 2u);
  EXPECT_FALSE(back[1].result.ok);
  EXPECT_EQ(back[1].result.error, failed.result.error);
}

TEST(JobIo, InProcessResultsHaveTheRoundTripShape) {
  // A threaded JobResult carries the map summary but not the mapped LUT
  // netlist (that lives in the context's StageCache entry), so it has the
  // shape every result has after a results-frame round trip — whether its
  // job rode a coalesced seed group or ran alone.
  std::vector<flow::Job> jobs = flow::ExperimentRunner::grid(
      {"pr"}, {flow::BinderSpec{"hlpower"}}, {1, 2, 3}, {}, small_job("pr"));
  flow::Job alone = small_job("pr");
  alone.binder.name = "lopass";
  jobs.push_back(alone);
  flow::ExperimentRunner runner(2);
  runner.set_coalescing(true);
  const std::vector<flow::JobResult> got = runner.run(jobs);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].group_size, 3u);
  EXPECT_EQ(got[3].group_size, 1u);

  std::vector<flow::ManifestResult> frame;
  for (std::size_t i = 0; i < got.size(); ++i) frame.push_back({i, got[i]});
  std::ostringstream text;
  flow::save_results(text, frame);
  std::istringstream in(text.str());
  const auto back = flow::load_results(in);
  ASSERT_EQ(back.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok) << got[i].error;
    const MapResult& mapped = got[i].outcome.flow.mapped;
    EXPECT_GT(mapped.num_luts, 0) << "job " << i;
    EXPECT_EQ(mapped.lut_netlist.num_nets(),
              back[i].result.outcome.flow.mapped.lut_netlist.num_nets())
        << "job " << i;
    EXPECT_TRUE(flow::same_outcome(got[i], back[i].result)) << "job " << i;
  }
}

TEST(JobIo, TruncatedAndCorruptResultsRejected) {
  std::vector<flow::ManifestResult> results = {synthetic_result()};
  std::ostringstream text;
  flow::save_results(text, results);
  const std::string full = text.str();

  // Any prefix that cuts a record or the footer must throw, not return a
  // partial vector — this is how a parent detects a worker that died
  // mid-write.
  for (const double frac : {0.2, 0.5, 0.9}) {
    std::istringstream cut(
        full.substr(0, static_cast<std::size_t>(full.size() * frac)));
    EXPECT_THROW(flow::load_results(cut), Error) << "fraction " << frac;
  }
  std::istringstream missing_footer(full.substr(0, full.rfind("end ")));
  EXPECT_THROW(flow::load_results(missing_footer), Error);

  std::string corrupt = full;
  corrupt.replace(corrupt.find("toggles"), 7, "goggles");
  std::istringstream bad(corrupt);
  EXPECT_THROW(flow::load_results(bad), Error);

  std::istringstream not_results("hlp-manifest v1\ncount 0\n");
  EXPECT_THROW(flow::load_results(not_results), Error);

  // The declared count is untrusted: an oversized one is a truncated
  // input, never an attempt to allocate for it.
  std::string oversized = full;
  oversized.replace(oversized.find("count 1\n"), 8,
                    "count 4611686018427387904\n");
  std::istringstream huge(oversized);
  EXPECT_THROW(flow::load_results(huge), Error);
  std::istringstream huge_empty("hlp-results v1\ncount 4611686018427387904\n");
  EXPECT_THROW(flow::load_results(huge_empty), Error);
  std::istringstream huge_response(
      "unitdone 3\nhlp-results v1\ncount 4611686018427387904\n");
  EXPECT_THROW(flow::load_unit_response(huge_response), Error);
}

TEST(JobIo, UnitRequestFrameRoundTripQuitAndTruncation) {
  std::vector<flow::ManifestJob> jobs;
  flow::ManifestJob a;
  a.index = 42;
  a.job = small_job("pr");
  a.job.seed = 0x0123456789abcdefull;
  a.job.label = "unit label with % and spaces";
  jobs.push_back(a);

  std::ostringstream text;
  flow::save_unit_request(text, 9, jobs);
  const std::string full = text.str();

  std::istringstream in(full);
  const flow::UnitRequest back = flow::load_unit_request(in);
  EXPECT_FALSE(back.quit);
  EXPECT_EQ(back.id, 9u);
  ASSERT_EQ(back.jobs.size(), 1u);
  EXPECT_EQ(back.jobs[0].index, 42u);
  EXPECT_EQ(back.jobs[0].job.seed, 0x0123456789abcdefull);
  EXPECT_EQ(back.jobs[0].job.label, "unit label with % and spaces");

  // EOF and an explicit quit line both end the session cleanly.
  std::istringstream eof("");
  EXPECT_TRUE(flow::load_unit_request(eof).quit);
  std::ostringstream quit_text;
  flow::save_unit_quit(quit_text);
  std::istringstream quit_in(quit_text.str());
  EXPECT_TRUE(flow::load_unit_request(quit_in).quit);

  // A frame cut anywhere inside the body or trailer throws — a serve
  // worker whose parent died mid-write must not run a partial unit.
  for (const double frac : {0.3, 0.6, 0.95}) {
    std::istringstream cut(
        full.substr(0, static_cast<std::size_t>(full.size() * frac)));
    EXPECT_THROW(flow::load_unit_request(cut), Error) << "fraction " << frac;
  }
  // A trailer answering the wrong unit throws too.
  std::string wrong = full;
  wrong.replace(wrong.rfind("endunit 9"), 9, "endunit 8");
  std::istringstream wrong_in(wrong);
  EXPECT_THROW(flow::load_unit_request(wrong_in), Error);

  // An oversized declared count fails as a truncated frame, for the
  // request and for a bare manifest alike.
  std::string oversized = full;
  oversized.replace(oversized.find("count 1\n"), 8,
                    "count 4611686018427387904\n");
  std::istringstream huge(oversized);
  EXPECT_THROW(flow::load_unit_request(huge), Error);
  std::istringstream huge_manifest(
      "hlp-manifest v1\ncount 4611686018427387904\n");
  EXPECT_THROW(flow::load_manifest(huge_manifest), Error);
}

TEST(JobIo, UnitResponseFrameRoundTripAndTruncation) {
  std::vector<flow::ManifestResult> results = {synthetic_result()};
  std::ostringstream text;
  flow::save_unit_response(text, 31, results);
  const std::string full = text.str();

  std::istringstream in(full);
  const flow::UnitResponse back = flow::load_unit_response(in);
  EXPECT_EQ(back.id, 31u);
  ASSERT_EQ(back.results.size(), 1u);
  EXPECT_EQ(back.results[0].index, 7u);
  EXPECT_TRUE(
      flow::same_outcome(results[0].result, back.results[0].result));

  for (const double frac : {0.2, 0.5, 0.9}) {
    std::istringstream cut(
        full.substr(0, static_cast<std::size_t>(full.size() * frac)));
    EXPECT_THROW(flow::load_unit_response(cut), Error) << "fraction " << frac;
  }
  std::istringstream not_a_response("quit\n");
  EXPECT_THROW(flow::load_unit_response(not_a_response), Error);
  std::string wrong = full;
  wrong.replace(wrong.rfind("endunit 31"), 10, "endunit 30");
  std::istringstream wrong_in(wrong);
  EXPECT_THROW(flow::load_unit_response(wrong_in), Error);
}

// ---- the distributed == threaded property --------------------------------

TEST(Distributed, BitIdenticalToThreadedRunnerOnRandomGrid) {
  const std::vector<flow::Job> jobs = property_grid();

  flow::ExperimentRunner threaded(3);
  const auto want = threaded.run(jobs);

  // HLP_WORKERS can raise the worker count (the CI distributed leg pins
  // it to 2); which worker pulls which unit must not change a single bit
  // of any result.
  flow::DistributedRunner dist(flow::workers_from_env(2), 2);
  const auto got = dist.run(jobs);

  ASSERT_EQ(got.size(), want.size());
  std::size_t failed_jobs = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(flow::same_outcome(want[i], got[i]))
        << "job " << i << " (" << jobs[i].benchmark << "/"
        << jobs[i].binder.name << " seed " << jobs[i].seed
        << ") diverged; distributed error: '" << got[i].error << "'";
    EXPECT_EQ(got[i].job.seed, jobs[i].seed);
    // Workers report the full seed-group size the threaded runner would,
    // not the chunk a worker happened to see.
    EXPECT_EQ(got[i].group_size, want[i].group_size) << "job " << i;
    failed_jobs += got[i].ok ? 0 : 1;
  }
  // Exactly the bad-benchmark job fails, identically on both sides.
  EXPECT_EQ(failed_jobs, 1u);
}

TEST(Distributed, WorkersInheritSaModeAndStayBitIdentical) {
  // Jobs pinned to the simulated SA backend — not the default
  // environment's mode — ride the manifest's `sa=` field into the
  // workers. The backend changes binding VALUES, so the only valid
  // reference is an in-process run of the SAME mode, which must match on
  // every bit, proving the workers ran the parent's backend and not their
  // environment's default.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 5; ++s) seeds.push_back(900 + s);
  flow::Job base = small_job("pr");
  base.sa = SaMode::kSimulated;
  const auto jobs = flow::ExperimentRunner::grid(
      {"pr"}, {flow::BinderSpec{"hlpower"}}, seeds, {}, base);

  flow::ExperimentRunner threaded(2);
  const auto want = threaded.run(jobs);
  // The pin is observable on this grid: the estimate backend (the
  // ordinary default) yields a different outcome for every job.
  std::vector<flow::Job> estimated = jobs;
  for (flow::Job& j : estimated) j.sa = SaMode::kEstimated;
  const auto other = threaded.run(estimated);
  flow::DistributedRunner dist(2, 2);
  const auto got = dist.run(jobs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].ok) << got[i].error;
    EXPECT_FALSE(flow::same_outcome(want[i], other[i])) << "job " << i;
    // The worker echoes the job back: the mode it actually ran with.
    ASSERT_TRUE(got[i].job.sa.has_value()) << "job " << i;
    EXPECT_EQ(*got[i].job.sa, SaMode::kSimulated) << "job " << i;
    EXPECT_TRUE(flow::same_outcome(want[i], got[i]))
        << "job " << i
        << " diverged between sim-mode workers and the sim-mode threaded "
        << "runner";
  }
}

TEST(Distributed, SingleWorkerFallsBackInProcess) {
  const std::vector<flow::Job> jobs = {small_job("pr"), small_job("wang")};
  flow::DistributedRunner dist(1, 2);
  // No process is spawned on the fallback path: an unusable worker binary
  // must not matter.
  dist.set_worker_binary("/does/not/exist");
  const auto got = dist.run(jobs);
  flow::ExperimentRunner threaded(2);
  const auto want = threaded.run(jobs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(flow::same_outcome(want[i], got[i])) << "job " << i;
}

TEST(Distributed, SingleJobGridDoesNotSpawn) {
  flow::DistributedRunner dist(4, 1);
  dist.set_worker_binary("/does/not/exist");
  const auto got = dist.run({small_job("pr")});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].ok) << got[0].error;
}

// ---- worker failure propagation ------------------------------------------

std::vector<flow::JobResult> run_with_fake_worker(const std::string& script,
                                                 double timeout = 0.0) {
  flow::DistributedRunner dist(2, 1);
  dist.set_worker_binary(script);
  if (timeout > 0.0) dist.set_timeout(timeout);
  return dist.run({small_job("pr"), small_job("wang"), small_job("pr")});
}

// ---- worker fault handling -----------------------------------------------

TEST(Distributed, StreamCrashRequeuesThenNamesUnitAndAttempts) {
  // Every spawn dies mid-stream: each unit is retried on a replacement
  // worker, then reports a per-job error naming the unit, the attempt
  // count and the worker's captured stderr.
  const std::string script = write_fake_worker(
      "stream_exit3.sh", "echo doom from the worker >&2\nexit 3");
  const auto got = run_with_fake_worker(script);
  ASSERT_EQ(got.size(), 3u);
  for (const auto& r : got) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("streaming unit"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("failed after 2 attempt(s)"), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("exited with status 3"), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("doom from the worker"), std::string::npos)
        << r.error;
  }
}

TEST(Distributed, StreamKill9RequeuesThenPropagatesSignal) {
  const std::string script =
      write_fake_worker("stream_kill9.sh", "kill -9 $$");
  const auto got = run_with_fake_worker(script);
  ASSERT_EQ(got.size(), 3u);
  for (const auto& r : got) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("killed by signal 9"), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("attempt(s)"), std::string::npos) << r.error;
  }
}

TEST(Distributed, StreamInvalidResponseFrameKillsAndRetries) {
  // A worker that answers with a well-framed but bodiless response: the
  // frame parses up to the trailer, the inner results parse throws, the
  // parent kills the worker and charges the unit an attempt.
  const std::string script = write_fake_worker(
      "stream_garbage.sh",
      "printf 'unitdone 0\\nendunit 0\\n'\n"
      "sleep 30");
  const auto t0 = std::chrono::steady_clock::now();
  const auto got = run_with_fake_worker(script);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(got.size(), 3u);
  for (const auto& r : got) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("invalid unit response"), std::string::npos)
        << r.error;
  }
  EXPECT_LT(elapsed, 10.0) << "protocol violators were not killed";
}

TEST(Distributed, StreamHungUnitTimesOutPerUnit) {
  // Streaming timeouts are per unit: a hung worker costs its unit one
  // attempt (plus the retry), never the whole run.
  const std::string script =
      write_fake_worker("stream_hang.sh", "sleep 30");
  const auto t0 = std::chrono::steady_clock::now();
  const auto got = run_with_fake_worker(script, 0.3);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(got.size(), 3u);
  for (const auto& r : got) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("timed out"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("attempt(s)"), std::string::npos) << r.error;
  }
  EXPECT_LT(elapsed, 10.0) << "hung workers were not killed per unit";
}

TEST(Distributed, StreamRequeueRecoversOnHealthyReplacement) {
  // Exactly one spawn crashes (mkdir is the atomic test-and-set); every
  // later spawn execs the real worker. The crashed worker's in-flight
  // unit must land on a replacement and succeed — same bits as the
  // threaded runner, no error anywhere.
  const std::string real = real_worker_binary();
  ASSERT_EQ(::access(real.c_str(), X_OK), 0)
      << "hlp_worker not built next to the test binary";
  const std::string lock = ::testing::TempDir() + "/stream_flaky.lock";
  std::filesystem::remove_all(lock);
  const std::string script = write_fake_worker(
      "stream_flaky.sh",
      "if mkdir '" + lock +
          "' 2>/dev/null; then\n"
          "  echo first spawn dies >&2\n"
          "  exit 7\n"
          "fi\n"
          "exec '" +
          real + "' \"$@\"");

  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 5; ++s) seeds.push_back(800 + s);
  const auto jobs = flow::ExperimentRunner::grid(
      {"pr", "wang"}, {flow::BinderSpec{"hlpower"}}, seeds, {},
      small_job("pr"));
  flow::ExperimentRunner threaded(2);
  const auto want = threaded.run(jobs);

  flow::DistributedRunner dist(2, 1);
  dist.set_worker_binary(script);
  const auto got = dist.run(jobs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].ok) << "job " << i << ": " << got[i].error;
    EXPECT_TRUE(flow::same_outcome(want[i], got[i])) << "job " << i;
  }
}

// ---- the serve loop, driven directly over pipes --------------------------

TEST(Distributed, ServeLoopStaysWarmAcrossUnits) {
  const std::string bin = real_worker_binary();
  ASSERT_EQ(::access(bin.c_str(), X_OK), 0)
      << "hlp_worker not built next to the test binary";

  int to_child[2], from_child[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(from_child), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl(bin.c_str(), bin.c_str(), "--coalesce", "1",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);

  auto send = [&](const std::string& s) {
    ASSERT_EQ(::write(to_child[1], s.data(), s.size()),
              static_cast<ssize_t>(s.size()));
  };
  // Blocking read until one complete frame (through its `endunit` line)
  // has arrived.
  auto read_frame = [&]() {
    std::string buf;
    char chunk[4096];
    while (true) {
      const std::size_t tail = buf.rfind("endunit ");
      if (tail != std::string::npos &&
          (tail == 0 || buf[tail - 1] == '\n') &&
          buf.find('\n', tail) != std::string::npos)
        return buf;
      const ssize_t got = ::read(from_child[0], chunk, sizeof(chunk));
      if (got <= 0) return buf;  // EOF: let the parse report the defect
      buf.append(chunk, static_cast<std::size_t>(got));
    }
  };

  flow::Job first = small_job("pr");
  first.seed = 900;
  flow::Job second = small_job("pr");
  second.seed = 901;

  std::ostringstream req0;
  flow::save_unit_request(req0, 0, {{5, first}});
  send(req0.str());
  std::istringstream in0(read_frame());
  const flow::UnitResponse r0 = flow::load_unit_response(in0);
  EXPECT_EQ(r0.id, 0u);
  ASSERT_EQ(r0.results.size(), 1u);
  EXPECT_EQ(r0.results[0].index, 5u);
  EXPECT_TRUE(r0.results[0].result.ok) << r0.results[0].result.error;
  // A fresh worker computed everything for its first unit.
  EXPECT_TRUE(r0.results[0].result.outcome.cached_stages.empty());

  std::ostringstream req1;
  flow::save_unit_request(req1, 1, {{6, second}});
  send(req1.str());
  std::istringstream in1(read_frame());
  const flow::UnitResponse r1 = flow::load_unit_response(in1);
  EXPECT_EQ(r1.id, 1u);
  ASSERT_EQ(r1.results.size(), 1u);
  EXPECT_TRUE(r1.results[0].result.ok) << r1.results[0].result.error;
  // Same design, new stimulus seed: the second unit rides the warm
  // StageCaches the first one populated — the whole point of a
  // long-lived serve worker.
  EXPECT_FALSE(r1.results[0].result.outcome.cached_stages.empty());

  // Both units answer with the bits the in-process runner produces.
  flow::ExperimentRunner local(1);
  const auto want = local.run({first, second});
  EXPECT_TRUE(flow::same_outcome(want[0], r0.results[0].result));
  EXPECT_TRUE(flow::same_outcome(want[1], r1.results[0].result));

  std::ostringstream quit;
  flow::save_unit_quit(quit);
  send(quit.str());
  ::close(to_child[1]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ::close(from_child[0]);
}

TEST(Distributed, WorkerRejectsUnknownFlagsWithUsage) {
  // Bad usage exits 2 with the usage text before any unit is read; stdin
  // is /dev/null, so a worker that started serving would exit 0 instead.
  // Flags the worker no longer takes must not be silently accepted.
  const std::string bin = real_worker_binary();
  ASSERT_EQ(::access(bin.c_str(), X_OK), 0)
      << "hlp_worker not built next to the test binary";
  const std::string log = ::testing::TempDir() + "/worker_usage.log";
  for (const char* args :
       {"--results r", "--sa-out p", "--sa-in p", "--jobs 2 --bogus 1",
        "--jobs 0", "--coalesce"}) {
    const int rc = std::system(("'" + bin + "' " + args +
                                " </dev/null >/dev/null 2>'" + log + "'")
                                   .c_str());
    ASSERT_TRUE(WIFEXITED(rc)) << args;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << args;
    std::ifstream f(log);
    const std::string err((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
    EXPECT_NE(err.find("usage: hlp_worker"), std::string::npos) << err;
  }
}

// ---- shared artifact store -----------------------------------------------

TEST(Distributed, SharedStoreSurvivesConcurrentRunnersAndWarmsTheRerun) {
  // The concurrency property: two in-process threaded runners (on their
  // own std::threads) and a 2-worker distributed fleet all publish the
  // SAME overlapping keys into one store, concurrently. Atomic
  // write-then-rename plus overlap-must-agree means the dogpile must
  // produce one consistent store — every committed object strictly valid
  // at its content address — and every participant must still be
  // bit-identical to a store-less reference run. A warm rerun of the
  // same randomized grid then comes off disk wholesale.
  const std::vector<flow::Job> jobs = property_grid();
  flow::ExperimentRunner reference(3);
  const auto want = reference.run(jobs);

  const std::string dir = ::testing::TempDir() + "/dist_store";
  std::filesystem::remove_all(dir);

  std::vector<flow::JobResult> r1, r2, rd;
  {
    flow::ExperimentRunner a(2), b(2);
    a.set_store_dir(dir);
    b.set_store_dir(dir);
    flow::DistributedRunner fleet(2, 2);
    fleet.set_store_dir(dir);
    std::thread ta([&] { r1 = a.run(jobs); });
    std::thread tb([&] { r2 = b.run(jobs); });
    rd = fleet.run(jobs);
    ta.join();
    tb.join();
  }
  ASSERT_EQ(r1.size(), want.size());
  ASSERT_EQ(r2.size(), want.size());
  ASSERT_EQ(rd.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(flow::same_outcome(want[i], r1[i]))
        << "thread A diverged on job " << i << ": '" << r1[i].error << "'";
    EXPECT_TRUE(flow::same_outcome(want[i], r2[i]))
        << "thread B diverged on job " << i << ": '" << r2[i].error << "'";
    EXPECT_TRUE(flow::same_outcome(want[i], rd[i]))
        << "fleet diverged on job " << i << ": '" << rd[i].error << "'";
  }

  // One consistent store: merge_from is the strict auditor — it refuses
  // on any entry that is corrupt, misplaced or conflicting, so a clean
  // full-count merge certifies every object the dogpile committed.
  const std::string audit_root = ::testing::TempDir() + "/dist_store_audit";
  std::filesystem::remove_all(audit_root);
  store::ArtifactStore audit(audit_root);
  const std::size_t merged = audit.merge_from(dir);
  EXPECT_GT(merged, 0u);
  EXPECT_EQ(merged, audit.size());

  // Warm rerun from a fresh runner: bit-identical, the cached span served
  // from disk for every job that can hit (the bad-benchmark job still
  // fails with the same error, and nothing needed repair).
  flow::ExperimentRunner warm(2);
  warm.set_store_dir(dir);
  const auto got = warm.run(jobs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(flow::same_outcome(want[i], got[i]))
        << "warm rerun diverged on job " << i << ": '" << got[i].error << "'";
    if (got[i].ok) {
      EXPECT_FALSE(got[i].outcome.cached_stages.empty()) << "job " << i;
      EXPECT_NE(std::find(got[i].outcome.cached_stages.begin(),
                          got[i].outcome.cached_stages.end(), "elaborate"),
                got[i].outcome.cached_stages.end())
          << "job " << i;
    }
  }
  ASSERT_NE(warm.artifact_store(), nullptr);
  EXPECT_GT(warm.artifact_store()->hits(), 0u);
  EXPECT_EQ(warm.artifact_store()->rejected(), 0u);
  EXPECT_EQ(warm.artifact_store()->publishes(), 0u);
}

}  // namespace
}  // namespace hlp
