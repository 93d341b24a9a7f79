#include "bench_common.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <ostream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "explore/explorer.hpp"
#include "flow/distributed.hpp"
#include "flow/job_io.hpp"

namespace hlp::bench {

const std::vector<std::string>& names() {
  // Derived from the library's Table 1 profile list (paper order).
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> out;
    for (const auto& profile : paper_benchmarks()) out.push_back(profile.name);
    return out;
  }();
  return kNames;
}

Table2Row table2(const std::string& name) {
  // Resource constraints, schedule length and register count of Table 2.
  static const std::map<std::string, Table2Row> kRows = {
      {"chem", {9, 7, 39, 70}}, {"dir", {3, 2, 41, 25}},
      {"honda", {4, 4, 18, 13}}, {"mcm", {4, 2, 27, 54}},
      {"pr", {2, 2, 16, 32}},   {"steam", {7, 6, 28, 39}},
      {"wang", {2, 2, 18, 39}}};
  auto it = kRows.find(name);
  HLP_REQUIRE(it != kRows.end(), "unknown benchmark '" << name << "'");
  return it->second;
}

int bench_width() { return 8; }

int bench_vectors() {
  // The paper simulates 1000 random vectors; the default here is lower so
  // the full table suite stays interactive. HLP_VECTORS=1000 reproduces
  // the paper's count (the shape is stable well below that).
  return vectors_from_env(200);
}

int bench_jobs() { return flow::jobs_from_env(2); }

SaCache& sa_cache() {
  // Resolved from HLP_SA_MODE once: every bench shares the same backend,
  // and contexts with a deferred Job::sa agree with this cache's mode.
  static SaCache cache(bench_width(), MapParams{},
                       effective_sa_mode(std::nullopt));
  return cache;
}

flow::ExperimentRunner& runner() {
  static flow::ExperimentRunner r(bench_jobs(), {}, &sa_cache());
  return r;
}

flow::Job job(const std::string& name, const flow::BinderSpec& spec) {
  const Table2Row row = table2(name);
  flow::Job j;
  j.benchmark = name;
  j.binder = spec;
  j.rc = {row.adders, row.multipliers};
  j.width = bench_width();
  j.num_vectors = bench_vectors();
  return j;
}

flow::FlowContext& context(const std::string& name) {
  return runner().context_for(job(name, {}));
}

Evaluated to_evaluated(const flow::PipelineOutcome& out) {
  Evaluated ev;
  ev.fus = out.fus;
  ev.mux = out.flow.mux_stats;
  ev.flow = out.flow;
  ev.bind_seconds = out.bind_seconds;
  ev.timings = out.timings;
  return ev;
}

Evaluated evaluate(const std::string& name, const flow::BinderSpec& spec) {
  flow::RunSpec rs;
  rs.binder = spec;
  rs.num_vectors = bench_vectors();
  return to_evaluated(flow::Pipeline::standard().run(context(name), rs));
}

const Comparison& comparison(const std::string& name) {
  static std::map<std::string, Comparison> memo;
  static std::mutex memo_mu;
  {
    std::lock_guard<std::mutex> lock(memo_mu);
    auto it = memo.find(name);
    if (it != memo.end()) return it->second;
  }

  // The three configurations fan through the runner's thread pool; they
  // share one context, so schedule + register binding are computed once.
  flow::BinderSpec lopass{"lopass"};
  flow::BinderSpec half{"hlpower"};
  half.alpha = 0.5;
  flow::BinderSpec one{"hlpower"};
  one.alpha = 1.0;
  const std::vector<flow::Job> jobs = {job(name, lopass), job(name, half),
                                       job(name, one)};
  const auto results = runner().run(jobs);
  Comparison cmp;
  for (std::size_t i = 0; i < results.size(); ++i)
    HLP_CHECK(results[i].ok, "job '" << name << "' #" << i << " failed: "
                                     << results[i].error);
  cmp.lopass = to_evaluated(results[0].outcome);
  cmp.hlp_half = to_evaluated(results[1].outcome);
  cmp.hlp_one = to_evaluated(results[2].outcome);

  std::lock_guard<std::mutex> lock(memo_mu);
  return memo.emplace(name, std::move(cmp)).first->second;
}

double pct(double a, double b) { return a == 0.0 ? 0.0 : 100.0 * (b - a) / a; }

SeedSweepReport seed_sweep(const std::string& name,
                           const flow::BinderSpec& spec, int num_seeds) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(num_seeds);
  for (int s = 0; s < num_seeds; ++s) seeds.push_back(100 + s);
  const auto jobs =
      flow::ExperimentRunner::grid({name}, {spec}, seeds, {}, job(name, spec));

  SeedSweepReport rep;
  rep.benchmark = name;
  rep.num_seeds = num_seeds;

  // Both runners are single-threaded so the measurement isolates the
  // coalescing effect itself (thread scheduling held equal; HLP_JOBS
  // scaling is the orthogonal axis, exercised by the grids above).
  // Coalesced first: the independent runner then inherits a warm SA cache,
  // so any bias in the shared state favours the path we compare AGAINST.
  flow::ExperimentRunner coalesced(1, {}, &sa_cache());
  coalesced.set_coalescing(true);
  auto t0 = Clock::now();
  const auto batched = coalesced.run(jobs);
  rep.coalesced_s = std::chrono::duration<double>(Clock::now() - t0).count();

  flow::ExperimentRunner independent(1, {}, &sa_cache());
  independent.set_coalescing(false);
  t0 = Clock::now();
  const auto solo = independent.run(jobs);
  rep.independent_s = std::chrono::duration<double>(Clock::now() - t0).count();

  rep.identical = batched.size() == solo.size();
  for (std::size_t i = 0; rep.identical && i < batched.size(); ++i) {
    const auto& a = batched[i];
    const auto& b = solo[i];
    rep.identical =
        a.ok && b.ok && a.job.seed == b.job.seed &&
        a.outcome.fus.fu_of_op == b.outcome.fus.fu_of_op &&
        a.outcome.flow.sim.toggles == b.outcome.flow.sim.toggles &&
        a.outcome.flow.sim.functional_transitions ==
            b.outcome.flow.sim.functional_transitions &&
        a.outcome.flow.report.dynamic_power_mw ==
            b.outcome.flow.report.dynamic_power_mw;
  }
  return rep;
}

void print_seed_sweep(std::ostream& os,
                      const std::vector<std::string>& benchmarks,
                      int num_seeds) {
  AsciiTable t({"Benchmark", "seeds", "independent (ms)", "coalesced (ms)",
                "speedup", "identical"});
  double total_solo = 0.0, total_batched = 0.0;
  for (const auto& name : benchmarks) {
    const SeedSweepReport rep =
        seed_sweep(name, flow::BinderSpec{"hlpower"}, num_seeds);
    total_solo += rep.independent_s;
    total_batched += rep.coalesced_s;
    t.row()
        .add(rep.benchmark)
        .add(rep.num_seeds)
        .add(rep.independent_s * 1e3, 1)
        .add(rep.coalesced_s * 1e3, 1)
        .add(rep.speedup(), 1)
        .add(rep.identical ? "yes" : "NO");
  }
  // Name the active word width + dispatch choice so the artifact stays
  // interpretable across machines (auto resolves per CPU and per group
  // size).
  const SimdMode active = effective_simd_mode(
      SimdMode::kAuto, static_cast<std::size_t>(num_seeds));
  os << "Seed-parallel batching: " << num_seeds
     << "-seed Monte-Carlo sweep per binding, coalesced ("
     << simd_lanes(active) << " seeds/word, auto -> "
     << simd_mode_name(active)
     << ") vs independent pipelines (single-threaded, controlled)\n";
  t.print(os);
  os << "Overall speedup: "
     << fmt_fixed(total_batched > 0.0 ? total_solo / total_batched : 0.0, 1)
     << "x\n\n";
}

WorkerSweepReport worker_sweep(const std::string& name,
                               const flow::BinderSpec& spec, int num_seeds,
                               int parallelism) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(num_seeds);
  for (int s = 0; s < num_seeds; ++s) seeds.push_back(100 + s);
  const auto jobs =
      flow::ExperimentRunner::grid({name}, {spec}, seeds, {}, job(name, spec));

  WorkerSweepReport rep;
  rep.benchmark = name;
  rep.num_seeds = num_seeds;
  rep.parallelism = parallelism;

  // Both sides are cold and private (NOT the process-wide sa_cache()):
  // the threaded runner would otherwise inherit a warm table no fresh
  // worker process can have, biasing the axis under measurement.
  flow::ExperimentRunner threaded(parallelism);
  auto t0 = Clock::now();
  const auto in_process = threaded.run(jobs);
  rep.threads_s = std::chrono::duration<double>(Clock::now() - t0).count();

  flow::DistributedRunner dist(parallelism, /*threads_per_worker=*/1);
  t0 = Clock::now();
  const auto sharded = dist.run(jobs);
  rep.workers_s = std::chrono::duration<double>(Clock::now() - t0).count();

  rep.identical = in_process.size() == sharded.size();
  for (std::size_t i = 0; rep.identical && i < sharded.size(); ++i)
    rep.identical = in_process[i].ok &&
                    flow::same_outcome(in_process[i], sharded[i]);
  return rep;
}

void print_worker_sweep(std::ostream& os,
                        const std::vector<std::string>& benchmarks,
                        int num_seeds, int parallelism) {
  if (parallelism <= 0) parallelism = flow::workers_from_env(2);
  os << "Workers vs threads: " << num_seeds
     << "-seed Monte-Carlo sweep per benchmark, " << parallelism
     << " worker processes (hlp_worker fork/exec, SA shards merged) vs "
     << parallelism << " in-process threads (both cold, coalescing on)\n";
  AsciiTable t({"Benchmark", "seeds", "threads (ms)", "workers (ms)",
                "threads/workers", "identical"});
  for (const auto& name : benchmarks) {
    WorkerSweepReport rep;
    try {
      rep = worker_sweep(name, flow::BinderSpec{"hlpower"}, num_seeds,
                         parallelism);
    } catch (const std::exception& e) {
      // Typically: hlp_worker not built / not next to this binary. Keep
      // the rows already measured — a partial table beats a dropped one.
      os << "  (remaining benchmarks skipped: " << e.what() << ")\n";
      break;
    }
    t.row()
        .add(rep.benchmark)
        .add(rep.num_seeds)
        .add(rep.threads_s * 1e3, 1)
        .add(rep.workers_s * 1e3, 1)
        .add(rep.ratio(), 2)
        .add(rep.identical ? "yes" : "NO");
  }
  t.print(os);
  os << "(ratio > 1: processes beat threads on this grid; worker spawn + "
        "unit-frame I/O is the fixed cost, per-process SA tables the "
        "variable one)\n\n";
}

StoreSweepReport store_sweep(const std::string& name,
                             const flow::BinderSpec& spec, int num_seeds) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(num_seeds);
  for (int s = 0; s < num_seeds; ++s) seeds.push_back(100 + s);
  const auto jobs =
      flow::ExperimentRunner::grid({name}, {spec}, seeds, {}, job(name, spec));

  // A fresh store per sweep, in the system temp dir (pid-qualified so
  // concurrent bench invocations cannot collide), removed afterwards.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("hlp-store-sweep-" + std::to_string(::getpid()) + "-" + name))
          .string();
  std::filesystem::remove_all(dir);

  StoreSweepReport rep;
  rep.benchmark = name;
  rep.num_seeds = num_seeds;

  // Every job of a coalesced group carries a copy of the group's shared
  // stage ledger, so weight each copy by 1/group_size to recover the
  // actual once-per-invocation stage seconds.
  const auto span_seconds = [](const std::vector<flow::JobResult>& results) {
    double total = 0.0;
    for (const auto& r : results)
      for (const auto& t : r.outcome.timings)
        if (t.name == "bind-fus" || t.name == "refine" ||
            t.name == "elaborate" || t.name == "map" || t.name == "time")
          total += t.seconds / static_cast<double>(std::max<std::size_t>(
                                   r.group_size, 1));
    return total;
  };

  // Single-threaded with private cold SA caches on both sides: the store
  // directory is the ONLY state cold hands to warm, so the warm column
  // measures exactly what persistence buys a process restart.
  flow::ExperimentRunner cold(1);
  cold.set_store_dir(dir);
  auto t0 = Clock::now();
  const auto first = cold.run(jobs);
  rep.cold_s = std::chrono::duration<double>(Clock::now() - t0).count();
  rep.span_cold_s = span_seconds(first);

  flow::ExperimentRunner warm(1);
  warm.set_store_dir(dir);
  t0 = Clock::now();
  const auto second = warm.run(jobs);
  rep.warm_s = std::chrono::duration<double>(Clock::now() - t0).count();
  rep.span_warm_s = span_seconds(second);

  rep.identical = first.size() == second.size();
  rep.warm_cached = rep.identical;
  for (std::size_t i = 0; rep.identical && i < first.size(); ++i) {
    rep.identical = first[i].ok && second[i].ok &&
                    flow::same_outcome(first[i], second[i]);
    rep.warm_cached =
        rep.warm_cached && !second[i].outcome.cached_stages.empty();
  }
  std::filesystem::remove_all(dir);
  return rep;
}

void print_store_sweep(std::ostream& os,
                       const std::vector<std::string>& benchmarks,
                       int num_seeds) {
  AsciiTable t({"Benchmark", "seeds", "cold (ms)", "warm (ms)", "speedup",
                "span cold (ms)", "span warm (ms)", "identical", "cached"});
  for (const auto& name : benchmarks) {
    const StoreSweepReport rep =
        store_sweep(name, flow::BinderSpec{"hlpower"}, num_seeds);
    t.row()
        .add(rep.benchmark)
        .add(rep.num_seeds)
        .add(rep.cold_s * 1e3, 1)
        .add(rep.warm_s * 1e3, 1)
        .add(rep.speedup(), 2)
        .add(rep.span_cold_s * 1e3, 1)
        .add(rep.span_warm_s * 1e3, 1)
        .add(rep.identical ? "yes" : "NO")
        .add(rep.warm_cached ? "yes" : "NO");
  }
  os << "Artifact store: " << num_seeds
     << "-seed sweep per binding, cold populate vs warm restart against "
        "one HLP_STORE directory (fresh runners, private SA caches; the "
        "store is the only shared state — 'identical' and 'cached' must "
        "be yes)\n";
  t.print(os);
  os << "(span = bind-fus..time stage seconds the store persists; the "
        "warm span is the disk-probe cost that replaces recomputation)\n\n";
}

void print_explore_sweep(std::ostream& os,
                         const std::vector<std::string>& benchmarks,
                         int num_seeds) {
  // Base grid: every benchmark under the headline binder across the seed
  // sweep, at the bench width/vector budget.
  std::vector<std::uint64_t> seeds;
  seeds.reserve(num_seeds);
  for (int s = 0; s < num_seeds; ++s) seeds.push_back(100 + s);
  std::vector<flow::Job> grid;
  for (const auto& name : benchmarks) {
    const flow::BinderSpec spec{"hlpower"};
    const auto rows =
        flow::ExperimentRunner::grid({name}, {spec}, seeds, {}, job(name, spec));
    grid.insert(grid.end(), rows.begin(), rows.end());
  }

  // One store shared by both walks, pid-qualified like store_sweep so
  // concurrent bench invocations cannot collide, removed afterwards.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("hlp-explore-sweep-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  AsciiTable t({"walk", "step", "knobs", "jobs", "spans", "shared", "hits",
                "recomputed", "frontier", "ms"});
  std::vector<explore::ParetoPoint> frontiers[2];
  for (int round = 0; round < 2; ++round) {
    explore::Explorer ex(grid, dir, 1);
    explore::KnobStep vectors;
    vectors.name = "vectors x2";
    vectors.num_vectors = bench_vectors() * 2;
    explore::KnobStep alpha;
    alpha.name = "alpha=1.0";
    alpha.binder_alpha = 1.0;
    explore::KnobStep sched;
    sched.name = "asap sched";
    sched.scheduler = "asap";
    ex.step(vectors).step(alpha).step(sched);
    const explore::Exploration result = ex.run();
    for (const explore::StepReport& r : result.steps)
      t.row()
          .add(round == 0 ? "cold" : "warm")
          .add(r.name)
          .add(r.axes)
          .add(r.num_jobs)
          .add(r.spans)
          .add(r.spans_shared)
          .add(static_cast<std::size_t>(r.store_hits))
          .add(static_cast<std::size_t>(r.store_publishes))
          .add(r.frontier_size)
          .add(r.seconds * 1e3, 1);
    frontiers[round] = result.frontier;
  }
  std::filesystem::remove_all(dir);

  os << "Incremental exploration: the canonical knob walk (base, more "
        "vectors, binder retune, scheduler switch) over "
     << grid.size() << " jobs, cold then warm against one store directory "
     << "(the warm walk must be all-hits / zero-recompute on every step)\n";
  t.print(os);
  os << "(frontiers bit-identical across the two walks: "
     << (frontiers[0] == frontiers[1] ? "yes" : "NO") << "; "
     << frontiers[0].size() << " Pareto points)\n\n";
}

}  // namespace hlp::bench
