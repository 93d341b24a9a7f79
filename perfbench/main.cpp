// hlp_perfbench — the repository benchmark binary. It runs the library
// from outside, through its public API, on three workloads:
//
//   cold_grid  7 paper designs x {lopass, hlpower a=0.5}, schedule-minimum
//              allocation; every repetition is a fresh process against a
//              fresh, empty artifact store (the first-run path).
//   mc_sweep   512-seed coalesced Monte-Carlo sweep of hlpower a=0.5 on
//              wang and steam, Table 2 allocation, SA table and StageCache
//              warmed in set-up (pure simulation).
//   warm_grid  7 designs x {lopass, hlpower a in {0,.25,.5,.75,1}} read
//              back from an artifact store by a fresh 2-worker
//              DistributedRunner per repetition (the store read side and
//              the worker protocol).
//
// Usage (perfbench/run.py builds the binary and passes these):
//
//   hlp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work <dir> --expected <dir> [--write-expected]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Earlier lines carry the machine fingerprint and a
// human-readable summary. Any failed job or mismatching output makes the
// exit status nonzero.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cdfg/benchmarks.hpp"
#include "flow/dispatch_mode.hpp"
#include "flow/distributed.hpp"
#include "flow/experiment.hpp"
#include "flow/job_io.hpp"
#include "mapper/techmap.hpp"
#include "perfbench.hpp"
#include "power/activity.hpp"
#include "rtl/partial_datapath.hpp"
#include "sim/simd_mode.hpp"
#include "store/artifact_store.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using hlp::flow::BinderSpec;
using hlp::flow::DistributedRunner;
using hlp::flow::ExperimentRunner;
using hlp::flow::Job;
using hlp::flow::JobResult;
using Clock = std::chrono::steady_clock;
using perfbench::Trace;

// The seed picks every stimulus seed. All workloads keep the library's
// default CDFGs: DistributedRunner workers cannot carry a graph provider,
// and seed-picked CDFGs made each workload's cost and quality of result
// move from seed to seed by more than run-to-run noise (mc_sweep
// throughput by 20%), which would hide regressions.
constexpr int kWidth = 8;
constexpr int kVectors = 200;
constexpr int kThreads = 2;  // runner threads, or worker processes
constexpr int kSetupReps = 2;
constexpr int kMinReps = 2;
constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::size_t kSweepSeeds = 512;
constexpr std::size_t kQualitySeeds = 64;  // mc_sweep lopass reference
constexpr std::size_t kScalarChecks = 2;   // mc_sweep seeds per design
constexpr std::size_t kExpectedSweepSeeds = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// steady_clock is CLOCK_MONOTONIC, so readings compare across processes.
long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Paces a timed loop: at least kMinReps repetitions, then another only
// while one more, as long as the slowest so far, still fits the budget.
class Pacer {
 public:
  explicit Pacer(double seconds) : budget_(seconds), t0_(Clock::now()) {}
  bool another() const {
    return done_ < kMinReps || seconds_since(t0_) + slowest_ <= budget_;
  }
  void done(double rep_seconds) {
    ++done_;
    slowest_ = std::max(slowest_, rep_seconds);
  }

 private:
  double budget_;
  Clock::time_point t0_;
  int done_ = 0;
  double slowest_ = 0.0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work;
  std::string expected;
  bool write_expected = false;
  // cold_grid child mode: one repetition, key/value report to this file.
  std::string cold_rep;
  long long spawned_at_ns = 0;
};

// ---- outcome bookkeeping ----------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::map<std::string, Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    if (!perfbench::valid_metric_name(name))
      throw std::logic_error("invalid metric name '" + name + "'");
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why, std::size_t count = 1) {
    failed += count;
    std::cerr << "perfbench: FAIL: " << why << "\n";
  }
};

// Samples per name, reduced to medians at the end of a run.
using Samples = std::map<std::string, std::vector<double>>;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- hermetic environment and fingerprint -----------------------------

// Every HLP_* knob (docs/env-vars.md lists twelve) is cleared before the
// library reads any of them; worker processes inherit the cleared
// environment. A stray HLP_STORE or HLP_SA_CACHE would turn cold_grid warm.
std::vector<std::string> clear_hlp_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("HLP_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

void print_fingerprint(const std::vector<std::string>& cleared) {
  std::ostringstream os;
  os << "{\"fingerprint\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? 1 : 0)
     << ", \"avx512f\": " << (__builtin_cpu_supports("avx512f") ? 1 : 0)
     << ", \"avx512vpopcntdq\": "
     << (__builtin_cpu_supports("avx512vpopcntdq") ? 1 : 0)
     << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
     << HLP_PERFBENCH_BUILD_TYPE << "\", \"simd_auto\": \""
     << hlp::simd_mode_name(hlp::effective_simd_mode(hlp::SimdMode::kAuto))
     << "\", \"simd_auto_512_lanes\": \""
     << hlp::simd_mode_name(
            hlp::effective_simd_mode(hlp::SimdMode::kAuto, kSweepSeeds))
     << "\", \"dispatch_auto\": \""
     << hlp::flow::dispatch_mode_name(hlp::flow::resolve_dispatch_mode(
            hlp::flow::effective_dispatch_mode(hlp::flow::DispatchMode::kAuto),
            kThreads))
     << "\", \"hlp_env_cleared\": [";
  for (std::size_t i = 0; i < cleared.size(); ++i)
    os << (i ? ", " : "") << '"' << cleared[i] << '"';
  os << "]}}";
  std::cout << os.str() << "\n";
}

// ---- workload definitions ---------------------------------------------

std::vector<std::string> designs() {
  std::vector<std::string> out;
  for (const auto& p : hlp::paper_benchmarks()) out.push_back(p.name);
  return out;
}

// Table 2 of the paper: adders and multipliers per design.
hlp::ResourceConstraint table2_rc(const std::string& name) {
  static const std::map<std::string, hlp::ResourceConstraint> kRows = {
      {"chem", {9, 7}}, {"dir", {3, 2}},   {"honda", {4, 4}}, {"mcm", {4, 2}},
      {"pr", {2, 2}},   {"steam", {7, 6}}, {"wang", {2, 2}}};
  return kRows.at(name);
}

BinderSpec lopass() { return BinderSpec{"lopass"}; }
BinderSpec hlpower(double alpha) {
  BinderSpec b{"hlpower"};
  b.alpha = alpha;
  return b;
}

Job make_job(const std::string& design, const BinderSpec& binder,
             hlp::ResourceConstraint rc, std::uint64_t seed) {
  Job j;
  j.benchmark = design;
  j.binder = binder;
  j.rc = rc;
  j.width = kWidth;
  j.num_vectors = kVectors;
  j.seed = seed;
  return j;
}

std::vector<Job> cold_grid_jobs(std::uint64_t seed) {
  std::vector<Job> jobs;
  for (const std::string& d : designs())
    for (const BinderSpec& b : {lopass(), hlpower(0.5)})
      jobs.push_back(make_job(d, b, {0, 0}, seed));
  return jobs;
}

// Designs with the most operations first: the stream dispatcher hands out
// units in grid order, and a big design at the tail would leave one worker
// idle behind it, so each pass's wall clock would hinge on scheduling luck.
std::vector<Job> warm_grid_jobs(std::uint64_t seed) {
  std::vector<hlp::BenchmarkProfile> profiles = hlp::paper_benchmarks();
  std::stable_sort(profiles.begin(), profiles.end(),
                   [](const auto& a, const auto& b) {
                     return a.num_adds + a.num_mults > b.num_adds + b.num_mults;
                   });
  std::vector<Job> jobs;
  for (const auto& p : profiles) {
    jobs.push_back(make_job(p.name, lopass(), table2_rc(p.name), seed));
    for (const double a : {0.0, 0.25, 0.5, 0.75, 1.0})
      jobs.push_back(make_job(p.name, hlpower(a), table2_rc(p.name), seed));
  }
  return jobs;
}

const std::vector<std::string> kSweepDesigns = {"wang", "steam"};

std::vector<std::uint64_t> sweep_seeds(std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  std::uint64_t x = seed;
  while (out.size() < kSweepSeeds) {  // splitmix64
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    out.push_back(z ^ (z >> 31));
  }
  return out;
}

// ---- result checks ----------------------------------------------------

void check_ok(const std::vector<JobResult>& results, Outcome& o) {
  for (const JobResult& r : results)
    if (!r.ok)
      o.fail("job " + r.job.benchmark + "/" + r.job.binder.name +
             " failed: " + r.error);
}

// Every job must equal the job at the same index of `ref`.
void check_same(const std::vector<JobResult>& got,
                const std::vector<JobResult>& ref, const std::string& what,
                Outcome& o) {
  for (std::size_t i = 0; i < got.size(); ++i)
    if (i >= ref.size() || !hlp::flow::same_outcome(got[i], ref[i]))
      o.fail(what + ": job " + std::to_string(i) + " (" + got[i].job.benchmark +
             "/" + got[i].job.binder.name + ") differs");
}

// At the default seed every selected job must equal the committed results
// file (job_io format). `selected` are grid indices; with write_expected
// the file is (re)written instead.
void check_expected(const Options& opt, const std::string& name,
                    const std::vector<JobResult>& results,
                    const std::vector<std::size_t>& selected, Outcome& o) {
  if (opt.seed != kDefaultSeed) return;
  const std::string path = opt.expected + "/" + name + ".results";
  if (opt.write_expected) {
    std::vector<hlp::flow::ManifestResult> out;
    for (const std::size_t i : selected) out.push_back({i, results[i]});
    hlp::flow::save_results_file(path, out);
    return;
  }
  std::vector<hlp::flow::ManifestResult> want;
  try {
    want = hlp::flow::load_results_file(path);
  } catch (const std::exception& e) {
    o.fail(std::string("expected results unreadable: ") + e.what(),
           selected.size());
    return;
  }
  if (want.size() != selected.size()) o.fail(path + ": wrong record count");
  for (const auto& w : want)
    // Results records carry the grid index, not the job.
    if (w.index >= results.size() ||
        !hlp::flow::same_outcome(results[w.index], w.result))
      o.fail(path + ": job " + std::to_string(w.index) + " differs");
}

// The slowest job's JobResult::seconds (a coalesced group's members all
// carry the group's).
double max_job_seconds(const std::vector<JobResult>& results) {
  double slowest = 0.0;
  for (const JobResult& r : results) slowest = std::max(slowest, r.seconds);
  return slowest;
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

// Mean over designs of 100 x HLPower(alpha 0.5) / LOPASS, for dynamic
// power and LUTs, each side averaged over the seeds it ran. 100 = parity;
// the paper's "% change" is this minus 100.
struct Quality {
  double power_pct = 0.0;
  double lut_pct = 0.0;
};

Quality quality(const std::vector<const JobResult*>& results) {
  struct Side {
    double power = 0.0, luts = 0.0;
    int n = 0;
  };
  std::map<std::string, std::pair<Side, Side>> per_design;  // lopass, hlp
  for (const JobResult* r : results) {
    if (!r->ok) continue;
    const BinderSpec& b = r->job.binder;
    const bool is_lopass = b.name == "lopass";
    if (!is_lopass && !(b.name == "hlpower" && b.alpha == 0.5)) continue;
    auto& sides = per_design[r->job.benchmark];
    Side& s = is_lopass ? sides.first : sides.second;
    s.power += r->outcome.flow.report.dynamic_power_mw;
    s.luts += r->outcome.flow.mapped.num_luts;
    ++s.n;
  }
  Quality q;
  int designs_seen = 0;
  for (const auto& [name, sides] : per_design) {
    const auto& [l, h] = sides;
    if (l.n == 0 || h.n == 0) continue;
    q.power_pct += 100.0 * (h.power / h.n) / (l.power / l.n);
    q.lut_pct += 100.0 * (h.luts / h.n) / (l.luts / l.n);
    ++designs_seen;
  }
  if (designs_seen > 0) {
    q.power_pct /= designs_seen;
    q.lut_pct /= designs_seen;
  }
  return q;
}

std::vector<const JobResult*> pointers(const std::vector<JobResult>& v) {
  std::vector<const JobResult*> out;
  for (const JobResult& r : v) out.push_back(&r);
  return out;
}

// ---- per-layer accounting ---------------------------------------------

// Flow-layer metrics of one pass over a grid, from its
// invocation-deduplicated totals.
void add_flow_metrics(Samples& s, const perfbench::InvocationTotals& t,
                      double wall_s, int parallelism) {
  static const std::map<std::string, std::string> kStages = {
      {"schedule", "flow.schedule_s"},   {"bind-regs", "flow.bind_regs_s"},
      {"bind-fus", "flow.bind_fus_s"},   {"refine", "flow.refine_s"},
      {"elaborate", "flow.elaborate_s"}, {"map", "flow.map_s"},
      {"time", "flow.time_s"},           {"simulate", "flow.simulate_s"},
      {"power", "flow.power_s"}};
  for (const auto& [stage, metric] : kStages) {
    const auto it = t.stage_s.find(stage);
    s[metric].push_back(it == t.stage_s.end() ? 0.0 : it->second);
  }
  s["flow.invocation_s"].push_back(t.seconds);
  s["flow.unattributed_s"].push_back(t.seconds - t.stage_total());
  s["flow.invocations"].push_back(static_cast<double>(t.invocations));
  s["flow.jobs_per_invocation"].push_back(
      t.invocations ? static_cast<double>(t.jobs) / t.invocations : 0.0);
  s["flow.busy_ratio"].push_back(t.seconds / (wall_s * parallelism));
  s["flow.stage_cache_hit_ratio"].push_back(
      t.invocations ? static_cast<double>(t.cached) / t.invocations : 0.0);
  const auto sim = t.stage_s.find("simulate");
  s["sim.lut_evals_per_s"].push_back(
      sim != t.stage_s.end() && sim->second > 0.0 ? t.lut_evals / sim->second
                                                  : 0.0);
  s["lopass.bind_s"].push_back(t.lopass_bind_s);
  // HLPower's own binding time; cold_grid subtracts the replayed SA fill.
  s["core.bind_self_s"].push_back(t.hlpower_bind_s);
}

struct LayerUnits {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order.
const std::vector<LayerUnits>& layer_metrics() {
  static const std::vector<LayerUnits> kAll = {
      {"flow.schedule_s", "s"},
      {"flow.bind_regs_s", "s"},
      {"flow.bind_fus_s", "s"},
      {"flow.refine_s", "s"},
      {"flow.elaborate_s", "s"},
      {"flow.map_s", "s"},
      {"flow.time_s", "s"},
      {"flow.simulate_s", "s"},
      {"flow.power_s", "s"},
      {"flow.unattributed_s", "s"},
      {"flow.invocation_s", "s"},
      {"flow.invocations", "count"},
      {"flow.jobs_per_invocation", "count"},
      {"flow.busy_ratio", "ratio"},
      {"flow.stage_cache_hit_ratio", "ratio"},
      {"sa.misses", "count"},
      {"sa.fill_s", "s"},
      {"rtl.partial_datapath_s", "s"},
      {"mapper.sa_map_s", "s"},
      {"mapper.sa_luts", "count"},
      {"power.estimate_s", "s"},
      {"core.bind_self_s", "s"},
      {"lopass.bind_s", "s"},
      {"sim.lut_evals_per_s", "1/s"},
      {"sim.simd_lanes", "count"},
      {"store.hits", "count"},
      {"store.misses", "count"},
      {"store.publishes", "count"},
      {"store.rejected", "count"},
      {"store.read_s", "s"},
      {"store.read_mb", "MB"},
      {"store.publish_s", "s"},
      {"dist.overhead_s", "s"},
      {"dist.frame_s", "s"},
      {"dist.frame_mb", "MB"},
      {"trace.jobs_per_s", "jobs/s"},
  };
  return kAll;
}

// Replays the SA-table fill on exactly the keys `cache` holds (all misses
// of a cold run): partial datapath -> tech_map -> estimate_activity, each
// under its own span, checking every replayed value against the table.
void replay_sa_fill(hlp::SaCache& cache, Trace& trace, Samples& s,
                    Outcome& o) {
  std::stringstream table;
  cache.save(table);
  double luts = 0.0;
  {
    Trace::Scope fill(trace, "sa.fill");
    std::string line;
    while (std::getline(table, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string kind_name, sa_text;
      int a = 0, b = 0;
      ls >> kind_name >> a >> b >> sa_text;
      hlp::OpKind kind = hlp::OpKind::kAdd;
      for (int k = 0; k < hlp::kNumOpKinds; ++k)
        if (kind_name == hlp::to_string(static_cast<hlp::OpKind>(k)))
          kind = static_cast<hlp::OpKind>(k);
      hlp::Netlist dp("dp");
      {
        Trace::Scope span(trace, "rtl.partial_datapath");
        dp = hlp::make_partial_datapath(kind, a, b, cache.width());
      }
      hlp::MapResult mapped;
      {
        Trace::Scope span(trace, "mapper.sa_map");
        mapped = hlp::tech_map(dp, hlp::MapParams{});
      }
      luts += mapped.num_luts;
      double sa = 0.0;
      {
        Trace::Scope span(trace, "power.estimate");
        sa = hlp::estimate_activity(mapped.lut_netlist).total_sa;
      }
      if (sa != std::strtod(sa_text.c_str(), nullptr))
        o.fail("SA replay of " + line + " gave a different value");
    }
  }
  s["sa.fill_s"].push_back(trace.total("sa.fill"));
  s["rtl.partial_datapath_s"].push_back(trace.total("rtl.partial_datapath"));
  s["mapper.sa_map_s"].push_back(trace.total("mapper.sa_map"));
  s["power.estimate_s"].push_back(trace.total("power.estimate"));
  s["mapper.sa_luts"].push_back(luts);
}

// Timed ArtifactStore::find through a fresh handle over every job's key,
// then timed publish of the found entries into a scratch store. Returns
// the reading handle's hit count.
double replay_store(const std::string& store_dir, const std::vector<Job>& jobs,
                    ExperimentRunner& keyer, const std::string& scratch,
                    Trace& trace, Samples& s) {
  using Entry = hlp::store::ArtifactStore::Entry;
  hlp::store::ArtifactStore reader(store_dir);
  std::vector<std::pair<hlp::store::ArtifactKey, std::shared_ptr<const Entry>>>
      found;
  double bytes = 0.0;
  for (const Job& job : jobs) {
    const hlp::store::ArtifactKey key = keyer.artifact_key_for(job);
    std::shared_ptr<const Entry> entry;
    {
      Trace::Scope span(trace, "store.read");
      entry = reader.find(key);
    }
    if (!entry) continue;
    bytes += static_cast<double>(fs::file_size(reader.object_path(key)));
    found.emplace_back(key, entry);
  }
  {
    hlp::store::ArtifactStore writer(scratch);
    for (const auto& [key, entry] : found) {
      Trace::Scope span(trace, "store.publish");
      writer.publish(key, *entry);
    }
  }
  s["store.read_s"].push_back(trace.total("store.read"));
  s["store.read_mb"].push_back(bytes / 1e6);
  s["store.publish_s"].push_back(trace.total("store.publish"));
  return static_cast<double>(reader.hits());
}

// ---- cold_grid: one repetition per fresh process ----------------------

// Child side: runs the grid once and writes "key value" lines.
int cold_rep(const Options& opt) {
  Trace trace(opt.trace);
  Outcome o;
  Samples s;
  const std::string store_dir = opt.work + "/store";
  ExperimentRunner runner(kThreads);
  runner.set_store_dir(store_dir);
  runner.artifact_store();
  const std::vector<Job> jobs = cold_grid_jobs(opt.seed);
  const auto units = hlp::flow::plan_units(jobs, runner.coalescing());
  // The seven design contexts (CDFG, schedule, register binding) are
  // built in set-up; the timed part is binding through power.
  for (const Job& job : jobs) runner.context_for(job).regs();
  s["setup_s"].push_back((now_ns() - opt.spawned_at_ns) * 1e-9);

  std::vector<JobResult> results;
  const auto t0 = Clock::now();
  {
    Trace::Scope span(trace, "flow");
    results = runner.run(jobs);
  }
  const double wall = seconds_since(t0);
  s["peak_rss_mb"].push_back(peak_rss_mb());
  s["jobs_per_s"].push_back(results.size() / wall);
  s["trace.jobs_per_s"].push_back(results.size() / wall);
  s["job_max_s"].push_back(max_job_seconds(results));

  o.attempted = jobs.size();
  check_ok(results, o);
  check_expected(opt, "cold_grid", results, all_indices(results.size()), o);
  const Quality q = quality(pointers(results));
  s["power_vs_lopass_pct"].push_back(q.power_pct);
  s["luts_vs_lopass_pct"].push_back(q.lut_pct);

  hlp::SaCache& sa = runner.sa_cache(kWidth);
  s["sa.misses"].push_back(static_cast<double>(sa.misses()));
  hlp::store::ArtifactStore& store = *runner.artifact_store();
  s["store.hits"].push_back(static_cast<double>(store.hits()));
  s["store.misses"].push_back(static_cast<double>(store.misses()));
  s["store.publishes"].push_back(static_cast<double>(store.publishes()));
  s["store.rejected"].push_back(static_cast<double>(store.rejected()));

  if (opt.trace) {
    const perfbench::InvocationTotals t =
        perfbench::dedupe_invocations(units, results);
    add_flow_metrics(s, t, wall, kThreads);
    s["sim.simd_lanes"].push_back(hlp::simd_lanes(
        hlp::effective_simd_mode(hlp::SimdMode::kAuto, kVectors)));
    replay_sa_fill(sa, trace, s, o);
    s["core.bind_self_s"] = {t.hlpower_bind_s - trace.total("sa.fill")};
    replay_store(store_dir, jobs, runner, opt.work + "/publish", trace, s);
  }

  std::ofstream out(opt.cold_rep);
  out.precision(17);
  for (const auto& [name, values] : s)
    for (const double v : values) out << name << " " << v << "\n";
  out << "attempted " << o.attempted << "\nfailed " << o.failed << "\n";
  return out.good() ? 0 : 1;
}

// Run this binary again as a cold_grid child; returns its exit status.
int spawn_cold_rep(const Options& opt, const std::string& dir,
                   const std::string& report) {
  std::vector<std::string> args = {
      "/proc/self/exe", "--cold-rep",   report,
      "--seed",         std::to_string(opt.seed),
      "--trace",        opt.trace ? "1" : "0",
      "--work",         dir,
      "--expected",     opt.expected,
      "--spawned-at",   std::to_string(now_ns())};
  if (opt.write_expected) args.push_back("--write-expected");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

Outcome cold_grid(const Options& opt, Samples& s) {
  Outcome o;
  Pacer pacer(opt.seconds);
  for (int rep = 0; pacer.another(); ++rep) {
    const auto t_rep = Clock::now();
    const std::string dir = opt.work + "/rep" + std::to_string(rep);
    fs::create_directories(dir);
    const std::string report = dir + "/report.txt";
    const int status = spawn_cold_rep(opt, dir, report);
    std::ifstream in(report);
    if (status != 0 || !in) {
      o.attempted += cold_grid_jobs(opt.seed).size();
      o.fail("cold_grid repetition exited with status " +
                 std::to_string(status),
             cold_grid_jobs(opt.seed).size());
      fs::remove_all(dir);
      break;
    }
    std::string name;
    double value = 0.0;
    while (in >> name >> value) {
      if (name == "attempted") o.attempted += static_cast<std::size_t>(value);
      else if (name == "failed") o.failed += static_cast<std::size_t>(value);
      else s[name].push_back(value);
    }
    fs::remove_all(dir);
    pacer.done(seconds_since(t_rep));
  }
  // Coldness: every repetition starts from nothing, so every one misses
  // the same SA keys.
  const auto& m = s["sa.misses"];
  for (const double v : m)
    if (v != m.front()) o.fail("sa.misses differs between cold repetitions");
  if (!m.empty() && m.front() == 0.0) o.fail("cold_grid saw no SA misses");
  return o;
}

// ---- mc_sweep ---------------------------------------------------------

Outcome mc_sweep(const Options& opt, Samples& s, Trace& trace) {
  Outcome o;
  const std::vector<std::uint64_t> seeds = sweep_seeds(opt.seed);
  std::vector<Job> sweep, warmup, reference;
  for (const std::string& d : kSweepDesigns) {
    for (const std::uint64_t seed : seeds)
      sweep.push_back(make_job(d, hlpower(0.5), table2_rc(d), seed));
    warmup.push_back(make_job(d, hlpower(0.5), table2_rc(d), seeds[0]));
    for (std::size_t i = 0; i < kQualitySeeds; ++i)
      reference.push_back(make_job(d, lopass(), table2_rc(d), seeds[i]));
  }

  // Set-up: a fresh runner whose warm-up pass fills the SA table and the
  // StageCache, plus the LOPASS reference for the quality metrics.
  std::unique_ptr<ExperimentRunner> runner;
  std::vector<JobResult> ref;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    runner = std::make_unique<ExperimentRunner>(kThreads);
    const auto warm = runner->run(warmup);
    ref = runner->run(reference);
    s["setup_s"].push_back(seconds_since(t0));
    if (rep == 0) {
      o.attempted += warm.size() + ref.size();
      check_ok(warm, o);
      check_ok(ref, o);
    }
  }

  const auto units = hlp::flow::plan_units(sweep, runner->coalescing());
  hlp::SaCache& sa = runner->sa_cache(kWidth);
  std::vector<JobResult> first;
  Pacer pacer(opt.seconds);
  while (pacer.another()) {
    const std::uint64_t misses0 = sa.misses();
    std::vector<JobResult> results;
    const auto t0 = Clock::now();
    {
      Trace::Scope span(trace, "flow");
      results = runner->run(sweep);
    }
    const double wall = seconds_since(t0);
    pacer.done(wall);
    o.attempted += results.size();
    check_ok(results, o);
    s["jobs_per_s"].push_back(results.size() / wall);
    s["trace.jobs_per_s"].push_back(results.size() / wall);
    const perfbench::InvocationTotals t =
        perfbench::dedupe_invocations(units, results);
    s["job_max_s"].push_back(max_job_seconds(results));
    s["sa.misses"].push_back(static_cast<double>(sa.misses() - misses0));
    if (opt.trace) add_flow_metrics(s, t, wall, kThreads);
    if (first.empty()) {
      // same_outcome ignores the mapped netlist; drop the 512 copies.
      for (JobResult& r : results) r.outcome.flow.mapped.lut_netlist = hlp::Netlist();
      first = std::move(results);
    } else
      check_same(results, first, "mc_sweep pass vs first pass", o);
  }
  s["peak_rss_mb"].push_back(peak_rss_mb());

  // Cross-check a few seeds against the scalar reference simulator.
  std::vector<Job> scalar;
  std::vector<JobResult> batched;
  for (std::size_t d = 0; d < kSweepDesigns.size(); ++d)
    for (std::size_t i = 0; i < kScalarChecks; ++i) {
      Job j = sweep[d * kSweepSeeds + i];
      j.sim_engine = hlp::SimEngine::kScalar;
      scalar.push_back(j);
      batched.push_back(first[d * kSweepSeeds + i]);
    }
  {
    Trace::Scope span(trace, "sim.scalar_check");
    const auto got = runner->run(scalar);
    o.attempted += got.size();
    check_ok(got, o);
    check_same(got, batched, "mc_sweep scalar vs batched", o);
  }

  std::vector<std::size_t> selected;
  for (std::size_t d = 0; d < kSweepDesigns.size(); ++d)
    for (std::size_t i = 0; i < kExpectedSweepSeeds; ++i)
      selected.push_back(d * kSweepSeeds + i);
  check_expected(opt, "mc_sweep", first, selected, o);

  std::vector<const JobResult*> q = pointers(ref);
  for (std::size_t d = 0; d < kSweepDesigns.size(); ++d)
    for (std::size_t i = 0; i < kQualitySeeds; ++i)
      q.push_back(&first[d * kSweepSeeds + i]);
  const Quality qual = quality(q);
  s["power_vs_lopass_pct"].push_back(qual.power_pct);
  s["luts_vs_lopass_pct"].push_back(qual.lut_pct);

  if (opt.trace) {
    s["sim.simd_lanes"].push_back(hlp::simd_lanes(
        hlp::effective_simd_mode(hlp::SimdMode::kAuto, kSweepSeeds)));
  }
  return o;
}

// ---- warm_grid --------------------------------------------------------

Outcome warm_grid(const Options& opt, Samples& s, Trace& trace) {
  Outcome o;
  const std::vector<Job> jobs = warm_grid_jobs(opt.seed);
  const std::string worker = HLP_PERFBENCH_WORKER;
  if (access(worker.c_str(), X_OK) != 0) {
    o.attempted = jobs.size();
    o.fail("worker binary '" + worker + "' is missing", jobs.size());
    return o;
  }

  // Set-up: a cold threaded run populates a fresh store; its results are
  // the reference every distributed pass must reproduce.
  std::string store_dir;
  std::vector<JobResult> ref;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    if (!store_dir.empty()) fs::remove_all(store_dir);
    store_dir = opt.work + "/store" + std::to_string(rep);
    ExperimentRunner runner(kThreads);
    runner.set_store_dir(store_dir);
    ref = runner.run(jobs);
    s["setup_s"].push_back(seconds_since(t0));
    if (rep == 0) {
      o.attempted += ref.size();
      check_ok(ref, o);
      check_expected(opt, "warm_grid", ref, all_indices(ref.size()), o);
    }
  }

  const auto units = hlp::flow::plan_units(jobs, true);
  std::vector<double> dist_walls;
  Pacer pacer(opt.seconds);
  for (int pass = 0; pacer.another(); ++pass) {
    const auto t_pass = Clock::now();
    const std::string dir = opt.work + "/dist" + std::to_string(pass);
    fs::create_directories(dir);
    DistributedRunner dr(kThreads, 1);
    dr.set_worker_binary(worker);
    dr.set_work_dir(dir);
    dr.set_store_dir(store_dir);
    std::vector<JobResult> results;
    const auto t0 = Clock::now();
    {
      Trace::Scope span(trace, "flow/distributed");
      results = dr.run(jobs);
    }
    const double wall = seconds_since(t0);
    pacer.done(seconds_since(t_pass));
    fs::remove_all(dir);
    dist_walls.push_back(wall);
    o.attempted += results.size();
    check_ok(results, o);
    check_same(results, ref, "warm_grid vs set-up cold run", o);
    s["jobs_per_s"].push_back(results.size() / wall);
    s["trace.jobs_per_s"].push_back(results.size() / wall);
    s["job_max_s"].push_back(max_job_seconds(results));
    const perfbench::InvocationTotals t =
        perfbench::dedupe_invocations(units, results);
    if (t.cached != t.invocations)
      o.fail("warm_grid: " + std::to_string(t.invocations - t.cached) +
             " invocations missed the store");
    // SA entries the workers computed come back as merged shards.
    s["sa.misses"].push_back(
        static_cast<double>(dr.local().sa_cache(kWidth).size()));
    if (opt.trace) add_flow_metrics(s, t, wall, kThreads);
  }
  s["peak_rss_mb"].push_back(peak_rss_mb());
  const Quality q = quality(pointers(ref));
  s["power_vs_lopass_pct"].push_back(q.power_pct);
  s["luts_vs_lopass_pct"].push_back(q.lut_pct);

  if (opt.trace) {
    s["sim.simd_lanes"].push_back(hlp::simd_lanes(
        hlp::effective_simd_mode(hlp::SimdMode::kAuto, kVectors)));
    // The same grid, parallelism and store through in-process threads.
    ExperimentRunner threaded(kThreads);
    threaded.set_store_dir(store_dir);
    const auto t0 = Clock::now();
    threaded.run(jobs);
    s["dist.overhead_s"].push_back(perfbench::median(dist_walls) -
                                   seconds_since(t0));
    // The timed passes read the store only inside the workers; a fresh
    // handle probing every job's key counts what they found.
    ExperimentRunner keyer(kThreads);
    s["store.hits"].push_back(
        replay_store(store_dir, jobs, keyer, opt.work + "/publish", trace, s));
    // Protocol-v2 frame round trips of the grid's units.
    double bytes = 0.0;
    {
      Trace::Scope span(trace, "job_io.frames");
      for (std::size_t u = 0; u < units.size(); ++u) {
        std::vector<hlp::flow::ManifestJob> req_jobs;
        std::vector<hlp::flow::ManifestResult> res;
        for (const std::size_t i : units[u].members) {
          req_jobs.push_back({i, jobs[i]});
          res.push_back({i, ref[i]});
        }
        std::stringstream req, resp;
        hlp::flow::save_unit_request(req, u, req_jobs);
        hlp::flow::save_unit_response(resp, u, res);
        bytes += static_cast<double>(req.str().size() + resp.str().size());
        hlp::flow::load_unit_request(req);
        hlp::flow::load_unit_response(resp);
      }
    }
    s["dist.frame_s"].push_back(trace.total("job_io.frames"));
    s["dist.frame_mb"].push_back(bytes / 1e6);
  }
  return o;
}

// ---- reporting --------------------------------------------------------

void report(const Options& opt, Outcome& o, const Samples& s) {
  static const std::vector<LayerUnits> kEndToEnd = {
      {"jobs_per_s", "jobs/s"},         {"job_max_s", "s"},
      {"setup_s", "s"},                 {"peak_rss_mb", "MB"},
      {"power_vs_lopass_pct", "%"},     {"luts_vs_lopass_pct", "%"}};
  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << " trace " << opt.trace << "\n";
  for (const LayerUnits& m : opt.trace ? layer_metrics() : kEndToEnd) {
    const auto it = s.find(m.name);
    const std::vector<double> v =
        it == s.end() || it->second.empty() ? std::vector<double>{0.0}
                                            : it->second;
    o.set(m.name, perfbench::median(v), m.unit);
    std::cout << "  " << m.name << " = " << perfbench::median(v) << " "
              << m.unit << "  (" << v.size() << " samples, "
              << perfbench::percentile(v, 0.0) << " .. "
              << perfbench::percentile(v, 1.0) << ")\n";
  }
  const double error_rate =
      o.attempted ? static_cast<double>(o.failed) / o.attempted : 1.0;
  std::cout << "  error_rate = " << error_rate << " ratio (" << o.failed
            << " of " << o.attempted << ")\n";
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (o.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  bool firstm = true;
  for (const auto& [name, m] : o.metrics) {
    js << (firstm ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
    firstm = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--write-expected") {
      opt.write_expected = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--work") opt.work = v;
    else if (a == "--expected") opt.expected = v;
    else if (a == "--cold-rep") opt.cold_rep = v;
    else if (a == "--spawned-at") opt.spawned_at_ns = std::stoll(v);
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (opt.work.empty() || opt.expected.empty())
    throw std::invalid_argument("--work and --expected are required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> cleared = clear_hlp_env();
  try {
    const Options opt = parse_args(argc, argv);
    if (!opt.cold_rep.empty()) return cold_rep(opt);
    print_fingerprint(cleared);
    fs::create_directories(opt.work);
    Trace trace(opt.trace);
    Samples s;
    Outcome o;
    if (opt.workload == "cold_grid") o = cold_grid(opt, s);
    else if (opt.workload == "mc_sweep") o = mc_sweep(opt, s, trace);
    else if (opt.workload == "warm_grid") o = warm_grid(opt, s, trace);
    else throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    // Spans outlive the run's work directory, next to it.
    if (opt.trace)
      trace.write_chrome_json(fs::path(opt.work).parent_path() /
                              ("trace-" + opt.workload + ".json"));
    report(opt, o, s);
    return o.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "hlp_perfbench: " << e.what() << "\n";
    return 2;
  }
}
