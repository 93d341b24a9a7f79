#include "flow/experiment.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ios>
#include <sstream>
#include <thread>

#include "cdfg/benchmarks.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "sim/simd_mode.hpp"
#include "store/artifact_store.hpp"

namespace hlp::flow {

int jobs_from_env(int fallback) { return env_int("HLP_JOBS", fallback); }

bool coalesce_from_env(bool fallback) {
  const char* env = std::getenv("HLP_COALESCE");
  if (!env || *env == '\0') return fallback;
  const std::string v = env;
  HLP_REQUIRE(v == "0" || v == "1",
              "HLP_COALESCE='" << v << "' must be 0 or 1");
  return v == "1";
}

std::string store_dir_from_env(std::string fallback) {
  const char* env = std::getenv("HLP_STORE");
  if (!env || *env == '\0') return fallback;
  return env;
}

namespace {

// Lanes of one coalesced chunk: the word run_batch will pick for a
// `group_size`-seed batch, so chunk boundaries line up with simulator
// words.
std::size_t chunk_lanes_for(const Job& job, std::size_t group_size) {
  if (job.sim_engine != SimEngine::kBatched) return 64;
  return static_cast<std::size_t>(
      simd_lanes(effective_simd_mode(SimdMode::kAuto, group_size)));
}

std::string context_key(const Job& job) {
  std::ostringstream key;
  // The SA mode is keyed RESOLVED: jobs deferring to HLP_SA_MODE and jobs
  // pinning the same mode explicitly share a context (and its SaCache),
  // while different modes — different SA values, different bindings —
  // never do.
  key << job.benchmark << '|' << job.scheduler << '|' << job.rc.adders << 'x'
      << job.rc.multipliers << '|' << job.width << '|' << job.reg_seed << '|'
      << job.sched_spec.min_latency << '|' << job.sched_spec.latency_slack
      << '|' << sa_mode_name(effective_sa_mode(job.sa));
  return key.str();
}

// Everything a job's pipeline invocation depends on EXCEPT the stimulus
// seed: jobs with equal group keys can share one run_batch call. Doubles
// are serialised in hexfloat so distinct knob values never alias.
std::string group_key(const Job& job) {
  std::ostringstream key;
  key << context_key(job) << '|' << job.binder.name << '|' << std::hexfloat
      << job.binder.alpha << '|' << job.binder.beta_add << '|'
      << job.binder.beta_mult << '|' << job.binder.refine << '|'
      << job.num_vectors << '|' << static_cast<int>(job.sim_engine);
  return key.str();
}

RunSpec spec_for(const Job& job) {
  RunSpec spec;
  spec.binder = job.binder;
  spec.num_vectors = job.num_vectors;
  spec.seed = job.seed;
  spec.sim_engine = job.sim_engine;
  spec.sa = job.sa;
  return spec;
}

}  // namespace

std::vector<WorkUnit> plan_units(const std::vector<Job>& jobs, bool coalesce) {
  std::vector<WorkUnit> units;
  if (!coalesce || jobs.size() <= 1) {
    units.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) units.push_back({{i}, 1});
    return units;
  }
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::string, std::size_t> group_of_key;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, inserted] =
        group_of_key.emplace(group_key(jobs[i]), groups.size());
    if (inserted)
      groups.push_back({i});
    else
      groups[it->second].push_back(i);
  }
  for (auto& group : groups) {
    const std::size_t word_lanes =
        chunk_lanes_for(jobs[group.front()], group.size());
    for (std::size_t c0 = 0; c0 < group.size(); c0 += word_lanes) {
      WorkUnit unit;
      unit.group_size = group.size();
      unit.members.assign(
          group.begin() + c0,
          group.begin() + std::min(group.size(), c0 + word_lanes));
      units.push_back(std::move(unit));
    }
  }
  return units;
}

ExperimentRunner::ExperimentRunner(int num_threads, GraphProvider provider,
                                   SaCache* shared_cache)
    : num_threads_(std::max(1, num_threads)),
      provider_(provider ? std::move(provider)
                         : [](const std::string& name) {
                             return make_paper_benchmark(name);
                           }),
      external_cache_(shared_cache),
      coalesce_(coalesce_from_env(true)) {
  store_dir_ = store_dir_from_env("");
  store_from_env_ = !store_dir_.empty();
}

ExperimentRunner::~ExperimentRunner() = default;

void ExperimentRunner::set_result_callback(ResultCallback cb) {
  result_cb_ = std::move(cb);
}

store::ArtifactKey ExperimentRunner::artifact_key_for(const Job& job) {
  FlowContext& ctx = context_for(job);
  const RunSpec spec = spec_for(job);
  store::ArtifactKey key;
  key.scope = ctx.store_scope(context_key(job));
  key.binding = ctx.binding_hash(spec.binder, spec.map, spec.timing);
  // The SA tag exactly as the pipeline head records it: resolved (it
  // changes values).
  key.sa = sa_mode_name(ctx.sa_cache().mode());
  return key;
}

void ExperimentRunner::set_store_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  store_dir_ = std::move(dir);
  store_from_env_ = false;  // explicit wins over the environment
  store_.reset();
}

store::ArtifactStore* ExperimentRunner::ensure_store_locked() {
  if (store_ || store_dir_.empty()) return store_.get();
  try {
    store_ = std::make_unique<store::ArtifactStore>(store_dir_);
  } catch (const std::exception& e) {
    if (store_from_env_)
      HLP_REQUIRE(false, "HLP_STORE='" << store_dir_
                                       << "': cannot open artifact store: "
                                       << e.what());
    HLP_REQUIRE(false, "cannot open artifact store at '" << store_dir_
                                                         << "': " << e.what());
  }
  return store_.get();
}

store::ArtifactStore* ExperimentRunner::artifact_store() {
  std::lock_guard<std::mutex> lock(mu_);
  return ensure_store_locked();
}

SaCache& ExperimentRunner::sa_cache(int width, SaMode mode) {
  if (external_cache_ && external_cache_->width() == width &&
      external_cache_->mode() == mode)
    return *external_cache_;
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = caches_[{width, mode}];
  if (!slot) slot = std::make_unique<SaCache>(width, mode);
  return *slot;
}

SaCache& ExperimentRunner::sa_cache(int width) {
  return sa_cache(width, effective_sa_mode(std::nullopt));
}

FlowContext& ExperimentRunner::context_for(const Job& job) {
  const SaMode mode = effective_sa_mode(job.sa);
  SaCache& cache = sa_cache(job.width, mode);
  const std::string key = context_key(job);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = contexts_[key];
  if (!slot) {
    ContextOptions opt;
    opt.scheduler = job.scheduler;
    opt.sched_spec = job.sched_spec;
    opt.width = job.width;
    opt.reg_seed = job.reg_seed;
    opt.sa_mode = mode;
    slot = std::make_unique<FlowContext>(provider_(job.benchmark), job.rc,
                                         std::move(opt), &cache);
    // Contexts outlive neither the runner nor its store handle, so the
    // raw pointer is safe; the context key doubles as the store scope
    // (plus the CDFG digest the context appends itself).
    if (store::ArtifactStore* store = ensure_store_locked())
      slot->set_artifact_store(store, key);
  }
  return *slot;
}

std::vector<JobResult> ExperimentRunner::run(const std::vector<Job>& jobs) {
  using Clock = std::chrono::steady_clock;
  // Open the store before dispatching anything: a bad HLP_STORE value is
  // one loud configuration error, not a per-job failure times the grid.
  artifact_store();
  std::vector<JobResult> results(jobs.size());

  auto execute = [&](std::size_t i) {
    JobResult& res = results[i];
    res.job = jobs[i];
    const auto t0 = Clock::now();
    try {
      res.outcome = Pipeline::run(context_for(jobs[i]), spec_for(jobs[i]));
      res.ok = true;
    } catch (const std::exception& e) {
      res.error = e.what();
    }
    res.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    if (result_cb_) result_cb_(i, res);
  };

  // Coalesce jobs that differ only in stimulus seed (plan_units: one unit
  // per singleton job or per word-sized chunk of a seed group).
  const std::vector<WorkUnit> units = plan_units(jobs, coalesce_);

  auto execute_unit = [&](const WorkUnit& unit) {
    const std::vector<std::size_t>& members = unit.members;
    if (unit.group_size == 1) {
      execute(members.front());
      return;
    }
    const auto t0 = Clock::now();
    for (const std::size_t i : members) {
      results[i].job = jobs[i];
      results[i].group_size = unit.group_size;
    }
    try {
      std::vector<std::uint64_t> seeds;
      seeds.reserve(members.size());
      for (const std::size_t i : members) seeds.push_back(jobs[i].seed);
      const Job& lead = jobs[members.front()];
      auto outs = Pipeline::run_batch(context_for(lead), spec_for(lead), seeds);
      for (std::size_t k = 0; k < members.size(); ++k) {
        results[members[k]].outcome = std::move(outs[k]);
        results[members[k]].ok = true;
      }
    } catch (const std::exception& e) {
      // The whole chunk shares one pipeline, so its failure is every
      // member's failure.
      for (const std::size_t i : members) results[i].error = e.what();
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    for (const std::size_t i : members) results[i].seconds = secs;
    // Fire only after every member's slot is complete (seconds included),
    // in ascending grid order within the unit.
    if (result_cb_)
      for (const std::size_t i : members) result_cb_(i, results[i]);
  };

  const int workers =
      std::min<std::size_t>(num_threads_, units.size() ? units.size() : 1);
  if (workers <= 1) {
    for (const auto& unit : units) execute_unit(unit);
    return results;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      for (std::size_t u = next.fetch_add(1); u < units.size();
           u = next.fetch_add(1))
        execute_unit(units[u]);
    });
  }
  for (auto& th : pool) th.join();
  return results;
}

std::vector<Job> ExperimentRunner::grid(
    const std::vector<std::string>& benchmarks,
    const std::vector<BinderSpec>& binders,
    const std::vector<std::uint64_t>& seeds,
    const std::vector<ResourceConstraint>& rcs, const Job& base) {
  const std::vector<std::uint64_t> seed_list =
      seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
  const std::vector<ResourceConstraint> rc_list =
      rcs.empty() ? std::vector<ResourceConstraint>{base.rc} : rcs;
  std::vector<Job> jobs;
  jobs.reserve(benchmarks.size() * binders.size() * seed_list.size() *
               rc_list.size());
  for (const auto& bench : benchmarks)
    for (const auto& rc : rc_list)
      for (const auto& binder : binders)
        for (const auto seed : seed_list) {
          Job job = base;
          job.benchmark = bench;
          job.binder = binder;
          job.seed = seed;
          job.rc = rc;
          jobs.push_back(std::move(job));
        }
  return jobs;
}

}  // namespace hlp::flow
