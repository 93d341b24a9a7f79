#include "flow/pipeline.hpp"

#include <algorithm>
#include <chrono>

#include "binding/datapath_stats.hpp"
#include "common/error.hpp"
#include "flow/seed_chunk.hpp"
#include "store/artifact_store.hpp"
#include "netlist/timing.hpp"
#include "sim/levelize.hpp"
#include "sim/vectors.hpp"

namespace hlp::flow {

double PipelineOutcome::stage_seconds(const std::string& name) const {
  for (const auto& t : timings)
    if (t.name == name) return t.seconds;
  return 0.0;
}

std::shared_ptr<const StageCache::Entry> StageCache::find(
    const std::string& key) {
  std::shared_ptr<const Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) entry = it->second;
  }
  ++(entry ? hits_ : misses_);
  return entry;
}

std::shared_ptr<const StageCache::Entry> StageCache::find(
    const std::string& key, const std::string& sa) {
  auto entry = find(key);  // counts the memory hit/miss either way
  if (entry || !store_) return entry;
  entry = store_->find(store::ArtifactKey{store_scope_, key, sa});
  if (entry) {
    ++disk_hits_;
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace(key, entry);
  }
  return entry;
}

void StageCache::insert(const std::string& key, Entry entry) {
  auto holder = std::make_shared<const Entry>(std::move(entry));
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(key, std::move(holder));
}

void StageCache::insert(const std::string& key, const std::string& sa,
                        Entry entry) {
  auto holder = std::make_shared<const Entry>(std::move(entry));
  // Persist first: a publish conflict (two incompatible configurations
  // sharing one store) must surface as this run's error, not after the
  // memory cache already accepted the entry.
  if (store_)
    store_->publish(store::ArtifactKey{store_scope_, key, sa}, *holder);
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(key, std::move(holder));
}

void StageCache::bind_store(store::ArtifactStore* store, std::string scope) {
  std::lock_guard<std::mutex> lock(mu_);
  store_ = store;
  store_scope_ = std::move(scope);
}

std::size_t StageCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void StageCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

namespace {

void stage_schedule(PipelineState& st) { st.schedule = st.ctx.schedule(); }

void stage_bind_regs(PipelineState& st) { st.regs = st.ctx.regs(); }

void stage_bind_fus(PipelineState& st) {
  const BinderFn& binder = binder_registry().at(st.spec.binder.name);
  st.out.fus = binder(st.ctx, st.spec.binder);
}

void stage_refine(PipelineState& st) {
  if (!st.spec.binder.refine) return;
  st.out.refine = refine_ports(st.ctx.cdfg(), st.regs, st.out.fus,
                               st.ctx.sa_cache(),
                               edge_weight_params(st.spec.binder));
  st.out.fus = st.out.refine.fus;
  st.out.refined = true;
}

void stage_elaborate(PipelineState& st) {
  st.datapath =
      elaborate_datapath(st.ctx.cdfg(), st.schedule,
                         Binding{st.regs, st.out.fus},
                         DatapathParams{st.ctx.width()});
  st.out.flow.mux_stats =
      compute_datapath_stats(st.ctx.cdfg(), st.regs, st.out.fus);
}

void stage_map(PipelineState& st) {
  st.out.flow.mapped = tech_map(st.datapath.netlist, st.spec.map);
}

void stage_time(PipelineState& st) {
  // The levelized arrival sweep (levelize.hpp) is bit-identical to
  // clock_period_ns, so StageCache entries and distributed same_outcome
  // comparisons are unaffected by the swap.
  st.out.flow.clock_period_ns =
      levelized_clock_period_ns(st.out.flow.mapped.lut_netlist,
                                st.spec.timing);
}

void stage_simulate(PipelineState& st) {
  // Stimulus identical to run_flow (same seed, same sequence). The word
  // width only matters for the batched engine; every width is
  // bit-identical, so the width picked here cannot change the result,
  // only the wall clock.
  const auto samples =
      random_samples(st.spec.num_vectors, st.ctx.cdfg().num_inputs(),
                     st.ctx.width(), st.spec.seed);
  const auto frames = make_frames(st.datapath, samples);
  // Lanes = consecutive cycles here, so the auto width is sized to the
  // frame count (it is essentially always >= 512 for real vector counts).
  const SimdMode simd =
      st.spec.sim_engine == SimEngine::kBatched
          ? effective_simd_mode(SimdMode::kAuto, frames.size())
          : SimdMode::kU64;
  st.out.flow.sim = simulate_frames(st.out.flow.mapped.lut_netlist, frames,
                                    st.spec.sim_engine, simd);
}

// The span of stages whose artifacts a StageCache entry carries. Stages
// before it are memoised on the context already; stages after it depend on
// the stimulus seed.
bool is_cached_stage(const std::string& name) {
  return name == "bind-fus" || name == "refine" || name == "elaborate" ||
         name == "map" || name == "time";
}

// Install one stage's slice of a cache entry instead of running the stage.
void apply_cached(PipelineState& st, const std::string& name,
                  const StageCache::Entry& e) {
  if (name == "bind-fus") {
    st.out.fus = e.fus;
  } else if (name == "refine") {
    st.out.refine = e.refine;
    st.out.refined = e.refined;
  } else if (name == "elaborate") {
    st.datapath = e.datapath;
    st.out.flow.mux_stats = e.mux_stats;
  } else if (name == "map") {
    st.out.flow.mapped = e.mapped;
  } else if (name == "time") {
    st.out.flow.clock_period_ns = e.clock_period_ns;
  }
}

// Snapshot the bind-fus..time artifacts once the `time` stage has run.
StageCache::Entry capture_entry(const PipelineState& st) {
  StageCache::Entry e;
  e.fus = st.out.fus;
  e.refine = st.out.refine;
  e.refined = st.out.refined;
  e.mux_stats = st.out.flow.mux_stats;
  e.datapath = st.datapath;
  e.mapped = st.out.flow.mapped;
  e.clock_period_ns = st.out.flow.clock_period_ns;
  return e;
}

void stage_power(PipelineState& st) {
  const auto& sim = st.out.flow.sim;
  const double functional_per_cycle =
      sim.num_cycles ? static_cast<double>(sim.functional_transitions) /
                           static_cast<double>(sim.num_cycles)
                     : 0.0;
  st.out.flow.report = power_from_toggles(
      st.out.flow.mapped.lut_netlist, sim.toggles, sim.num_cycles,
      st.out.flow.clock_period_ns, functional_per_cycle, st.spec.power);
}

}  // namespace

const std::vector<std::string>& Pipeline::stage_names() {
  static const std::vector<std::string> kNames = {
      "schedule", "bind-regs", "bind-fus", "refine", "elaborate",
      "map",      "time",      "simulate", "power"};
  return kNames;
}

Pipeline Pipeline::standard() {
  Pipeline p;
  p.stages_ = {{"schedule", stage_schedule}, {"bind-regs", stage_bind_regs},
               {"bind-fus", stage_bind_fus}, {"refine", stage_refine},
               {"elaborate", stage_elaborate}, {"map", stage_map},
               {"time", stage_time},         {"simulate", stage_simulate},
               {"power", stage_power}};
  return p;
}

Pipeline& Pipeline::replace(const std::string& name, StageFn fn) {
  for (auto& stage : stages_) {
    if (stage.name == name) {
      stage.fn = std::move(fn);
      // A custom stage body up to `time` invalidates StageCache reuse: the
      // binding hash only sees the spec, not the override.
      if (name != "simulate" && name != "power") cache_safe_ = false;
      return *this;
    }
  }
  HLP_REQUIRE(false, "pipeline has no stage named '" << name << "'");
}

namespace {

// RunSpec::sa pins the SA backend: a concrete request must match what the
// context's cache actually runs (specs and contexts resolved under
// different HLP_SA_MODE values would silently mix backends otherwise).
void check_sa_pin(FlowContext& ctx, const RunSpec& spec) {
  HLP_REQUIRE(!spec.sa || *spec.sa == ctx.sa_cache().mode(),
              "RunSpec pins SA mode '"
                  << sa_mode_name(*spec.sa) << "' but the context's SaCache "
                  << "runs '" << sa_mode_name(ctx.sa_cache().mode()) << "'");
}

}  // namespace

Pipeline::CacheCursor Pipeline::make_cursor(FlowContext& ctx,
                                            const RunSpec& spec) const {
  CacheCursor cursor;
  cursor.enabled = cache_safe_ && spec.use_stage_cache;
  if (cursor.enabled) {
    cursor.key = ctx.binding_hash(spec.binder, spec.map, spec.timing);
    // The persistent store also checks the SA backend resolved (it
    // changes values).
    cursor.sa = sa_mode_name(ctx.sa_cache().mode());
  }
  return cursor;
}

void Pipeline::run_stage(PipelineState& st, const Stage& stage,
                         CacheCursor& cursor) const {
  using Clock = std::chrono::steady_clock;
  const bool cacheable = cursor.enabled && is_cached_stage(stage.name);
  if (cacheable && !cursor.probed) {
    cursor.probed = true;  // one hit/miss per run, probed at bind-fus
    cursor.hit = st.ctx.stage_cache().find(cursor.key, cursor.sa);
  }
  const auto t0 = Clock::now();
  if (cacheable && cursor.hit) {
    apply_cached(st, stage.name, *cursor.hit);
    st.out.cached_stages.push_back(stage.name);
  } else {
    stage.fn(st);
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  st.out.timings.push_back({stage.name, secs});
  if (stage.name == "bind-fus" || stage.name == "refine")
    st.out.bind_seconds += secs;
  if (cursor.enabled && !cursor.hit && stage.name == "time")
    st.ctx.stage_cache().insert(cursor.key, cursor.sa, capture_entry(st));
}

PipelineOutcome Pipeline::run(FlowContext& ctx, const RunSpec& spec) const {
  check_sa_pin(ctx, spec);
  PipelineState st(ctx, spec);
  st.out.timings.reserve(stages_.size());
  CacheCursor cursor = make_cursor(ctx, spec);
  for (const auto& stage : stages_) run_stage(st, stage, cursor);
  return std::move(st.out);
}

std::vector<PipelineOutcome> Pipeline::run_batch(
    FlowContext& ctx, const RunSpec& spec,
    const std::vector<std::uint64_t>& seeds) const {
  using Clock = std::chrono::steady_clock;
  std::vector<PipelineOutcome> outs;
  if (seeds.empty()) return outs;
  check_sa_pin(ctx, spec);

  PipelineState st(ctx, spec);
  st.out.timings.reserve(stages_.size());
  CacheCursor cursor = make_cursor(ctx, spec);

  // Shared head: every stage before `simulate` runs once for the whole
  // seed group (overrides and the stage cache both apply).
  bool found_simulate = false;
  std::size_t tail_begin = stages_.size();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (stages_[s].name == "simulate") {
      found_simulate = true;
      tail_begin = s + 1;
      break;
    }
    run_stage(st, stages_[s], cursor);
  }
  HLP_REQUIRE(found_simulate, "run_batch needs a `simulate` stage");

  // Word-parallel simulate: the same stimulus run() would generate per
  // seed, packed one seed per lane and chunked to the selected word width
  // (64 lanes for u64, up to 512 under avx512 — chunking also keeps
  // stimulus memory bounded at one lane group). The batched engine stages
  // sample words directly (flow/seed_chunk.hpp); the scalar oracle goes
  // through the char-frame path per seed. One `simulate` timing entry
  // covers the batch.
  const bool batched = spec.sim_engine == SimEngine::kBatched;
  // Auto width is sized to the seed group: a word wider than the group
  // pays full word cost on lanes that can never fill.
  const SimdMode simd =
      batched ? effective_simd_mode(SimdMode::kAuto, seeds.size())
              : SimdMode::kU64;
  const std::size_t chunk_lanes = static_cast<std::size_t>(simd_lanes(simd));
  const auto t0 = Clock::now();
  std::vector<CycleSimStats> sims(seeds.size());
  for (std::size_t g0 = 0; g0 < seeds.size(); g0 += chunk_lanes) {
    const std::size_t count =
        std::min<std::size_t>(chunk_lanes, seeds.size() - g0);
    std::vector<CycleSimStats> chunk;
    if (batched) {
      LaneSamples lane_samples(count);
      for (std::size_t i = 0; i < count; ++i)
        lane_samples[i] =
            random_samples(spec.num_vectors, ctx.cdfg().num_inputs(),
                           ctx.width(), seeds[g0 + i]);
      chunk = simulate_seed_chunk(st.out.flow.mapped.lut_netlist, st.datapath,
                                  lane_samples, simd);
    } else {
      std::vector<std::vector<std::vector<char>>> runs(count);
      for (std::size_t i = 0; i < count; ++i) {
        const auto samples =
            random_samples(spec.num_vectors, ctx.cdfg().num_inputs(),
                           ctx.width(), seeds[g0 + i]);
        runs[i] = make_frames(st.datapath, samples);
      }
      chunk =
          simulate_runs(st.out.flow.mapped.lut_netlist, runs, spec.sim_engine);
    }
    for (std::size_t i = 0; i < count; ++i) sims[g0 + i] = std::move(chunk[i]);
  }
  st.out.timings.push_back(
      {"simulate",
       std::chrono::duration<double>(Clock::now() - t0).count()});

  // Per-seed tail: install each seed's sim stats and run the remaining
  // stages (power, plus any custom additions) on a per-seed copy.
  const std::vector<StageTiming> shared_timings = st.out.timings;
  outs.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    st.out.flow.sim = std::move(sims[i]);
    st.out.timings = shared_timings;
    for (std::size_t s = tail_begin; s < stages_.size(); ++s) {
      const auto t1 = Clock::now();
      stages_[s].fn(st);
      st.out.timings.push_back(
          {stages_[s].name,
           std::chrono::duration<double>(Clock::now() - t1).count()});
    }
    outs.push_back(st.out);
  }
  return outs;
}

}  // namespace hlp::flow
