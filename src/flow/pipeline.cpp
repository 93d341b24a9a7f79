#include "flow/pipeline.hpp"

#include <algorithm>
#include <chrono>

#include "binding/datapath_stats.hpp"
#include "store/artifact_store.hpp"
#include "netlist/timing.hpp"
#include "rtl/lane_sim.hpp"
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
  if (entry || !store_) return entry;
  entry = store_->find(store::ArtifactKey{key});
  if (!entry) return entry;
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.emplace(key, std::move(entry)).first->second;
}

std::shared_ptr<const StageCache::Entry> StageCache::insert(
    const std::string& key, Entry entry) {
  auto holder = std::make_shared<const Entry>(std::move(entry));
  // Persist first: a publish conflict (two incompatible configurations
  // sharing one store) must surface as this run's error, not after the
  // memory cache already accepted the entry.
  if (store_) store_->publish(store::ArtifactKey{key}, *holder);
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.emplace(key, std::move(holder)).first->second;
}

void StageCache::bind_store(store::ArtifactStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  store_ = store;
}

std::size_t StageCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

namespace {

using Clock = std::chrono::steady_clock;

// Run `fn` as the stage `name`, appending its wall clock to `out.timings`.
template <typename Fn>
void timed(PipelineOutcome& out, const char* name, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  out.timings.push_back(
      {name, std::chrono::duration<double>(Clock::now() - t0).count()});
}

// The span of stages whose artifacts a StageCache entry carries. Stages
// before it are memoised on the context already; stages after it depend on
// the stimulus seed.
constexpr const char* kSpanStages[] = {"bind-fus", "refine", "elaborate",
                                       "map", "time"};

// The head shared by run() and run_batch(): `schedule` and `bind-regs`,
// then the bind-fus..time span — served from the context's StageCache when
// published there, else computed into a new entry and published. Fills
// `out` with the seven head timings and the span's summary, and returns
// the span for `simulate` and `power` to read in place.
std::shared_ptr<const StageCache::Entry> run_head(FlowContext& ctx,
                                                  const RunSpec& spec,
                                                  PipelineOutcome& out) {
  const std::string key = ctx.binding_hash(spec.binder);
  out.timings.reserve(Pipeline::stage_names().size());

  const Schedule* schedule = nullptr;
  const RegisterBinding* regs = nullptr;
  timed(out, "schedule", [&] { schedule = &ctx.schedule(); });
  timed(out, "bind-regs", [&] { regs = &ctx.regs(); });

  std::shared_ptr<const StageCache::Entry> span = ctx.stage_cache().find(key);
  if (span) {
    for (const char* name : kSpanStages) {
      out.timings.push_back({name, 0.0});
      out.cached_stages.push_back(name);
    }
  } else {
    StageCache::Entry e;
    timed(out, "bind-fus", [&] {
      e.fus = binder_registry().at(spec.binder.name)(ctx, spec.binder);
    });
    timed(out, "refine", [&] {
      if (!spec.binder.refine) return;
      e.refine = refine_ports(ctx.cdfg(), *regs, e.fus, ctx.sa_cache(),
                              edge_weight_params(spec.binder));
      e.fus = e.refine.fus;
      e.refined = true;
    });
    {
      Datapath dp;
      timed(out, "elaborate", [&] {
        dp = elaborate_datapath(ctx.cdfg(), *schedule, Binding{*regs, e.fus},
                                DatapathParams{ctx.width()});
      });
      timed(out, "map", [&] { e.mapped = tech_map(dp.netlist, kEvalMap); });
      // The entry keeps the plan; the elaborated netlist dies here.
      e.plan = std::move(dp);
    }
    timed(out, "time",
          [&] { e.clock_period_ns = clock_period_ns(e.mapped.lut_netlist); });
    span = ctx.stage_cache().insert(key, std::move(e));
  }
  out.bind_seconds =
      out.stage_seconds("bind-fus") + out.stage_seconds("refine");
  out.fus = span->fus;
  out.refine = span->refine;
  out.refined = span->refined;
  // A function of the CDFG, the register binding and the span's FUs, so
  // the span does not carry it, computed or loaded.
  out.flow.mux_stats = compute_datapath_stats(ctx.cdfg(), *regs, span->fus);
  out.flow.mapped.num_luts = span->mapped.num_luts;
  out.flow.mapped.depth = span->mapped.depth;
  out.flow.clock_period_ns = span->clock_period_ns;
  return span;
}

// The `power` stage: one run's toggles -> dynamic power report.
void run_power(const StageCache::Entry& span, PipelineOutcome& out) {
  timed(out, "power", [&] {
    const auto& sim = out.flow.sim;
    const double functional_per_cycle =
        sim.num_cycles ? static_cast<double>(sim.functional_transitions) /
                             static_cast<double>(sim.num_cycles)
                       : 0.0;
    out.flow.report = power_from_toggles(
        span.mapped.lut_netlist, sim.toggles, sim.num_cycles,
        span.clock_period_ns, functional_per_cycle);
  });
}

}  // namespace

const std::vector<std::string>& Pipeline::stage_names() {
  static const std::vector<std::string> kNames = {
      "schedule", "bind-regs", "bind-fus", "refine", "elaborate",
      "map",      "time",      "simulate", "power"};
  return kNames;
}

PipelineOutcome Pipeline::run(FlowContext& ctx, const RunSpec& spec) {
  PipelineOutcome out;
  const auto span = run_head(ctx, spec, out);
  timed(out, "simulate", [&] {
    // Stimulus identical to run_flow (same seed, same sequence). The
    // batched engine puts one sample per lane, so its auto width is sized
    // to the sample count; every width is bit-identical, so the width
    // picked here cannot change the result, only the wall clock. The
    // scalar oracle goes through the char-frame path.
    const auto samples = random_samples(
        spec.num_vectors, ctx.cdfg().num_inputs(), ctx.width(), spec.seed);
    const Netlist& luts = span->mapped.lut_netlist;
    out.flow.sim =
        spec.sim_engine == SimEngine::kBatched
            ? simulate_sample_lanes(
                  luts, span->plan, samples,
                  effective_simd_mode(SimdMode::kAuto, samples.size()))
            : simulate_frames(luts, make_frames(luts, span->plan, samples));
  });
  run_power(*span, out);
  return out;
}

std::vector<PipelineOutcome> Pipeline::run_batch(
    FlowContext& ctx, const RunSpec& spec,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<PipelineOutcome> outs;
  if (seeds.empty()) return outs;

  // Shared head: every stage before `simulate` runs once for the whole
  // seed group.
  PipelineOutcome head;
  const auto span = run_head(ctx, spec, head);
  const Netlist& luts = span->mapped.lut_netlist;

  // Word-parallel simulate: the same stimulus run() would generate per
  // seed, packed one seed per lane and chunked to the selected word width
  // (64 lanes for u64, up to 512 under avx512 — chunking also keeps
  // stimulus memory bounded at one lane group). The batched engine stages
  // sample words directly (rtl/lane_sim.hpp); the scalar oracle goes
  // through the char-frame path per seed. One `simulate` timing entry
  // covers the batch.
  const bool batched = spec.sim_engine == SimEngine::kBatched;
  // Auto width is sized to the seed group: a word wider than the group
  // pays full word cost on lanes that can never fill.
  const SimdMode simd =
      batched ? effective_simd_mode(SimdMode::kAuto, seeds.size())
              : SimdMode::kU64;
  const std::size_t chunk_lanes = static_cast<std::size_t>(simd_lanes(simd));
  std::vector<CycleSimStats> sims(seeds.size());
  timed(head, "simulate", [&] {
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
        chunk = simulate_seed_chunk(luts, span->plan, lane_samples, simd);
      } else {
        for (std::size_t i = 0; i < count; ++i) {
          const auto samples =
              random_samples(spec.num_vectors, ctx.cdfg().num_inputs(),
                             ctx.width(), seeds[g0 + i]);
          chunk.push_back(
              simulate_frames(luts, make_frames(luts, span->plan, samples)));
        }
      }
      for (std::size_t i = 0; i < count; ++i)
        sims[g0 + i] = std::move(chunk[i]);
    }
  });

  // Per-seed tail: each seed's outcome is the head's summary plus its own
  // sim stats and power report.
  outs.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    PipelineOutcome& out = outs.emplace_back(head);
    out.flow.sim = std::move(sims[i]);
    run_power(*span, out);
  }
  return outs;
}

}  // namespace hlp::flow
