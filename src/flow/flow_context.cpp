#include "flow/flow_context.hpp"

#include <algorithm>
#include <ios>
#include <sstream>

#include "binding/register_binder.hpp"
#include "common/error.hpp"
#include "common/text_codec.hpp"
#include "flow/pipeline.hpp"
#include "sched/list_scheduler.hpp"

namespace hlp::flow {

namespace {

// Structural digest of a CDFG: FNV-1a 64 over an exact serialisation of
// everything downstream stages can observe (names included — net names in
// the elaborated datapath derive from them). Two providers that reuse a
// benchmark name for different graphs therefore get different span keys
// instead of aliasing each other's entries.
std::string cdfg_digest(const Cdfg& g) {
  std::ostringstream os;
  os << g.name() << ';' << g.num_inputs() << ';';
  for (int i = 0; i < g.num_inputs(); ++i) os << g.input_name(i) << ',';
  os << ';';
  for (const Operation& op : g.ops())
    os << op.name << ',' << static_cast<int>(op.kind) << ','
       << static_cast<int>(op.lhs.kind) << ',' << op.lhs.index << ','
       << static_cast<int>(op.rhs.kind) << ',' << op.rhs.index << ';';
  for (const Output& out : g.outputs())
    os << out.name << ',' << static_cast<int>(out.value.kind) << ','
       << out.value.index << ';';
  std::ostringstream hex;
  hex << std::hex << fnv1a64(os.str());
  return hex.str();
}

}  // namespace

FlowContext::FlowContext(Cdfg g, ResourceConstraint rc, ContextOptions opt,
                         SaCache* shared_cache)
    : g_(std::move(g)),
      cdfg_digest_(cdfg_digest(g_)),
      rc_(rc),
      opt_(std::move(opt)),
      shared_cache_(shared_cache) {
  if (shared_cache_) {
    HLP_REQUIRE(shared_cache_->width() == opt_.width,
                "shared SaCache width " << shared_cache_->width()
                                        << " != context width " << opt_.width);
    // The shared cache's mode governs; an explicit request that disagrees
    // is a configuration error, not a silent override.
    HLP_REQUIRE(!opt_.sa_mode || *opt_.sa_mode == shared_cache_->mode(),
                "context SA mode '"
                    << sa_mode_name(*opt_.sa_mode)
                    << "' != shared SaCache mode '"
                    << sa_mode_name(shared_cache_->mode()) << "'");
    opt_.sa_mode = shared_cache_->mode();
  } else {
    opt_.sa_mode = effective_sa_mode(opt_.sa_mode);
    owned_cache_ = std::make_unique<SaCache>(opt_.width, *opt_.sa_mode);
  }
  stage_cache_ = std::make_unique<StageCache>();
}

FlowContext::~FlowContext() = default;

void FlowContext::set_artifact_store(store::ArtifactStore* store) {
  stage_cache_->bind_store(store);
}

std::string FlowContext::binding_hash(const BinderSpec& binder) {
  const ResourceConstraint& resolved = rc();
  std::ostringstream key;
  key << std::hexfloat;
  // opt_.sa_mode is concrete after construction; different SA backends
  // produce different tables, hence different bindings — distinct keys.
  key << opt_.scheduler << '|' << opt_.sched_spec.min_latency << '|'
      << opt_.sched_spec.latency_slack << '|' << resolved.adders << 'x'
      << resolved.multipliers << '|' << opt_.width << '|' << opt_.reg_seed
      << '|' << sa_mode_name(sa_cache().mode())
      << '|' << binder.name << '|' << binder.alpha << '|' << binder.beta_add
      << '|' << binder.beta_mult << '|' << binder.refine << "|g"
      << cdfg_digest_;
  return key.str();
}

void FlowContext::ensure_scheduled_locked() {
  if (scheduled_) return;
  // Zero entries mean "schedule minimum": probe with the loosest feasible
  // allocation, then read the per-kind max density (Theorem 1's bound).
  if (rc_.adders == 0 || rc_.multipliers == 0) {
    const Schedule probe = list_schedule(
        g_, {std::max(1, rc_.adders), std::max(1, rc_.multipliers)});
    if (rc_.adders == 0)
      rc_.adders = std::max(1, probe.max_density(g_, OpKind::kAdd));
    if (rc_.multipliers == 0)
      rc_.multipliers = std::max(1, probe.max_density(g_, OpKind::kMult));
  }
  const SchedulerFn& scheduler = scheduler_registry().at(opt_.scheduler);
  s_ = scheduler(g_, rc_, opt_.sched_spec);
  // Latency-driven schedulers balance but do not constrain; widen rc so the
  // binders always receive a feasible allocation.
  rc_.adders = std::max(rc_.adders, s_.max_density(g_, OpKind::kAdd));
  rc_.multipliers = std::max(rc_.multipliers, s_.max_density(g_, OpKind::kMult));
  scheduled_ = true;
}

void FlowContext::ensure_regs_locked() {
  ensure_scheduled_locked();
  if (regs_bound_) return;
  regs_ = bind_registers(g_, s_, opt_.reg_seed);
  regs_bound_ = true;
}

const Schedule& FlowContext::schedule() {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_scheduled_locked();
  return s_;
}

const ResourceConstraint& FlowContext::rc() {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_scheduled_locked();
  return rc_;
}

const RegisterBinding& FlowContext::regs() {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_regs_locked();
  return regs_;
}

}  // namespace hlp::flow
