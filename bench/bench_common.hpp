// Shared experiment harness for the paper-reproduction benches, built on
// the src/flow subsystem.
//
// Every table/figure binary drives the same controlled pipeline the paper
// describes in Section 6.1, now expressed as flow::Pipeline stages over a
// per-benchmark flow::FlowContext (one scheduled CDFG and one register
// binding per benchmark, identical for every binder). The three binder
// configurations of the paper's comparison are fanned through the shared
// flow::ExperimentRunner (HLP_JOBS threads), all feeding one process-wide
// SA cache.
#pragma once

#include <string>
#include <vector>

#include "binding/datapath_stats.hpp"
#include "cdfg/benchmarks.hpp"
#include "flow/experiment.hpp"
#include "flow/flow_context.hpp"
#include "flow/pipeline.hpp"
#include "power/sa_cache.hpp"
#include "rtl/flow.hpp"

namespace hlp::bench {

/// The seven paper benchmarks, in Table 1 order.
const std::vector<std::string>& names();

/// Table 2 resource constraints / paper-reported columns.
struct Table2Row {
  int adders;
  int multipliers;
  int paper_cycles;
  int paper_registers;
};
Table2Row table2(const std::string& name);

/// Shared per-benchmark context (CDFG + memoised schedule and register
/// binding under the Table 2 constraint), owned by the runner.
flow::FlowContext& context(const std::string& name);

/// One binder's full evaluation.
struct Evaluated {
  FuBinding fus;
  DatapathStats mux;
  FlowResult flow;
  double bind_seconds = 0.0;
  /// Per-stage wall clock of the pipeline run.
  std::vector<flow::StageTiming> timings;
};

/// All three configurations of the paper's comparison, memoised per
/// benchmark. `hlp_one` is HLPower with alpha=1 (SA term only).
struct Comparison {
  Evaluated lopass;
  Evaluated hlp_half;  // alpha = 0.5 (the paper's headline configuration)
  Evaluated hlp_one;   // alpha = 1.0
};
const Comparison& comparison(const std::string& name);

/// Evaluation width and vector count shared by every bench (HLP_VECTORS
/// overrides the vector count; the paper used 1000).
int bench_width();
int bench_vectors();

/// Worker threads for the experiment grids (HLP_JOBS override, default 2).
int bench_jobs();

/// The runner's SA cache at bench_width() in the HLP_SA_MODE-resolved mode:
/// the one every bench context reads.
SaCache& sa_cache();

/// The process-wide runner every bench fans its jobs through.
flow::ExperimentRunner& runner();

/// The bench-default job for `name` (Table 2 rc, bench width/vectors).
flow::Job job(const std::string& name, const flow::BinderSpec& spec);

/// Run one binder configuration through the standard pipeline on the
/// shared context.
Evaluated evaluate(const std::string& name, const flow::BinderSpec& spec);

/// Convert a finished pipeline outcome into the bench view.
Evaluated to_evaluated(const flow::PipelineOutcome& out);

/// Percent change helper: 100 * (b - a) / a.
double pct(double a, double b);

}  // namespace hlp::bench
