// Helpers of the hlp_perfbench binary: summary statistics, metric-name
// validation, per-invocation accounting of JobResults and an in-memory
// span trace. Kept apart from main.cpp so perfbench_selftest can pin
// them without running a workload.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "flow/experiment.hpp"

namespace perfbench {

/// The q-quantile (q in [0, 1]) of `v` with linear interpolation between
/// order statistics — percentile(v, 0.5) is the median. Throws
/// std::invalid_argument on an empty sample or q outside [0, 1].
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Metric names follow the benchmark schema: 1..64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(const std::string& name);

/// Sums over the pipeline invocations of one run. Every member of a
/// coalesced unit repeats the whole invocation's `seconds` and `timings`,
/// so summing JobResults directly counts a 512-seed group 512 times;
/// these totals count each invocation (each WorkUnit) once.
struct InvocationTotals {
  std::size_t invocations = 0;
  std::size_t jobs = 0;
  /// Invocations whose bind-fus..time span came from a StageCache (memory
  /// or artifact-store hit).
  std::size_t cached = 0;
  /// Sum of JobResult::seconds, once per invocation.
  double seconds = 0.0;
  /// Per-stage seconds (StageTiming names), once per invocation.
  std::map<std::string, double> stage_s;
  /// Sum over invocations of mapped LUTs x vectors x seeds simulated.
  double lut_evals = 0.0;
  /// Sum of (HLPower bind-fus + refine) and of LOPASS bind-fus seconds.
  double hlpower_bind_s = 0.0;
  double lopass_bind_s = 0.0;

  double stage_total() const;
};

/// Fold `results` (in job order) over the units that produced them
/// (flow::plan_units of the same grid). Throws std::runtime_error when the
/// members of one unit disagree on `seconds` — they rode one invocation.
InvocationTotals dedupe_invocations(
    const std::vector<hlp::flow::WorkUnit>& units,
    const std::vector<hlp::flow::JobResult>& results);

/// In-memory spans around the benchmark's calls into each library layer.
/// Disabled traces record nothing, so the untraced run pays one branch
/// per span.
class Trace {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // seconds since the trace was created
    double end_s = 0.0;
  };

  explicit Trace(bool enabled);

  bool enabled() const { return enabled_; }

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Trace& trace, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    int index_ = -1;
  };

  /// Summed duration of every closed span called `name`.
  double total(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events), readable by Perfetto.
  void write_chrome_json(const std::string& path) const;

 private:
  double now() const;

  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
