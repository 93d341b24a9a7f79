// Checks of the benchmark's own helpers: invocation dedupe, the
// median/percentile statistics and metric-name validation. Exits nonzero
// on the first failed check; perfbench/run.py runs it before every
// workload.
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "perfbench.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::cerr << "perfbench_selftest: FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

hlp::flow::JobResult result(const char* binder, double seconds,
                            double simulate_s, int luts) {
  hlp::flow::JobResult r;
  r.job.binder.name = binder;
  r.job.num_vectors = 10;
  r.ok = true;
  r.seconds = seconds;
  r.outcome.timings = {{"bind-fus", 0.25}, {"simulate", simulate_s}};
  r.outcome.bind_seconds = 0.25;
  r.outcome.flow.mapped.num_luts = luts;
  return r;
}

void dedupe() {
  // A three-seed coalesced unit whose members each repeat the group's 2 s,
  // plus a singleton of 1 s: 3 s of invocations, not the naive 7 s.
  std::vector<hlp::flow::JobResult> results = {
      result("hlpower", 2.0, 1.5, 100), result("lopass", 1.0, 0.5, 50),
      result("hlpower", 2.0, 1.5, 100), result("hlpower", 2.0, 1.5, 100)};
  results[2].outcome.cached_stages = {"bind-fus"};
  results[0].outcome.cached_stages = {"bind-fus"};
  const std::vector<hlp::flow::WorkUnit> units = {{{0, 2, 3}, 3}, {{1}, 1}};
  const perfbench::InvocationTotals t =
      perfbench::dedupe_invocations(units, results);
  check(t.invocations == 2, "dedupe: invocation count");
  check(t.jobs == 4, "dedupe: job count");
  check(near(t.seconds, 3.0), "dedupe: seconds counted once per invocation");
  check(near(t.stage_s.at("simulate"), 2.0), "dedupe: stage seconds");
  check(near(t.stage_total(), 2.5), "dedupe: stage total");
  check(t.cached == 1, "dedupe: cached invocations");
  check(near(t.lut_evals, 100.0 * 10 * 3 + 50.0 * 10), "dedupe: LUT evals");
  check(near(t.hlpower_bind_s, 0.25) && near(t.lopass_bind_s, 0.25),
        "dedupe: bind seconds per binder");

  results[3].seconds = 2.5;  // not one invocation after all
  bool threw = false;
  try {
    perfbench::dedupe_invocations(units, results);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "dedupe: members disagreeing on seconds are rejected");
}

void statistics() {
  check(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "median odd");
  check(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5), "median even");
  check(near(perfbench::median({7.0}), 7.0), "median single");
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  check(near(perfbench::percentile(v, 0.0), 1.0), "p0 is the minimum");
  check(near(perfbench::percentile(v, 1.0), 11.0), "p100 is the maximum");
  check(near(perfbench::percentile(v, 0.9), 10.0), "p90");
  check(near(perfbench::percentile({0.0, 10.0}, 0.25), 2.5),
        "percentile interpolates");
  bool threw = false;
  try {
    perfbench::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "median of an empty sample throws");
  threw = false;
  try {
    perfbench::percentile({1.0}, 1.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile rank above 1 throws");
}

void metric_names() {
  for (const char* ok : {"jobs_per_s", "flow.bind_fus_s", "sa.misses",
                         "dist.frame_mb", "0-9_a.Z"})
    check(perfbench::valid_metric_name(ok), ok);
  for (const char* bad : {"", "_lead", ".lead", "has space", "flow/dist",
                          "naïve", "x:y"})
    check(!perfbench::valid_metric_name(bad), bad);
  check(perfbench::valid_metric_name(std::string(64, 'a')), "64 characters");
  check(!perfbench::valid_metric_name(std::string(65, 'a')), "65 characters");
}

void trace() {
  perfbench::Trace off(false);
  { perfbench::Trace::Scope s(off, "x"); }
  check(off.spans().empty(), "a disabled trace records nothing");

  perfbench::Trace on(true);
  {
    perfbench::Trace::Scope outer(on, "outer");
    perfbench::Trace::Scope inner(on, "inner");
  }
  check(on.spans().size() == 2, "two spans recorded");
  check(on.total("outer") >= on.total("inner"), "outer covers inner");
}

}  // namespace

int main() {
  dedupe();
  statistics();
  metric_names();
  trace();
  if (failures == 0) std::cout << "perfbench_selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
