// Ablation: sweep the Eq. 4 beta scaling (mux term magnitude relative to
// the SA term). The paper reports beta ~ 30 (add) / 1000 (mult) for its
// estimator's SA scale; our estimator lands at a different absolute scale,
// so this sweep documents the recalibration.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace {

void print_beta_sweep() {
  using namespace hlp;
  using namespace hlp::bench;
  struct BetaPair {
    double add, mult;
    const char* note;
  };
  const std::vector<BetaPair> betas = {
      {30, 1000, "paper values"},
      {60, 2000, ""},
      {120, 4000, ""},
      {240, 8000, "our default"},
      {480, 16000, ""},
  };
  const std::vector<std::string> subset = {"pr", "mcm"};
  AsciiTable t({"Bench", "beta add/mult", "Power (mW)", "Toggle (M/s)",
                "LUTs", "MuxLen", "muxDiff mean", "note"});
  // Grid through the runner: the beta pairs ride in the BinderSpec, so the
  // sweep is (benchmark x spec) jobs over the shared contexts.
  std::vector<flow::Job> jobs;
  std::vector<const char*> notes;
  for (const auto& name : subset)
    for (const auto& bp : betas) {
      flow::BinderSpec spec{"hlpower"};
      spec.alpha = 0.5;
      spec.beta_add = bp.add;
      spec.beta_mult = bp.mult;
      jobs.push_back(job(name, spec));
      notes.push_back(bp.note);
    }
  const auto results = runner().run(jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& res = results[i];
    if (!res.ok) {
      std::cerr << "job " << res.job.benchmark << " failed: " << res.error
                << "\n";
      continue;
    }
    const Evaluated ev = to_evaluated(res.outcome);
    t.row()
        .add(res.job.benchmark)
        .add(fmt_fixed(res.job.binder.beta_add, 0) + "/" +
             fmt_fixed(res.job.binder.beta_mult, 0))
        .add(ev.flow.report.dynamic_power_mw, 1)
        .add(ev.flow.report.toggle_rate_mps, 2)
        .add(ev.flow.mapped.num_luts)
        .add(ev.mux.mux_length)
        .add(ev.mux.muxdiff_mean, 2)
        .add(notes[i]);
  }
  std::cout << "Ablation: beta sweep (Eq. 4 mux-term scaling, alpha=0.5)\n";
  t.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  print_beta_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
