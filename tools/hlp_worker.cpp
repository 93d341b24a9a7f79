// hlp_worker — the worker-process half of the distributed runner
// (src/flow/distributed.hpp, docs/distributed.md).
//
//   hlp_worker [--jobs <n>] [--store <dir>]
//
// A long-lived loop that reads framed unit requests from stdin and writes
// framed unit responses to stdout (flow/job_io.hpp) until a `quit` line or
// EOF. Each unit runs through the ordinary in-process ExperimentRunner
// (word-parallel simulation included), whose coalescing is on: the
// parent's plan_units already cut the grid into units — one job, or one
// word-sized chunk of a seed group — and replanning a unit with
// coalescing on gives that same unit back, whatever the parent's own
// setting. One runner lives for the whole session, so FlowContexts,
// StageCaches and SA tables stay warm across units — later units of the
// same design reuse the schedule/binding/map artifacts the first one
// computed. Stdout belongs to
// the protocol; diagnostics go to stderr. The SA mode arrives pre-resolved
// in each request row (`sa=`), so a worker's own HLP_SA_MODE never
// influences which backend runs.
//
// "--store <dir>" points the worker at the fleet's shared artifact store
// (src/store/artifact_store.hpp): stage artifacts computed here persist
// for every other worker and future runs. Like the SA mode, the store is
// the PARENT's decision — the worker always overrides its own HLP_STORE
// with the flag's value (absent flag = no store), so a fleet behaves the
// same whatever environment its workers inherit.
//
// Exit status: 0 when the session ended with `quit` or EOF — including
// jobs that failed, which report through their serialized
// JobResult::error, exactly like the in-process runner; 2 for bad usage
// (an unknown flag or a bad value); 1 for a broken protocol stream, with
// the reason on stderr. The DistributedRunner parent turns a nonzero exit,
// a signal death, a timeout or a truncated frame into per-unit errors,
// after a bounded requeue.
//
// The serve loop runs over any byte stream, so the same binary works over
// ssh for multi-machine sharding.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/text_codec.hpp"
#include "flow/experiment.hpp"
#include "flow/job_io.hpp"

namespace {

struct Options {
  std::string store;
  int jobs = 1;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hlp_worker: " << why << "\n"
            << "usage: hlp_worker [--jobs <n>] [--store <dir>]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag '" + flag + "' needs a value");
    const std::string value = argv[++i];
    if (flag == "--store") {
      opt.store = value;
    } else if (flag == "--jobs") {
      try {
        opt.jobs = hlp::parse_int(value);
      } catch (const hlp::Error&) {
        opt.jobs = 0;
      }
      if (opt.jobs < 1) usage("--jobs '" + value + "' must be an integer >= 1");
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  return opt;
}

int run_serve(const Options& opt) {
  using namespace hlp;
  flow::ExperimentRunner runner(opt.jobs);
  // The store is the parent's call: always override the environment with
  // the flag (empty = none), so a worker never opens its own HLP_STORE.
  runner.set_store_dir(opt.store);

  std::size_t units = 0, jobs_run = 0, failed = 0;
  while (true) {
    const flow::UnitRequest req = flow::load_unit_request(std::cin);
    if (req.quit) break;

    std::vector<flow::Job> jobs;
    jobs.reserve(req.jobs.size());
    for (const flow::ManifestJob& mj : req.jobs) jobs.push_back(mj.job);
    const std::vector<flow::JobResult> results = runner.run(jobs);

    std::vector<flow::ManifestResult> out;
    out.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
      out.push_back({req.jobs[i].index, results[i]});
    flow::save_unit_response(std::cout, req.id, out);
    std::cout.flush();
    HLP_REQUIRE(std::cout.good(),
                "write of unit " << req.id << " response failed");

    ++units;
    jobs_run += results.size();
    for (const auto& r : results) failed += r.ok ? 0 : 1;
  }

  std::cerr << "hlp_worker: served " << units << " unit(s), " << jobs_run
            << " job(s), " << failed << " failed\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run_serve(opt);
  } catch (const std::exception& e) {
    std::cerr << "hlp_worker: " << e.what() << "\n";
    return 1;
  }
}
