// hlpower_cli — command-line driver for the whole library, built on the
// src/flow subsystem.
//
// Reads CDFGs (built-in paper benchmarks and/or text files), schedules and
// binds them with registry-selected algorithms, runs the staged evaluation
// pipeline — in parallel across designs with --jobs — and optionally
// writes VHDL / BLIF / DOT artifacts for single-design runs.
//
// Usage:
//   hlpower_cli [options]
//     --bench <names>       comma-separated paper benchmarks, or 'all'
//     --cdfg <file>         read a CDFG text file instead
//     --adders N --mults N  resource constraint (default: schedule minimum)
//     --binder <name>       FU binder from the registry (default hlpower)
//     --alpha X             Eq. 4 alpha (default 0.5)
//     --refine              run post-binding port refinement
//     --scheduler <name>    scheduler from the registry (default list)
//     --jobs N              worker threads for multi-design runs (default 1)
//     --vectors N           simulation vectors (default 200)
//     --width N             datapath bits (default 8)
//     --seed N              simulation stimulus seed (default 42)
//     --timings             print per-stage pipeline wall clock (one
//                           `stages:` line per design)
//     --vhdl <file> --blif <file> --dot <file>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "binding/datapath_stats.hpp"
#include "cdfg/benchmarks.hpp"
#include "cdfg/io.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/text_codec.hpp"
#include "flow/experiment.hpp"
#include "flow/pipeline.hpp"
#include "flow/registry.hpp"
#include "netlist/blif.hpp"
#include "rtl/vhdl.hpp"

namespace {

using namespace hlp;

/// Bad command line. Unlike the library's hlp::Error, this asks main to
/// print the usage text — no std::exit from the middle of parsing.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::vector<std::string> benches;
  std::string cdfg_file;
  int adders = 0, mults = 0;
  std::string binder = "hlpower";
  double alpha = 0.5;
  bool refine = false;
  std::string scheduler = "list";
  int jobs = 1;
  int vectors = 200;
  int width = 8;
  std::uint64_t seed = 42;
  bool timings = false;
  bool help = false;
  std::string vhdl_out, blif_out, dot_out;
};

std::string joined(const std::vector<std::string>& names);

void print_usage(std::ostream& os) {
  os << "usage: hlpower_cli --bench <names>|--cdfg <file> [options]\n"
        "  registered schedulers:"
     << joined(flow::scheduler_registry().names())
     << "\n"
        "  registered binders:   "
     << joined(flow::binder_registry().names())
     << "\n"
        "  see the header comment of examples/hlpower_cli.cpp\n";
}

std::vector<std::string> bench_names_all() {
  // Derived from the library's profile list so a new paper benchmark is
  // picked up by --bench all automatically.
  std::vector<std::string> out;
  for (const auto& profile : paper_benchmarks()) out.push_back(profile.name);
  return out;
}

std::vector<std::string> split_names(const std::string& arg) {
  std::vector<std::string> out;
  std::istringstream ss(arg);
  std::string name;
  while (std::getline(ss, name, ','))
    if (!name.empty()) out.push_back(name);
  return out;
}

// `parse(value)` through the library's strict whole-token parsers, with a
// bad value reported as a usage error naming the flag.
template <typename Parse>
auto parse_flag(const std::string& flag, const std::string& value,
                Parse parse, const char* kind) {
  try {
    return parse(value);
  } catch (const Error&) {
    throw UsageError(flag + " needs " + kind + ", got '" + value + "'");
  }
}

int parse_int_flag(const std::string& flag, const std::string& value) {
  return parse_flag(flag, value, parse_int, "an integer");
}

std::string joined(const std::vector<std::string>& names) {
  std::string s;
  for (const auto& n : names) s += " " + n;
  return s;
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> std::string {
    if (++i >= argc) throw UsageError("missing argument value");
    return argv[i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--bench") {
      const std::string arg = need(i);
      o.benches = arg == "all" ? bench_names_all()
                               : split_names(arg);
    } else if (a == "--cdfg") o.cdfg_file = need(i);
    else if (a == "--adders") o.adders = parse_int_flag(a, need(i));
    else if (a == "--mults") o.mults = parse_int_flag(a, need(i));
    else if (a == "--binder") o.binder = need(i);
    else if (a == "--alpha")
      o.alpha = parse_flag(a, need(i), parse_double, "a number");
    else if (a == "--refine") o.refine = true;
    else if (a == "--scheduler") o.scheduler = need(i);
    else if (a == "--jobs") o.jobs = parse_int_flag(a, need(i));
    else if (a == "--vectors") o.vectors = parse_int_flag(a, need(i));
    else if (a == "--width") o.width = parse_int_flag(a, need(i));
    else if (a == "--seed")
      o.seed = parse_flag(a, need(i), parse_u64, "a non-negative integer");
    else if (a == "--timings") o.timings = true;
    else if (a == "--vhdl") o.vhdl_out = need(i);
    else if (a == "--blif") o.blif_out = need(i);
    else if (a == "--dot") o.dot_out = need(i);
    else if (a == "--help" || a == "-h") o.help = true;
    else throw UsageError("unknown option '" + a + "'");
  }
  if (o.help) return o;
  if (o.benches.empty() == o.cdfg_file.empty())
    throw UsageError("exactly one of --bench / --cdfg is required");
  // Registry-driven validation: unknown names fail here with the list of
  // registered algorithms instead of deep inside the pipeline.
  if (!flow::scheduler_registry().contains(o.scheduler))
    throw UsageError("unknown scheduler '" + o.scheduler + "' (try" +
                     joined(flow::scheduler_registry().names()) + ")");
  if (!flow::binder_registry().contains(o.binder))
    throw UsageError("unknown binder '" + o.binder + "' (try" +
                     joined(flow::binder_registry().names()) + ")");
  if (o.jobs < 1) throw UsageError("--jobs must be >= 1");
  if (o.width < 1) throw UsageError("--width must be >= 1");
  if (o.vectors < 1) throw UsageError("--vectors must be >= 1");
  if (o.benches.size() > 1 &&
      !(o.vhdl_out.empty() && o.blif_out.empty() && o.dot_out.empty()))
    throw UsageError("artifact outputs (--vhdl/--blif/--dot) "
                     "require a single design");
  return o;
}

flow::Job make_job(const Options& o, const std::string& design) {
  flow::Job job;
  job.benchmark = design;
  job.scheduler = o.scheduler;
  job.binder.name = o.binder;
  job.binder.alpha = o.alpha;
  job.binder.refine = o.refine;
  job.rc = {o.adders, o.mults};
  job.width = o.width;
  job.num_vectors = o.vectors;
  job.seed = o.seed;
  return job;
}

void print_stages(const flow::PipelineOutcome& out) {
  std::cout << "stages:";
  for (const auto& t : out.timings)
    std::cout << " " << t.name << "=" << fmt_fixed(t.seconds * 1e3, 1) << "ms";
  std::cout << "\n";
}

void print_result(const Options& o, flow::ExperimentRunner& runner,
                  const flow::JobResult& res) {
  flow::FlowContext& ctx = runner.context_for(res.job);
  const Cdfg& g = ctx.cdfg();
  const flow::PipelineOutcome& out = res.outcome;
  std::cout << "cdfg '" << g.name() << "': " << g.num_ops() << " ops ("
            << g.num_ops_of_kind(OpKind::kAdd) << " add, "
            << g.num_ops_of_kind(OpKind::kMult) << " mult), depth "
            << g.depth() << "\n"
            << "schedule (" << o.scheduler << "): "
            << ctx.schedule().num_steps << " steps; allocation "
            << ctx.rc().adders << " add / " << ctx.rc().multipliers
            << " mult\n";
  if (out.refined)
    std::cout << "port refinement: " << out.refine.flips_applied
              << " flips, cost " << out.refine.cost_before << " -> "
              << out.refine.cost_after << "\n";
  const DatapathStats& st = out.flow.mux_stats;
  std::cout << "binding (" << o.binder << "): " << out.fus.num_fus()
            << " FUs, " << ctx.regs().num_registers
            << " registers, mux length " << st.mux_length << ", largest mux "
            << st.largest_mux << ", muxDiff mean " << st.muxdiff_mean << "\n"
            << "evaluation: " << out.flow.mapped.num_luts << " LUTs, "
            << out.flow.clock_period_ns << " ns clock, "
            << out.flow.report.dynamic_power_mw << " mW dynamic, toggle "
            << out.flow.report.toggle_rate_mps << " M/s, glitch fraction "
            << out.flow.report.glitch_fraction << "\n";
  if (o.timings) print_stages(out);
}

void write_artifacts(const Options& o, flow::ExperimentRunner& runner,
                     const flow::JobResult& res) {
  flow::FlowContext& ctx = runner.context_for(res.job);
  const Cdfg& g = ctx.cdfg();
  const Binding bind{ctx.regs(), res.outcome.fus};
  auto write_file = [](const std::string& path, const std::string& text) {
    if (path.empty()) return;
    std::ofstream f(path);
    HLP_REQUIRE(f.good(), "cannot write '" << path << "'");
    f << text;
    std::cout << "wrote " << path << "\n";
  };
  write_file(o.vhdl_out,
             emit_vhdl(g, ctx.schedule(), bind, VhdlParams{o.width}));
  if (!o.blif_out.empty()) {
    const Datapath dp = elaborate_datapath(g, ctx.schedule(), bind,
                                           DatapathParams{o.width});
    write_file(o.blif_out, blif_to_string(dp.netlist));
  }
  write_file(o.dot_out, cdfg_to_dot(g));
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    print_usage(std::cerr);
    return 1;
  }
  if (o.help) {
    print_usage(std::cout);
    return 0;
  }
  try {
    // One job per design; --cdfg designs resolve through a provider that
    // reads the file, everything else is a paper benchmark.
    const std::string cdfg_file = o.cdfg_file;
    flow::ExperimentRunner runner(
        o.jobs, [cdfg_file](const std::string& name) {
          if (!cdfg_file.empty() && name == cdfg_file) {
            std::ifstream f(cdfg_file);
            HLP_REQUIRE(f.good(), "cannot open '" << cdfg_file << "'");
            return read_cdfg(f);
          }
          return make_paper_benchmark(name);
        });
    std::vector<flow::Job> jobs;
    if (!o.cdfg_file.empty()) {
      jobs.push_back(make_job(o, o.cdfg_file));
    } else {
      for (const auto& name : o.benches) jobs.push_back(make_job(o, name));
    }
    const auto results = runner.run(jobs);

    int failures = 0;
    if (results.size() == 1) {
      const auto& res = results[0];
      if (!res.ok) {
        std::cerr << "error: " << res.error << "\n";
        return 1;
      }
      print_result(o, runner, res);
      write_artifacts(o, runner, res);
      return 0;
    }
    // Multi-design summary table (artifact flags rejected at parse time).
    AsciiTable t({"design", "csteps", "FUs", "regs", "LUTs", "clk (ns)",
                  "power (mW)", "toggle (M/s)", "bind (s)", "total (s)"});
    for (const auto& res : results) {
      if (!res.ok) {
        ++failures;
        std::cerr << "error: design '" << res.job.benchmark
                  << "': " << res.error << "\n";
        continue;
      }
      flow::FlowContext& ctx = runner.context_for(res.job);
      t.row()
          .add(res.job.benchmark)
          .add(ctx.schedule().num_steps)
          .add(res.outcome.fus.num_fus())
          .add(ctx.regs().num_registers)
          .add(res.outcome.flow.mapped.num_luts)
          .add(res.outcome.flow.clock_period_ns, 1)
          .add(res.outcome.flow.report.dynamic_power_mw, 1)
          .add(res.outcome.flow.report.toggle_rate_mps, 2)
          .add(res.outcome.bind_seconds, 3)
          .add(res.seconds, 3);
    }
    std::cout << results.size() << " designs, binder '" << o.binder
              << "', scheduler '" << o.scheduler << "', " << o.jobs
              << " worker(s)\n";
    t.print(std::cout);
    if (o.timings)
      for (const auto& res : results)
        if (res.ok) {
          std::cout << res.job.benchmark << " ";
          print_stages(res.outcome);
        }
    return failures ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
