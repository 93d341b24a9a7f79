#include "flow/job_io.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <ostream>

#include "common/error.hpp"
#include "common/text_codec.hpp"

namespace hlp::flow {

namespace {

constexpr const char* kManifestMagic = "hlp-manifest";
constexpr const char* kResultsMagic = "hlp-results";
constexpr auto kSkipBlank = LineReader::Blank::kSkip;

const char* engine_name(SimEngine e) {
  return e == SimEngine::kScalar ? "scalar" : "batched";
}

SimEngine parse_engine(const std::string& s) {
  if (s == "scalar") return SimEngine::kScalar;
  if (s == "batched") return SimEngine::kBatched;
  HLP_REQUIRE(false, "unknown sim engine '" << s << "'");
}

// A boolean field or a `flipped` flag: "0" or "1", nothing else.
char parse_flag(const std::string& s) {
  HLP_REQUIRE(s == "0" || s == "1", "flag '" << s << "' must be 0 or 1");
  return s == "1" ? 1 : 0;
}

// key=value fields of one record line (everything after the leading
// keyword). Strict, so a frame from a different writer fails instead of
// being half-read: a key given twice, a missing key, a malformed value
// and — once finish() runs — a key the loader never read are errors that
// name the key and the line.
class Fields {
 public:
  explicit Fields(LineRecord rec) : where_(rec.where()) {
    while (!rec.done()) {
      const std::string& tok = rec.take();
      const auto eq = tok.find('=');
      HLP_REQUIRE(eq != std::string::npos,
                  where_ << ": field '" << tok << "' is not key=value");
      const std::string key = tok.substr(0, eq);
      HLP_REQUIRE(kv_.emplace(key, Value{tok.substr(eq + 1)}).second,
                  where_ << ": field '" << key << "' given twice");
    }
  }

  const std::string& at(const std::string& key) const {
    auto it = kv_.find(key);
    HLP_REQUIRE(it != kv_.end(),
                where_ << ": missing field '" << key << "'");
    it->second.read = true;
    return it->second.text;
  }

  /// `parse(at(key))`, with any error prefixed by the line and the key.
  template <typename Parse>
  auto as(const std::string& key, Parse parse) const {
    const std::string& v = at(key);
    try {
      return parse(v);
    } catch (const Error& e) {
      throw Error(where_ + ": field '" + key + "': " + e.what());
    }
  }

  double d(const std::string& key) const { return as(key, parse_double); }
  int i(const std::string& key) const { return as(key, parse_int); }
  std::uint64_t u(const std::string& key) const {
    return as(key, parse_u64);
  }
  std::size_t z(const std::string& key) const {
    return static_cast<std::size_t>(u(key));
  }
  bool b(const std::string& key) const { return as(key, parse_flag) == 1; }
  std::string s(const std::string& key) const {
    return as(key, decode_token);
  }

  /// Call after the last read: a field the loader never read is unknown.
  void finish() const {
    for (const auto& [key, value] : kv_)
      HLP_REQUIRE(value.read, where_ << ": unknown field '" << key << "'");
  }

 private:
  struct Value {
    std::string text;
    mutable bool read = false;
  };
  std::string where_;
  std::map<std::string, Value> kv_;
};

// Shared header/footer framing: "<magic> v1" ... "end <magic> <count>".
// The declared count is untrusted: callers never reserve for it, so an
// oversized one fails as a truncated frame, not as an allocation failure.
std::size_t read_header(LineReader& r, const char* magic) {
  LineRecord head = r.line(magic);
  HLP_REQUIRE(head.take() == "v1",
              head.where() << ": bad header (want '" << magic << " v1')");
  head.finish();
  LineRecord count = r.line("count");
  const std::uint64_t n = count.take(parse_u64);
  count.finish();
  return static_cast<std::size_t>(n);
}

void read_footer(LineReader& r, const char* magic, std::size_t expected) {
  LineRecord end = r.line("end");
  HLP_REQUIRE(end.take() == magic,
              end.where() << ": bad footer");
  const std::uint64_t n = end.take(parse_u64);
  HLP_REQUIRE(n == expected, end.where() << ": footer count " << n
                                         << " != declared count " << expected);
  end.finish();
}

// "endunit <id>": the trailer shared by both unit frame kinds.
void read_unit_trailer(LineReader& r, std::size_t id) {
  LineRecord end = r.line("endunit");
  HLP_REQUIRE(end.take(parse_u64) == id,
              end.where() << ": bad 'endunit' trailer (want 'endunit " << id
                          << "')");
  end.finish();
}

std::vector<ManifestJob> read_manifest(LineReader& r) {
  const std::size_t n = read_header(r, kManifestMagic);
  std::vector<ManifestJob> out;
  for (std::size_t k = 0; k < n; ++k) {
    const Fields f(r.line("job"));
    ManifestJob mj;
    mj.index = f.z("index");
    Job& j = mj.job;
    j.benchmark = f.s("benchmark");
    j.scheduler = f.s("scheduler");
    j.binder.name = f.s("binder");
    j.binder.alpha = f.d("alpha");
    j.binder.beta_add = f.d("beta_add");
    j.binder.beta_mult = f.d("beta_mult");
    j.binder.refine = f.b("refine");
    j.rc.adders = f.i("adders");
    j.rc.multipliers = f.i("mults");
    j.width = f.i("width");
    j.num_vectors = f.i("vectors");
    j.seed = f.u("seed");
    j.reg_seed = f.u("reg_seed");
    j.sched_spec.min_latency = f.i("min_latency");
    j.sched_spec.latency_slack = f.i("latency_slack");
    j.sim_engine = f.as("engine", parse_engine);
    j.sa = f.as("sa", parse_sa_mode);
    j.label = f.s("label");
    f.finish();
    out.push_back(std::move(mj));
  }
  read_footer(r, kManifestMagic, n);
  return out;
}

std::vector<ManifestResult> read_results(LineReader& r) {
  const std::size_t n = read_header(r, kResultsMagic);
  std::vector<ManifestResult> out;
  for (std::size_t k = 0; k < n; ++k) {
    const Fields head(r.line("result"));
    ManifestResult mr;
    mr.index = head.z("index");
    JobResult& res = mr.result;
    res.ok = head.b("ok");
    res.error = head.s("error");
    res.seconds = head.d("seconds");
    res.group_size = head.z("group_size");
    head.finish();
    if (!res.ok) {
      r.line("endresult").finish();
      out.push_back(std::move(mr));
      continue;
    }
    PipelineOutcome& o = res.outcome;
    read_binding(r, o.fus, o.refined, o.refine);
    {
      const Fields f(r.line("mux"));
      DatapathStats& m = o.flow.mux_stats;
      m.largest_mux = f.i("largest");
      m.mux_length = f.i("length");
      m.num_fus = f.i("fus");
      m.muxdiff_mean = f.d("mean");
      m.muxdiff_variance = f.d("var");
      f.finish();
    }
    o.flow.mux_stats.mux_size_a = r.counted_line("muxa", parse_int);
    o.flow.mux_stats.mux_size_b = r.counted_line("muxb", parse_int);
    o.flow.mux_stats.muxdiff = r.counted_line("muxdiff", parse_int);
    read_map(r, o.flow.mapped, o.flow.clock_period_ns);
    {
      const Fields f(r.line("sim"));
      o.flow.sim.num_cycles = f.u("cycles");
      o.flow.sim.total_transitions = f.u("total");
      o.flow.sim.functional_transitions = f.u("functional");
      f.finish();
    }
    o.flow.sim.toggles = r.counted_line("toggles", parse_u64);
    {
      const Fields f(r.line("power"));
      PowerReport& p = o.flow.report;
      p.dynamic_power_mw = f.d("dyn");
      p.clock_period_ns = f.d("clock");
      p.num_luts = f.i("luts");
      p.num_registers = f.i("regs");
      p.toggle_rate_mps = f.d("rate");
      p.transitions_per_cycle = f.d("tpc");
      p.glitch_fraction = f.d("glitch");
      f.finish();
    }
    {
      const Fields f(r.line("bind"));
      o.bind_seconds = f.d("seconds");
      f.finish();
    }
    o.cached_stages = r.counted_line("cached", decode_token);
    // Zero or more timing lines, then the record terminator.
    LineRecord t = r.line();
    for (; t.head() == "timing"; t = r.line()) {
      StageTiming timing;
      timing.name = t.take(decode_token);
      timing.seconds = t.take(parse_double);
      t.finish();
      o.timings.push_back(std::move(timing));
    }
    HLP_REQUIRE(t.head() == "endresult", t.where()
                                             << ": expected 'timing' or "
                                                "'endresult', got '"
                                             << t.head() << "'");
    t.finish();
    out.push_back(std::move(mr));
  }
  read_footer(r, kResultsMagic, n);
  return out;
}

}  // namespace

// ---- records shared with the artifact store ------------------------------

void write_binding(std::ostream& os, const FuBinding& fus, bool refined,
                   const PortRefineResult& refine) {
  write_counted_line(os, "fus", fus.fu_of_op);
  write_counted_line(os, "kinds", fus.kind_of_fu,
                     [](OpKind k) { return to_string(k); });
  write_counted_line(os, "flipped", fus.flipped,
                     [](char c) { return c != 0 ? 1 : 0; });
  os << "refine refined=" << (refined ? 1 : 0)
     << " flips=" << refine.flips_applied << " passes=" << refine.passes
     << " cost_before=" << fmt_double(refine.cost_before)
     << " cost_after=" << fmt_double(refine.cost_after) << "\n";
}

void read_binding(LineReader& r, FuBinding& fus, bool& refined,
                  PortRefineResult& refine) {
  fus.fu_of_op = r.counted_line("fus", parse_int);
  fus.kind_of_fu = r.counted_line("kinds", op_kind_from_name);
  fus.flipped = r.counted_line("flipped", parse_flag);
  const Fields f(r.line("refine"));
  refined = f.b("refined");
  refine.flips_applied = f.i("flips");
  refine.passes = f.i("passes");
  refine.cost_before = f.d("cost_before");
  refine.cost_after = f.d("cost_after");
  f.finish();
  if (refined) refine.fus = fus;
}

void write_map(std::ostream& os, const MapResult& mapped,
               double clock_period_ns) {
  os << "map luts=" << mapped.num_luts << " depth=" << mapped.depth
     << " clock=" << fmt_double(clock_period_ns) << "\n";
}

void read_map(LineReader& r, MapResult& mapped, double& clock_period_ns) {
  const Fields f(r.line("map"));
  mapped.num_luts = f.i("luts");
  mapped.depth = f.i("depth");
  clock_period_ns = f.d("clock");
  f.finish();
}

// ---- manifest ------------------------------------------------------------

void save_manifest(std::ostream& os, const std::vector<ManifestJob>& jobs) {
  os << kManifestMagic << " v1\n";
  os << "count " << jobs.size() << "\n";
  for (const ManifestJob& mj : jobs) {
    const Job& j = mj.job;
    os << "job index=" << mj.index
       << " benchmark=" << encode_token(j.benchmark)
       << " scheduler=" << encode_token(j.scheduler)
       << " binder=" << encode_token(j.binder.name)
       << " alpha=" << fmt_double(j.binder.alpha)
       << " beta_add=" << fmt_double(j.binder.beta_add)
       << " beta_mult=" << fmt_double(j.binder.beta_mult)
       << " refine=" << (j.binder.refine ? 1 : 0)
       << " adders=" << j.rc.adders << " mults=" << j.rc.multipliers
       << " width=" << j.width << " vectors=" << j.num_vectors
       << " seed=" << j.seed << " reg_seed=" << j.reg_seed
       << " min_latency=" << j.sched_spec.min_latency
       << " latency_slack=" << j.sched_spec.latency_slack
       << " engine=" << engine_name(j.sim_engine)
       // The SA mode is serialised RESOLVED (the parent's environment
       // applies here, once): it changes values, so a worker must never
       // re-consult its own HLP_SA_MODE.
       << " sa=" << sa_mode_name(effective_sa_mode(j.sa))
       << " label=" << encode_token(j.label) << "\n";
  }
  os << "end " << kManifestMagic << " " << jobs.size() << "\n";
}

std::vector<ManifestJob> load_manifest(std::istream& is) {
  LineReader r(is, "manifest", kSkipBlank);
  return read_manifest(r);
}

std::vector<ManifestJob> load_manifest_file(const std::string& path) {
  std::ifstream f(path);
  HLP_REQUIRE(f.good(), "cannot open manifest '" << path << "' for reading");
  return load_manifest(f);
}

// ---- results -------------------------------------------------------------

void save_results(std::ostream& os,
                  const std::vector<ManifestResult>& results) {
  os << kResultsMagic << " v1\n";
  os << "count " << results.size() << "\n";
  for (const ManifestResult& mr : results) {
    const JobResult& r = mr.result;
    os << "result index=" << mr.index << " ok=" << (r.ok ? 1 : 0)
       << " error=" << encode_token(r.error)
       << " seconds=" << fmt_double(r.seconds)
       << " group_size=" << r.group_size << "\n";
    if (r.ok) {
      const PipelineOutcome& o = r.outcome;
      write_binding(os, o.fus, o.refined, o.refine);
      const DatapathStats& m = o.flow.mux_stats;
      os << "mux largest=" << m.largest_mux << " length=" << m.mux_length
         << " fus=" << m.num_fus << " mean=" << fmt_double(m.muxdiff_mean)
         << " var=" << fmt_double(m.muxdiff_variance) << "\n";
      write_counted_line(os, "muxa", m.mux_size_a);
      write_counted_line(os, "muxb", m.mux_size_b);
      write_counted_line(os, "muxdiff", m.muxdiff);
      write_map(os, o.flow.mapped, o.flow.clock_period_ns);
      const CycleSimStats& s = o.flow.sim;
      os << "sim cycles=" << s.num_cycles << " total=" << s.total_transitions
         << " functional=" << s.functional_transitions << "\n";
      write_counted_line(os, "toggles", s.toggles);
      const PowerReport& p = o.flow.report;
      os << "power dyn=" << fmt_double(p.dynamic_power_mw)
         << " clock=" << fmt_double(p.clock_period_ns)
         << " luts=" << p.num_luts << " regs=" << p.num_registers
         << " rate=" << fmt_double(p.toggle_rate_mps)
         << " tpc=" << fmt_double(p.transitions_per_cycle)
         << " glitch=" << fmt_double(p.glitch_fraction) << "\n";
      os << "bind seconds=" << fmt_double(o.bind_seconds) << "\n";
      write_counted_line(os, "cached", o.cached_stages, encode_token);
      for (const StageTiming& t : o.timings)
        os << "timing " << encode_token(t.name) << " "
           << fmt_double(t.seconds) << "\n";
    }
    os << "endresult\n";
  }
  os << "end " << kResultsMagic << " " << results.size() << "\n";
}

std::vector<ManifestResult> load_results(std::istream& is) {
  LineReader r(is, "results file", kSkipBlank);
  return read_results(r);
}

void save_results_file(const std::string& path,
                       const std::vector<ManifestResult>& results) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp);
    HLP_REQUIRE(f.good(), "cannot open '" << tmp << "' for writing");
    save_results(f, results);
    f.flush();
    HLP_REQUIRE(f.good(), "write to '" << tmp << "' failed");
  }
  // Atomic publish: a results file either exists complete or not at all,
  // so a reader never sees a half-written file.
  HLP_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot move '" << tmp << "' to '" << path << "'");
}

std::vector<ManifestResult> load_results_file(const std::string& path) {
  std::ifstream f(path);
  HLP_REQUIRE(f.good(), "cannot open results '" << path << "' for reading");
  return load_results(f);
}

// ---- unit frames ---------------------------------------------------------

void save_unit_request(std::ostream& os, std::size_t id,
                       const std::vector<ManifestJob>& jobs) {
  os << "unit " << id << "\n";
  save_manifest(os, jobs);
  os << "endunit " << id << "\n";
}

void save_unit_quit(std::ostream& os) { os << "quit\n"; }

UnitRequest load_unit_request(std::istream& is) {
  LineReader r(is, "unit request", kSkipBlank);
  UnitRequest req;
  // End-of-stream before a frame starts is a clean quit, not a truncation
  // (the parent may simply close the pipe).
  std::optional<LineRecord> unit = r.next();
  if (!unit || unit->head() == "quit") {
    req.quit = true;
    return req;
  }
  HLP_REQUIRE(unit->head() == "unit",
              unit->where() << ": expected 'unit <id>' or 'quit', got '"
                            << unit->head() << "'");
  req.id = static_cast<std::size_t>(unit->take(parse_u64));
  unit->finish();
  req.jobs = read_manifest(r);
  read_unit_trailer(r, req.id);
  return req;
}

void save_unit_response(std::ostream& os, std::size_t id,
                        const std::vector<ManifestResult>& results) {
  os << "unitdone " << id << "\n";
  save_results(os, results);
  os << "endunit " << id << "\n";
}

UnitResponse load_unit_response(std::istream& is) {
  LineReader r(is, "unit response", kSkipBlank);
  UnitResponse resp;
  {
    LineRecord head = r.line("unitdone");
    resp.id = static_cast<std::size_t>(head.take(parse_u64));
    head.finish();
  }
  resp.results = read_results(r);
  read_unit_trailer(r, resp.id);
  return resp;
}

// ---- equality ------------------------------------------------------------

bool same_outcome(const JobResult& a, const JobResult& b) {
  if (a.ok != b.ok || a.error != b.error) return false;
  if (!a.ok) return true;
  const PipelineOutcome& x = a.outcome;
  const PipelineOutcome& y = b.outcome;
  const DatapathStats& mx = x.flow.mux_stats;
  const DatapathStats& my = y.flow.mux_stats;
  const auto refine_eq = [&] {
    if (x.refined != y.refined) return false;
    if (!x.refined) return true;
    return x.refine.flips_applied == y.refine.flips_applied &&
           x.refine.passes == y.refine.passes &&
           x.refine.cost_before == y.refine.cost_before &&
           x.refine.cost_after == y.refine.cost_after;
  };
  return x.fus.fu_of_op == y.fus.fu_of_op &&
         x.fus.kind_of_fu == y.fus.kind_of_fu &&
         x.fus.flipped == y.fus.flipped && refine_eq() &&
         mx.largest_mux == my.largest_mux &&
         mx.mux_length == my.mux_length && mx.num_fus == my.num_fus &&
         mx.muxdiff_mean == my.muxdiff_mean &&
         mx.muxdiff_variance == my.muxdiff_variance &&
         mx.mux_size_a == my.mux_size_a && mx.mux_size_b == my.mux_size_b &&
         mx.muxdiff == my.muxdiff &&
         x.flow.mapped.num_luts == y.flow.mapped.num_luts &&
         x.flow.mapped.depth == y.flow.mapped.depth &&
         x.flow.clock_period_ns == y.flow.clock_period_ns &&
         x.flow.sim.toggles == y.flow.sim.toggles &&
         x.flow.sim.num_cycles == y.flow.sim.num_cycles &&
         x.flow.sim.total_transitions == y.flow.sim.total_transitions &&
         x.flow.sim.functional_transitions ==
             y.flow.sim.functional_transitions &&
         x.flow.report.dynamic_power_mw == y.flow.report.dynamic_power_mw &&
         x.flow.report.clock_period_ns == y.flow.report.clock_period_ns &&
         x.flow.report.num_luts == y.flow.report.num_luts &&
         x.flow.report.num_registers == y.flow.report.num_registers &&
         x.flow.report.toggle_rate_mps == y.flow.report.toggle_rate_mps &&
         x.flow.report.transitions_per_cycle ==
             y.flow.report.transitions_per_cycle &&
         x.flow.report.glitch_fraction == y.flow.report.glitch_fraction;
}

}  // namespace hlp::flow
