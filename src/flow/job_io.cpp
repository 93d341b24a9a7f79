#include "flow/job_io.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ios>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace hlp::flow {

namespace {

constexpr const char* kManifestMagic = "hlp-manifest";
constexpr const char* kResultsMagic = "hlp-results";

bool needs_escape(unsigned char c) {
  return c == '%' || std::isspace(c) || !std::isprint(c);
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// ---- scalar round-trip helpers ------------------------------------------

// Hexfloat survives the text round trip bit for bit (operator>> cannot
// parse hexfloat portably, so reads go through strtod, which can).
std::string fmt_double(double d) {
  std::ostringstream os;
  os << std::hexfloat << d;
  return os.str();
}

double parse_double(const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  HLP_REQUIRE(end != s.c_str() && *end == '\0' && errno != ERANGE,
              "bad double '" << s << "'");
  return v;
}

long long parse_i64(const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  HLP_REQUIRE(end != s.c_str() && *end == '\0' && errno != ERANGE,
              "bad integer '" << s << "'");
  return v;
}

std::uint64_t parse_u64(const std::string& s) {
  HLP_REQUIRE(!s.empty() && s[0] != '-', "bad unsigned '" << s << "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  HLP_REQUIRE(end != s.c_str() && *end == '\0' && errno != ERANGE,
              "bad unsigned '" << s << "'");
  return v;
}

int parse_int(const std::string& s) {
  const long long v = parse_i64(s);
  HLP_REQUIRE(v >= INT_MIN && v <= INT_MAX, "integer '" << s << "' overflows");
  return static_cast<int>(v);
}

const char* engine_name(SimEngine e) {
  return e == SimEngine::kScalar ? "scalar" : "batched";
}

SimEngine parse_engine(const std::string& s) {
  if (s == "scalar") return SimEngine::kScalar;
  if (s == "batched") return SimEngine::kBatched;
  HLP_REQUIRE(false, "unknown sim engine '" << s << "'");
}

OpKind parse_op_kind(const std::string& s) {
  if (s == "add") return OpKind::kAdd;
  if (s == "mult") return OpKind::kMult;
  HLP_REQUIRE(false, "unknown op kind '" << s << "'");
}

// ---- line tokenization ---------------------------------------------------

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

// key=value fields of one record line (everything after the leading
// keyword). Strict, so a frame from a different writer fails instead of
// being half-read: a key given twice, a missing key, a malformed value
// and — once finish() runs — a key the loader never read are errors that
// name the key and the line.
class Fields {
 public:
  Fields(const std::vector<std::string>& toks, std::size_t first,
         const std::string& what, int lineno)
      : where_(what + " line " + std::to_string(lineno)) {
    for (std::size_t i = first; i < toks.size(); ++i) {
      const auto eq = toks[i].find('=');
      HLP_REQUIRE(eq != std::string::npos,
                  where_ << ": field '" << toks[i] << "' is not key=value");
      const std::string key = toks[i].substr(0, eq);
      HLP_REQUIRE(kv_.emplace(key, Value{toks[i].substr(eq + 1)}).second,
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
  bool b(const std::string& key) const {
    const std::string& v = at(key);
    HLP_REQUIRE(v == "0" || v == "1", where_ << ": field '" << key << "="
                                             << v << "' must be 0 or 1");
    return v == "1";
  }
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

// Reader that tracks line numbers for error messages and detects files cut
// short: next_line() on a stream that ends before the footer throws.
class LineReader {
 public:
  explicit LineReader(std::istream& is, const std::string& what)
      : is_(is), what_(what) {}

  std::string next_line() {
    std::string line;
    while (std::getline(is_, line)) {
      ++lineno_;
      if (!tokens_of(line).empty()) return line;  // skip blank lines
    }
    HLP_REQUIRE(false, what_ << " truncated: unexpected end of file after line "
                             << lineno_ << " (missing 'end' footer?)");
  }

  int lineno() const { return lineno_; }

 private:
  std::istream& is_;
  std::string what_;
  int lineno_ = 0;
};

// The next line as a `<keyword> key=value ...` record.
Fields next_record(LineReader& r, const char* keyword,
                   const std::string& what) {
  const auto toks = tokens_of(r.next_line());
  HLP_REQUIRE(toks[0] == keyword, what << ": expected '" << keyword
                                       << "' line (line " << r.lineno()
                                       << ")");
  return Fields(toks, 1, what, r.lineno());
}

// Shared header/footer framing: "<magic> v1" ... "end <magic> <count>".
std::size_t read_header(LineReader& r, const char* magic,
                        const std::string& what) {
  const auto head = tokens_of(r.next_line());
  HLP_REQUIRE(head.size() == 2 && head[0] == magic && head[1] == "v1",
              what << ": bad header (want '" << magic << " v1')");
  const auto count = tokens_of(r.next_line());
  HLP_REQUIRE(count.size() == 2 && count[0] == "count",
              what << ": bad count line");
  return static_cast<std::size_t>(parse_u64(count[1]));
}

void check_footer(const std::vector<std::string>& toks, const char* magic,
                  std::size_t expected, const std::string& what) {
  HLP_REQUIRE(toks.size() == 3 && toks[0] == "end" && toks[1] == magic,
              what << ": bad footer");
  HLP_REQUIRE(parse_u64(toks[2]) == expected,
              what << ": footer count " << toks[2] << " != declared count "
                   << expected);
}

// ---- vector lines: "<name> <count> <v0> <v1> ..." ------------------------

template <typename T, typename Fmt>
void save_vec(std::ostream& os, const char* name, const std::vector<T>& v,
              Fmt fmt) {
  os << name << " " << v.size();
  for (const T& x : v) os << " " << fmt(x);
  os << "\n";
}

template <typename T, typename Parse>
std::vector<T> load_vec(const std::vector<std::string>& toks, const char* name,
                        Parse parse, const std::string& what) {
  HLP_REQUIRE(toks.size() >= 2 && toks[0] == name,
              what << ": expected '" << name << "' line, got '"
                   << (toks.empty() ? std::string() : toks[0]) << "'");
  const std::size_t n = static_cast<std::size_t>(parse_u64(toks[1]));
  HLP_REQUIRE(toks.size() == 2 + n,
              what << ": '" << name << "' declares " << n << " values, has "
                   << toks.size() - 2);
  std::vector<T> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(parse(toks[2 + i]));
  return out;
}

}  // namespace

std::string encode_token(const std::string& s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (needs_escape(u)) {
      out += '%';
      out += hex[u >> 4];
      out += hex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::string decode_token(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    HLP_REQUIRE(i + 2 < s.size() && hex_digit(s[i + 1]) >= 0 &&
                    hex_digit(s[i + 2]) >= 0,
                "malformed %-escape in '" << s << "'");
    out += static_cast<char>(hex_digit(s[i + 1]) * 16 + hex_digit(s[i + 2]));
    i += 2;
  }
  return out;
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
  const std::string what = "manifest";
  LineReader r(is, what);
  // No reserve(n): the count is untrusted input, and an oversized one must
  // fail as a truncated frame, not as an allocation failure.
  const std::size_t n = read_header(r, kManifestMagic, what);
  std::vector<ManifestJob> out;
  for (std::size_t k = 0; k < n; ++k) {
    const Fields f = next_record(r, "job", what);
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
  check_footer(tokens_of(r.next_line()), kManifestMagic, n, what);
  return out;
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
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  const auto i32 = [](int v) { return std::to_string(v); };
  for (const ManifestResult& mr : results) {
    const JobResult& r = mr.result;
    os << "result index=" << mr.index << " ok=" << (r.ok ? 1 : 0)
       << " error=" << encode_token(r.error)
       << " seconds=" << fmt_double(r.seconds)
       << " group_size=" << r.group_size << "\n";
    if (r.ok) {
      const PipelineOutcome& o = r.outcome;
      save_vec(os, "fus", o.fus.fu_of_op, i32);
      save_vec(os, "kinds", o.fus.kind_of_fu,
               [](OpKind k) { return std::string(to_string(k)); });
      save_vec(os, "flipped", o.fus.flipped,
               [](char c) { return std::to_string(c != 0 ? 1 : 0); });
      os << "refine refined=" << (o.refined ? 1 : 0)
         << " flips=" << o.refine.flips_applied
         << " passes=" << o.refine.passes
         << " cost_before=" << fmt_double(o.refine.cost_before)
         << " cost_after=" << fmt_double(o.refine.cost_after) << "\n";
      const DatapathStats& m = o.flow.mux_stats;
      os << "mux largest=" << m.largest_mux << " length=" << m.mux_length
         << " fus=" << m.num_fus << " mean=" << fmt_double(m.muxdiff_mean)
         << " var=" << fmt_double(m.muxdiff_variance) << "\n";
      save_vec(os, "muxa", m.mux_size_a, i32);
      save_vec(os, "muxb", m.mux_size_b, i32);
      save_vec(os, "muxdiff", m.muxdiff, i32);
      os << "map luts=" << o.flow.mapped.num_luts
         << " depth=" << o.flow.mapped.depth
         << " clock=" << fmt_double(o.flow.clock_period_ns) << "\n";
      const CycleSimStats& s = o.flow.sim;
      os << "sim cycles=" << s.num_cycles << " total=" << s.total_transitions
         << " functional=" << s.functional_transitions << "\n";
      save_vec(os, "toggles", s.toggles, u64);
      const PowerReport& p = o.flow.report;
      os << "power dyn=" << fmt_double(p.dynamic_power_mw)
         << " clock=" << fmt_double(p.clock_period_ns)
         << " luts=" << p.num_luts << " regs=" << p.num_registers
         << " rate=" << fmt_double(p.toggle_rate_mps)
         << " tpc=" << fmt_double(p.transitions_per_cycle)
         << " glitch=" << fmt_double(p.glitch_fraction) << "\n";
      os << "bind seconds=" << fmt_double(o.bind_seconds) << "\n";
      save_vec(os, "cached", o.cached_stages, encode_token);
      for (const StageTiming& t : o.timings)
        os << "timing " << encode_token(t.name) << " "
           << fmt_double(t.seconds) << "\n";
    }
    os << "endresult\n";
  }
  os << "end " << kResultsMagic << " " << results.size() << "\n";
}

std::vector<ManifestResult> load_results(std::istream& is) {
  const std::string what = "results file";
  LineReader r(is, what);
  const std::size_t n = read_header(r, kResultsMagic, what);
  std::vector<ManifestResult> out;  // no reserve(n): see load_manifest
  for (std::size_t k = 0; k < n; ++k) {
    const Fields head = next_record(r, "result", what);
    ManifestResult mr;
    mr.index = head.z("index");
    JobResult& res = mr.result;
    res.ok = head.b("ok");
    res.error = head.s("error");
    res.seconds = head.d("seconds");
    res.group_size = head.z("group_size");
    head.finish();
    std::vector<std::string> toks;
    if (res.ok) {
      PipelineOutcome& o = res.outcome;
      const auto as_int = [](const std::string& s) { return parse_int(s); };
      o.fus.fu_of_op = load_vec<int>(tokens_of(r.next_line()), "fus", as_int,
                                     what);
      o.fus.kind_of_fu = load_vec<OpKind>(tokens_of(r.next_line()), "kinds",
                                          parse_op_kind, what);
      o.fus.flipped = load_vec<char>(
          tokens_of(r.next_line()), "flipped",
          [](const std::string& s) {
            return static_cast<char>(parse_int(s) != 0 ? 1 : 0);
          },
          what);
      {
        const Fields f = next_record(r, "refine", what);
        o.refined = f.b("refined");
        o.refine.flips_applied = f.i("flips");
        o.refine.passes = f.i("passes");
        o.refine.cost_before = f.d("cost_before");
        o.refine.cost_after = f.d("cost_after");
        f.finish();
        // The pipeline publishes the refined binding as out.fus too, so
        // the record does not duplicate it.
        if (o.refined) o.refine.fus = o.fus;
      }
      {
        const Fields f = next_record(r, "mux", what);
        DatapathStats& m = o.flow.mux_stats;
        m.largest_mux = f.i("largest");
        m.mux_length = f.i("length");
        m.num_fus = f.i("fus");
        m.muxdiff_mean = f.d("mean");
        m.muxdiff_variance = f.d("var");
        f.finish();
      }
      o.flow.mux_stats.mux_size_a =
          load_vec<int>(tokens_of(r.next_line()), "muxa", as_int, what);
      o.flow.mux_stats.mux_size_b =
          load_vec<int>(tokens_of(r.next_line()), "muxb", as_int, what);
      o.flow.mux_stats.muxdiff =
          load_vec<int>(tokens_of(r.next_line()), "muxdiff", as_int, what);
      {
        const Fields f = next_record(r, "map", what);
        o.flow.mapped.num_luts = f.i("luts");
        o.flow.mapped.depth = f.i("depth");
        o.flow.clock_period_ns = f.d("clock");
        f.finish();
      }
      {
        const Fields f = next_record(r, "sim", what);
        o.flow.sim.num_cycles = f.u("cycles");
        o.flow.sim.total_transitions = f.u("total");
        o.flow.sim.functional_transitions = f.u("functional");
        f.finish();
      }
      o.flow.sim.toggles = load_vec<std::uint64_t>(
          tokens_of(r.next_line()), "toggles",
          [](const std::string& s) { return parse_u64(s); }, what);
      {
        const Fields f = next_record(r, "power", what);
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
        const Fields f = next_record(r, "bind", what);
        o.bind_seconds = f.d("seconds");
        f.finish();
      }
      o.cached_stages = load_vec<std::string>(
          tokens_of(r.next_line()), "cached", decode_token, what);
      // Zero or more timing lines, then the record terminator.
      while (true) {
        toks = tokens_of(r.next_line());
        if (toks[0] == "endresult") break;
        HLP_REQUIRE(toks.size() == 3 && toks[0] == "timing",
                    what << ": expected 'timing' or 'endresult' (line "
                         << r.lineno() << ")");
        o.timings.push_back({decode_token(toks[1]), parse_double(toks[2])});
      }
    } else {
      toks = tokens_of(r.next_line());
      HLP_REQUIRE(toks.size() == 1 && toks[0] == "endresult",
                  what << ": failed result record must end at 'endresult' "
                          "(line "
                       << r.lineno() << ")");
    }
    out.push_back(std::move(mr));
  }
  check_footer(tokens_of(r.next_line()), kResultsMagic, n, what);
  return out;
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

namespace {

// The `endunit <id>` trailer shared by both frame kinds. Reads through a
// fresh LineReader so EOF before the trailer throws "truncated".
void check_unit_trailer(std::istream& is, std::size_t id,
                        const std::string& what) {
  LineReader r(is, what);
  const auto toks = tokens_of(r.next_line());
  HLP_REQUIRE(toks.size() == 2 && toks[0] == "endunit" &&
                  parse_u64(toks[1]) == id,
              what << ": bad 'endunit' trailer (want 'endunit " << id
                   << "')");
}

}  // namespace

void save_unit_request(std::ostream& os, std::size_t id,
                       const std::vector<ManifestJob>& jobs) {
  os << "unit " << id << "\n";
  save_manifest(os, jobs);
  os << "endunit " << id << "\n";
}

void save_unit_quit(std::ostream& os) { os << "quit\n"; }

UnitRequest load_unit_request(std::istream& is) {
  const std::string what = "unit request";
  UnitRequest req;
  // The opening line is read leniently: end-of-stream here is a clean
  // quit, not a truncation (the parent may simply close the pipe).
  std::string line;
  std::vector<std::string> head;
  while (std::getline(is, line)) {
    head = tokens_of(line);
    if (!head.empty()) break;
  }
  if (head.empty() || head[0] == "quit") {
    req.quit = true;
    return req;
  }
  HLP_REQUIRE(head.size() == 2 && head[0] == "unit",
              what << ": expected 'unit <id>' or 'quit', got '" << line
                   << "'");
  req.id = static_cast<std::size_t>(parse_u64(head[1]));
  req.jobs = load_manifest(is);
  check_unit_trailer(is, req.id, what);
  return req;
}

void save_unit_response(std::ostream& os, std::size_t id,
                        const std::vector<ManifestResult>& results) {
  os << "unitdone " << id << "\n";
  save_results(os, results);
  os << "endunit " << id << "\n";
}

UnitResponse load_unit_response(std::istream& is) {
  const std::string what = "unit response";
  LineReader r(is, what);
  const auto head = tokens_of(r.next_line());
  HLP_REQUIRE(head.size() == 2 && head[0] == "unitdone",
              what << ": expected 'unitdone <id>' header");
  UnitResponse resp;
  resp.id = static_cast<std::size_t>(parse_u64(head[1]));
  resp.results = load_results(is);
  check_unit_trailer(is, resp.id, what);
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
