#include "store/artifact_store.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <signal.h>
#include <sstream>
#include <unistd.h>

#include "common/error.hpp"
#include "common/text_codec.hpp"
#include "flow/job_io.hpp"

namespace hlp::store {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "hlp-artifact";
// Bump whenever the key or payload layout changes: an object written in an
// older layout is then rejected by its version line (and recomputed)
// instead of failing on whichever field moved.
constexpr const char* kVersion = "v6";
// Objects are canonical (publish compares bytes), so a blank line is a
// defect, not padding.
constexpr auto kRejectBlank = LineReader::Blank::kReject;
// Magic, key and payload-count lines precede the payload.
constexpr int kHeaderLines = 3;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- Netlist -------------------------------------------------------------

void save_netlist(std::ostream& os, const Netlist& n) {
  os << "netlist " << encode_token(n.name()) << ' ' << n.num_nets() << ' '
     << n.num_gates() << ' ' << n.num_latches() << ' ' << n.outputs().size()
     << '\n';
  for (NetId id = 0; id < n.num_nets(); ++id)
    os << "net " << encode_token(n.net_name(id)) << ' '
       << (n.is_input(id) ? 1 : 0) << '\n';
  for (const Gate& g : n.gates()) {
    os << "gate " << g.out << ' ' << g.tt.num_inputs() << ' ' << g.tt.bits();
    write_counted(os, g.ins);
    os << '\n';
  }
  for (const Latch& l : n.latches()) os << "latch " << l.q << ' ' << l.d << '\n';
  write_counted_line(os, "outs", n.outputs());
}

Netlist load_netlist(LineReader& r) {
  LineRecord hdr = r.line("netlist");
  Netlist n(hdr.take(decode_token));
  const int nets = hdr.take(parse_int);
  const int gates = hdr.take(parse_int);
  const int latches = hdr.take(parse_int);
  const int outs = hdr.take(parse_int);
  hdr.finish();
  HLP_REQUIRE(nets >= 0 && gates >= 0 && latches >= 0 && outs >= 0,
              hdr.where() << ": negative netlist counts");
  for (int id = 0; id < nets; ++id) {
    LineRecord net = r.line("net");
    const std::string name = net.take(decode_token);
    const int is_input = net.take(parse_int);
    net.finish();
    // Nets are serialised in id order, so re-adding in line order rebuilds
    // identical ids (inputs() is creation order, i.e. ascending too).
    const NetId got = is_input ? n.add_input(name) : n.add_net(name);
    HLP_REQUIRE(got == id, net.where() << ": net ids out of order");
  }
  for (int g = 0; g < gates; ++g) {
    LineRecord gate = r.line("gate");
    const NetId out = gate.take(parse_int);
    const int k = gate.take(parse_int);
    const std::uint64_t bits = gate.take(parse_u64);
    std::vector<NetId> ins = gate.take_counted(parse_int);
    gate.finish();
    HLP_REQUIRE(k >= 0 && k <= kMaxTtInputs,
                gate.where() << ": gate fanin " << k << " out of range");
    n.add_gate(out, std::move(ins), TruthTable(k, bits));
  }
  for (int l = 0; l < latches; ++l) {
    LineRecord latch = r.line("latch");
    const NetId q = latch.take(parse_int);
    const NetId d = latch.take(parse_int);
    latch.finish();
    n.add_latch(q, d);
  }
  const std::vector<int> outputs = r.counted_line("outs", parse_int);
  HLP_REQUIRE(static_cast<int>(outputs.size()) == outs,
              r.what() << ": outs count disagrees with the netlist header");
  for (const NetId o : outputs) n.add_output(o);
  n.validate();
  return n;
}

// --- Entry payload -------------------------------------------------------

// The binding and map records are the job frame's (flow/job_io.hpp).
void save_entry(std::ostream& os, const ArtifactStore::Entry& e) {
  flow::write_binding(os, e.fus, e.refined, e.refine);
  flow::write_map(os, e.mapped, e.clock_period_ns);
  os << "datapath " << e.plan.width << ' ' << e.plan.num_phases << '\n';
  write_counted_line(os, "datapos", e.plan.data_input_pos);
  os << "controls " << e.plan.controls.size() << '\n';
  for (const ControlGroup& c : e.plan.controls) {
    os << "ctl " << encode_token(c.name);
    write_counted(os, c.input_positions);
    write_counted(os, c.select_by_phase);
    os << '\n';
  }
  save_netlist(os, e.mapped.lut_netlist);
}

// The lane engines index the mapped netlist's inputs by the datapath plan
// without a bounds check, so a plan that does not fit that netlist is as
// corrupt as a bad checksum.
void check_plan_fits(const std::string& what, const ArtifactStore::Entry& e) {
  const DatapathPlan& dp = e.plan;
  HLP_REQUIRE(dp.width >= 1 && dp.width <= 64,
              what << ": datapath width " << dp.width << " outside [1, 64]");
  HLP_REQUIRE(dp.num_phases >= 1,
              what << ": datapath num_phases " << dp.num_phases << " < 1");
  const int inputs = static_cast<int>(e.mapped.lut_netlist.inputs().size());
  for (const int pos : dp.data_input_pos)
    HLP_REQUIRE(pos >= 0 && pos <= inputs - dp.width,
                what << ": datapos bus at " << pos << " of width " << dp.width
                     << " does not fit " << inputs << " inputs");
  for (const ControlGroup& c : dp.controls) {
    // Bit k of an int select value drives input position k.
    HLP_REQUIRE(c.input_positions.size() <= 32,
                what << ": ctl '" << c.name << "' has "
                     << c.input_positions.size()
                     << " input positions, a select value holds 32");
    for (const int pos : c.input_positions)
      HLP_REQUIRE(pos >= 0 && pos < inputs,
                  what << ": ctl '" << c.name << "' input position " << pos
                       << " outside " << inputs << " inputs");
    HLP_REQUIRE(c.select_by_phase.size() ==
                    static_cast<std::size_t>(dp.num_phases),
                what << ": ctl '" << c.name << "' has "
                     << c.select_by_phase.size() << " selects, datapath has "
                     << dp.num_phases << " phases");
  }
}

ArtifactStore::Entry load_entry(LineReader& r) {
  ArtifactStore::Entry e;
  flow::read_binding(r, e.fus, e.refined, e.refine);
  flow::read_map(r, e.mapped, e.clock_period_ns);
  {
    LineRecord l = r.line("datapath");
    e.plan.width = l.take(parse_int);
    e.plan.num_phases = l.take(parse_int);
    l.finish();
  }
  e.plan.data_input_pos = r.counted_line("datapos", parse_int);
  LineRecord controls = r.line("controls");
  const std::uint64_t n = controls.take(parse_u64);
  controls.finish();
  // No reserve(n): each control group is a line, and a count beyond the
  // lines present fails as a truncation.
  for (std::uint64_t c = 0; c < n; ++c) {
    LineRecord ctl = r.line("ctl");
    ControlGroup group;
    group.name = ctl.take(decode_token);
    group.input_positions = ctl.take_counted(parse_int);
    group.select_by_phase = ctl.take_counted(parse_int);
    ctl.finish();
    e.plan.controls.push_back(std::move(group));
  }
  e.mapped.lut_netlist = load_netlist(r);
  HLP_REQUIRE(r.at_end(), r.what() << ": trailing payload lines");
  check_plan_fits(r.what(), e);
  return e;
}

// now - mtime in whole seconds, clamped at 0 (clock skew between the
// writer and this reader must not produce negative ages).
std::int64_t age_seconds_of(const fs::path& p) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(p, ec);
  if (ec) return 0;
  const auto age = fs::file_time_type::clock::now() - mtime;
  const auto secs =
      std::chrono::duration_cast<std::chrono::seconds>(age).count();
  return secs < 0 ? 0 : static_cast<std::int64_t>(secs);
}

// All committed objects, sorted by filename so every report that walks
// the store is deterministic regardless of directory iteration order.
std::vector<fs::path> sorted_objects(const std::string& objects_dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(objects_dir, ec)) {
    if (de.is_regular_file() && de.path().extension() == ".art")
      files.push_back(de.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// A staging dir is stale when the writer that owns it is provably gone:
// its `p<pid>-<n>` name carries a pid that no longer exists, or — for
// unparseable names and recycled-pid doubt — it has sat untouched far
// longer than any staged write lives (commits rename out immediately).
constexpr std::int64_t kStaleStagingAgeSeconds = 24 * 60 * 60;

bool staging_dir_is_stale(const fs::path& dir) {
  const std::string name = dir.filename().string();
  const std::size_t dash = name.find('-');
  int pid = 0;
  if (!name.empty() && name[0] == 'p' && dash != std::string::npos) {
    try {
      pid = parse_int(std::string_view(name).substr(1, dash - 1));
    } catch (const Error&) {
      pid = 0;  // not a writer's name: judged by age
    }
  }
  if (pid > 0) {
    if (::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH)
      return true;  // owner is dead; its litter can never be committed
    return false;   // owner (or a pid reuse) is alive — leave it alone
  }
  return age_seconds_of(dir) > kStaleStagingAgeSeconds;
}

// One object file as read from disk: its bytes and their strict parse.
struct StoredObject {
  std::string bytes;
  LoadedArtifact art;
};

// The one read of an object file, behind find, load_strict, merge_from,
// fsck, gc and the overlap decision: nullopt when `path` does not exist;
// otherwise its bytes, strictly parsed, with the recorded key checked
// against `want` when the caller asks for one key, else against the file
// name, which catches renamed and planted files. Throws hlp::Error naming
// the defect.
std::optional<StoredObject> read_object(const std::string& path,
                                        const ArtifactKey* want) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return std::nullopt;
  StoredObject obj;
  obj.bytes.assign(std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>());
  obj.art = ArtifactStore::parse(obj.bytes, "'" + path + "'");
  const ArtifactKey& got = obj.art.key;
  if (want) {
    HLP_REQUIRE(got == *want, "artifact '" << path << "': key mismatch "
                                           << "(address collision or "
                                           << "tampered key)");
  } else {
    HLP_REQUIRE(ArtifactStore::content_address(got) + ".art" ==
                    fs::path(path).filename().string(),
                "artifact '" << path << "': file name does not match its "
                             << "content address (renamed or tampered)");
  }
  return obj;
}

// read_object() for a file that must exist.
StoredObject read_existing(const std::string& path, const ArtifactKey* want) {
  std::optional<StoredObject> obj = read_object(path, want);
  HLP_REQUIRE(obj, "cannot open artifact '" << path << "'");
  return std::move(*obj);
}

// Why the committed object `p` is invalid; nullopt when it is valid.
std::optional<std::string> defect_of(const fs::path& p) {
  try {
    read_existing(p.string(), nullptr);
    return std::nullopt;
  } catch (const std::exception& e) {
    return e.what();
  }
}

// The overlap decision behind publish and merge_from: whether `bytes` for
// `key` must be written to `path`. Absent, invalid and misplaced objects
// there are written over (crash litter, bit rot, planted files: a
// repair). Identical bytes, and a valid object of another key that hashes
// to this address (a genuine collision: first owner wins), are kept. A
// valid object of the same key with other bytes throws: every producer is
// deterministic, so the two configurations that disagree are sharing a
// store they must not.
bool must_write(const std::string& path, const ArtifactKey& key,
                const std::string& bytes) {
  std::optional<StoredObject> existing;
  try {
    existing = read_object(path, nullptr);
  } catch (const std::exception&) {
    return true;
  }
  if (!existing) return true;
  if (existing->bytes == bytes) return false;
  HLP_REQUIRE(existing->art.key != key,
              "artifact store conflict on '"
                  << path << "': an existing valid entry for the same key "
                  << "disagrees with the incoming bytes");
  return false;
}

}  // namespace

std::string ArtifactStore::content_address(const ArtifactKey& key) {
  return hex64(fnv1a64(key.binding));
}

std::string ArtifactStore::object_path(const ArtifactKey& key) const {
  return objects_ + "/" + content_address(key) + ".art";
}

std::string ArtifactStore::serialize(const ArtifactKey& key,
                                     const Entry& entry) {
  std::ostringstream payload;
  save_entry(payload, entry);
  const std::string body = payload.str();
  const std::size_t lines =
      static_cast<std::size_t>(std::count(body.begin(), body.end(), '\n'));
  std::ostringstream os;
  os << kMagic << ' ' << kVersion << '\n';
  os << "key " << encode_token(key.binding) << '\n';
  os << "payload " << lines << '\n';
  os << body;
  os << "sum " << hex64(fnv1a64(body)) << '\n';
  os << "end " << kMagic << ' ' << lines << '\n';
  return os.str();
}

LoadedArtifact ArtifactStore::parse(const std::string& bytes,
                                    const std::string& what) {
  std::istringstream is(bytes);
  LineReader r(is, "artifact " + what, kRejectBlank);
  {
    LineRecord head = r.line(kMagic);
    const std::string& version = head.take();
    HLP_REQUIRE(version == kVersion, head.where() << ": unsupported version '"
                                                  << version << "'");
    head.finish();
  }
  LoadedArtifact art;
  {
    LineRecord key = r.line("key");
    art.key.binding = key.take(decode_token);
    key.finish();
  }
  LineRecord counted = r.line("payload");
  const std::uint64_t lines = counted.take(parse_u64);
  counted.finish();
  // Capture the raw payload bytes first: the checksum must vet them
  // before any semantic parse, so a bit flip is reported as corruption
  // rather than whatever parse error it happens to trip.
  std::string body;
  for (std::uint64_t i = 0; i < lines; ++i) {
    body += r.raw("a payload line");
    body += '\n';
  }
  LineRecord sum = r.line("sum");
  HLP_REQUIRE(sum.take() == hex64(fnv1a64(body)),
              sum.where() << ": payload checksum mismatch");
  sum.finish();
  LineRecord footer = r.line("end");
  HLP_REQUIRE(footer.take() == kMagic && footer.take(parse_u64) == lines,
              footer.where() << ": bad footer");
  footer.finish();
  HLP_REQUIRE(r.at_end(), r.what() << ": trailing bytes after the footer");
  std::istringstream payload_is(body);
  LineReader payload(payload_is, r.what(), kRejectBlank, kHeaderLines);
  art.entry = load_entry(payload);
  return art;
}

ArtifactStore::ArtifactStore(const std::string& root) : root_(root) {
  HLP_REQUIRE(!root_.empty(), "artifact store root path is empty");
  objects_ = root_ + "/objects";
  // Per-handle staging dir: many processes (and many handles within one)
  // share a store, so staged writes never collide before their rename.
  static std::atomic<std::uint64_t> handle_seq{0};
  staging_ = root_ + "/staging/p" + std::to_string(::getpid()) + "-" +
             std::to_string(handle_seq.fetch_add(1));
  std::error_code ec;
  fs::create_directories(objects_, ec);
  HLP_REQUIRE(!ec && fs::is_directory(objects_),
              "cannot create artifact store objects dir '" << objects_ << "'"
                  << (ec ? ": " + ec.message() : std::string()));
  fs::create_directories(staging_, ec);
  HLP_REQUIRE(!ec && fs::is_directory(staging_),
              "cannot create artifact store staging dir '" << staging_ << "'"
                  << (ec ? ": " + ec.message() : std::string()));
}

ArtifactStore::~ArtifactStore() {
  std::error_code ec;
  fs::remove_all(staging_, ec);  // best effort; litter is harmless
}

std::shared_ptr<const ArtifactStore::Entry> ArtifactStore::load_strict(
    const ArtifactKey& key) const {
  return std::make_shared<const Entry>(
      read_existing(object_path(key), &key).art.entry);
}

std::shared_ptr<const ArtifactStore::Entry> ArtifactStore::find(
    const ArtifactKey& key) {
  try {
    std::optional<StoredObject> obj = read_object(object_path(key), &key);
    if (!obj) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return std::make_shared<const Entry>(std::move(obj->art.entry));
  } catch (const std::exception&) {
    // Corruption costs a recompute, never an error — and never partial
    // state: the bad object stays untouched until a publish repairs it.
    ++rejected_;
    return nullptr;
  }
}

void ArtifactStore::write_object(const std::string& path,
                                 const std::string& bytes) {
  const std::string tmp =
      staging_ + "/" + std::to_string(tmp_seq_.fetch_add(1)) + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os << bytes;
    HLP_REQUIRE(os.good(), "cannot write artifact staging file '" << tmp
                                                                  << "'");
  }
  HLP_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot move '" << tmp << "' to '" << path << "'");
  ++publishes_;
}

void ArtifactStore::publish(const ArtifactKey& key, const Entry& entry) {
  const std::string path = object_path(key);
  const std::string blob = serialize(key, entry);
  if (must_write(path, key, blob)) write_object(path, blob);
}

std::size_t ArtifactStore::merge_from(const std::string& other_root) {
  const fs::path src = fs::path(other_root) / "objects";
  std::error_code ec;
  HLP_REQUIRE(fs::is_directory(src, ec),
              "artifact store merge source '" << other_root
                                              << "' has no objects/ dir");
  // Stage strictly before writing anything: a corrupt source entry or an
  // overlap conflict rejects the whole merge with this store untouched.
  std::vector<StoredObject> staged;
  for (const fs::path& file : sorted_objects(src.string()))
    staged.push_back(read_existing(file.string(), nullptr));
  std::vector<const StoredObject*> writes;
  for (const StoredObject& s : staged)
    if (must_write(object_path(s.art.key), s.art.key, s.bytes))
      writes.push_back(&s);
  for (const StoredObject* s : writes)
    write_object(object_path(s->art.key), s->bytes);
  return writes.size();
}

std::size_t ArtifactStore::size() const {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(objects_, ec)) {
    if (de.is_regular_file() && de.path().extension() == ".art") ++n;
  }
  return n;
}

std::vector<ObjectInfo> ArtifactStore::enumerate() const {
  std::vector<ObjectInfo> out;
  for (const fs::path& p : sorted_objects(objects_)) {
    ObjectInfo info;
    info.path = p.string();
    info.address = p.stem().string();
    std::error_code ec;
    const std::uintmax_t bytes = fs::file_size(p, ec);
    info.bytes = ec ? 0 : bytes;
    info.age_seconds = age_seconds_of(p);
    out.push_back(std::move(info));
  }
  return out;
}

std::size_t ArtifactStore::sweep_stale_staging() {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(root_ + "/staging", ec)) {
    if (!de.is_directory()) continue;
    if (de.path() == fs::path(staging_)) continue;  // never our own
    if (!staging_dir_is_stale(de.path())) continue;
    std::error_code rec;
    fs::remove_all(de.path(), rec);
    if (!rec) ++removed;
  }
  return removed;
}

FsckReport ArtifactStore::fsck(bool repair) {
  FsckReport report;
  for (const fs::path& p : sorted_objects(objects_)) {
    ++report.scanned;
    const std::optional<std::string> defect = defect_of(p);
    if (!defect) {
      ++report.valid;
      continue;
    }
    report.rejected.push_back(p.string() + ": " + *defect);
    if (repair) {
      std::error_code ec;
      if (fs::remove(p, ec) && !ec) ++report.repaired;
    }
  }
  if (repair) report.staging_removed = sweep_stale_staging();
  return report;
}

GcReport ArtifactStore::gc(const GcOptions& opt) {
  GcReport report;
  std::vector<fs::path> drop;
  for (const fs::path& p : sorted_objects(objects_)) {
    ++report.scanned;
    if (defect_of(p)) {
      ++report.dropped_invalid;
      drop.push_back(p);
    } else if (opt.live_addresses &&
               !opt.live_addresses->count(p.stem().string())) {
      ++report.dropped_unreferenced;
      drop.push_back(p);
    } else if (opt.max_age_seconds >= 0 &&
               age_seconds_of(p) > opt.max_age_seconds) {
      ++report.dropped_aged;
      drop.push_back(p);
    } else {
      ++report.kept;
    }
  }
  if (!opt.dry_run) {
    for (const fs::path& p : drop) {
      std::error_code ec;
      fs::remove(p, ec);
    }
    report.staging_removed = sweep_stale_staging();
  }
  return report;
}

}  // namespace hlp::store
