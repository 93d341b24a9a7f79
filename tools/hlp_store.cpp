// hlp_store — fleet-hygiene CLI for the content-addressed artifact store
// (src/store/artifact_store.hpp, docs/artifact-store.md).
//
//   hlp_store fsck <root> [--repair]
//   hlp_store gc <root> [--max-age-seconds <n>] [--keep-manifest <file>]
//                       [--dry-run]
//   hlp_store merge <dest-root> <src-root>...
//   hlp_store stats <root>
//
// fsck validates every object through the store's strict parse (magic,
// checksum, footer, the mapped netlist) plus the filename-matches-address
// check that catches renamed or planted files, and reports each defect.
// With --repair, invalid objects are deleted — the next probe recomputes
// them, which is the store's documented corruption contract — and stale
// staging directories left by dead writers are swept. Exit status: 0 when
// the store is healthy (or --repair removed every reject), 1 when
// unrepaired rejects remain, 2 on usage/infrastructure errors. CI runs
// `fsck --repair` on the cache-restored store before the warm pass, so a
// stale or truncated cache self-heals into misses instead of failing.
//
// gc drops objects that can no longer earn a hit: unreferenced by the
// given manifest's jobs (--keep-manifest derives each job's ArtifactKey
// through ExperimentRunner::artifact_key_for — the exact keys the
// pipeline probes), older than --max-age-seconds, or invalid. Filters
// compose as keeps; --dry-run reports without deleting.
//
// merge copies every object of one or more source store directories into
// the destination store, strictly: every source object is validated
// before anything is written, overlaps must agree byte-for-byte, and a
// corrupt source or a conflict rejects that whole source without partial
// state.
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/text_codec.hpp"
#include "flow/experiment.hpp"
#include "flow/job_io.hpp"
#include "store/artifact_store.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: hlp_store fsck <root> [--repair]\n"
      << "       hlp_store gc <root> [--max-age-seconds <n>]\n"
      << "                           [--keep-manifest <file>] [--dry-run]\n"
      << "       hlp_store merge <dest-root> <src-root>...\n"
      << "       hlp_store stats <root>\n";
  return 2;
}

std::int64_t parse_seconds(const std::string& s) {
  std::int64_t v = -1;
  try {
    v = hlp::parse_i64(s);
  } catch (const hlp::Error&) {
    v = -1;
  }
  HLP_REQUIRE(v >= 0,
              "--max-age-seconds '" << s << "' must be a non-negative integer");
  return v;
}

int run_fsck(const std::vector<std::string>& args) {
  std::string root;
  bool repair = false;
  for (const std::string& a : args) {
    if (a == "--repair")
      repair = true;
    else if (root.empty() && a[0] != '-')
      root = a;
    else
      return usage();
  }
  if (root.empty()) return usage();
  hlp::store::ArtifactStore store(root);
  const hlp::store::FsckReport report = store.fsck(repair);
  for (const std::string& defect : report.rejected)
    std::cerr << "fsck: " << defect << "\n";
  std::cout << "fsck " << root << ": " << report.scanned << " objects, "
            << report.valid << " valid, " << report.rejected.size()
            << " rejected, " << report.repaired << " repaired, "
            << report.staging_removed << " stale staging dirs removed\n";
  return (report.clean() || report.rejected.size() == report.repaired) ? 0 : 1;
}

int run_gc(const std::vector<std::string>& args) {
  std::string root;
  hlp::store::GcOptions opt;
  std::string manifest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--dry-run") {
      opt.dry_run = true;
    } else if (a == "--max-age-seconds" && i + 1 < args.size()) {
      opt.max_age_seconds = parse_seconds(args[++i]);
    } else if (a == "--keep-manifest" && i + 1 < args.size()) {
      manifest = args[++i];
    } else if (root.empty() && a[0] != '-') {
      root = a;
    } else {
      return usage();
    }
  }
  if (root.empty()) return usage();
  if (!manifest.empty()) {
    // The manifest's jobs name everything that must stay warm; their
    // ArtifactKeys are computed exactly like the pipeline computes them
    // (each context's binding_hash, resolved SA mode and CDFG digest
    // included).
    hlp::flow::ExperimentRunner runner(1);
    std::set<std::string> live;
    for (const hlp::flow::ManifestJob& mj :
         hlp::flow::load_manifest_file(manifest))
      live.insert(
          hlp::store::ArtifactStore::content_address(
              runner.artifact_key_for(mj.job)));
    opt.live_addresses = std::move(live);
  }
  hlp::store::ArtifactStore store(root);
  const hlp::store::GcReport report = store.gc(opt);
  std::cout << "gc " << root << (opt.dry_run ? " (dry run)" : "") << ": "
            << report.scanned << " objects, " << report.kept << " kept, "
            << report.dropped_unreferenced << " unreferenced, "
            << report.dropped_aged << " aged out, " << report.dropped_invalid
            << " invalid, " << report.staging_removed
            << " stale staging dirs removed\n";
  return 0;
}

int run_merge(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  hlp::store::ArtifactStore dest(args[0]);
  std::size_t inserted = 0;
  for (std::size_t i = 1; i < args.size(); ++i)
    inserted += dest.merge_from(args[i]);
  std::cout << "merge " << args[0] << ": " << inserted
            << " entries inserted from " << args.size() - 1 << " shard"
            << (args.size() - 1 == 1 ? "" : "s") << ", " << dest.size()
            << " objects total\n";
  return 0;
}

int run_stats(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  hlp::store::ArtifactStore store(args[0]);
  const auto objects = store.enumerate();
  std::uintmax_t bytes = 0;
  std::int64_t oldest = 0;
  for (const hlp::store::ObjectInfo& obj : objects) {
    bytes += obj.bytes;
    oldest = std::max(oldest, obj.age_seconds);
  }
  std::cout << "stats " << args[0] << ": " << objects.size() << " objects, "
            << bytes << " bytes, oldest " << oldest << "s\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "fsck") return run_fsck(args);
    if (cmd == "gc") return run_gc(args);
    if (cmd == "merge") return run_merge(args);
    if (cmd == "stats") return run_stats(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "hlp_store " << cmd << ": " << e.what() << "\n";
    return 2;
  }
}
