// Text serialization of the ExperimentRunner job model — the wire format
// of the distributed runner (docs/distributed.md).
//
// Jobs travel as a *manifest* and outcomes come back as *results*: a
// DistributedRunner parent sends each work unit to an hlp_worker process
// as a manifest wrapped in a request frame, and the worker answers with
// the unit's results wrapped in a response frame. Both are line-oriented
// text, so the frames can cross any byte stream (a pipe, ssh) and be
// diffed by eye. `hlp_store gc --keep-manifest` reads a manifest file, and
// the repository benchmark keeps its expected outcomes as results files.
//
// Properties the distributed protocol depends on:
//  - Round trips are exact. Doubles are serialised in hexfloat (parsed
//    with strtod), so a value survives the trip bit for bit — the
//    distributed==threaded property test compares results to the last
//    bit. Strings (benchmark names, labels, error messages) are
//    percent-escaped and may contain any byte.
//  - Truncation is detectable. Both formats end in an `end <magic>
//    <count>` footer; a frame cut short by a crashed or killed worker
//    fails to load with a clear error instead of silently dropping
//    records. The declared count is untrusted: an oversized one fails the
//    same way.
//  - Records carry the job's index in the parent's grid, so the parent
//    merges worker outputs deterministically (stable job order) no matter
//    which worker ran which unit or which finished first.
//
// A JobResult carries the map summary (num_luts, depth) and every metric
// derived from the mapped LUT netlist (timing, toggles, power), never the
// netlist itself: that large intermediate lives in the StageCache entry of
// the context that ran the job (and in the artifact store, when one is
// bound). So a result has the same shape in process and after a frame
// round trip. `same_outcome` is the single definition of result equality
// used by tests and benches.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "flow/experiment.hpp"

namespace hlp::flow {

/// A job tagged with its position in the parent's grid.
struct ManifestJob {
  std::size_t index = 0;
  Job job;
};

/// A result tagged with the manifest index it answers.
struct ManifestResult {
  std::size_t index = 0;
  JobResult result;
};

/// Percent-escape (%XX) every byte that would break whitespace-delimited
/// parsing: whitespace, '%', and non-printable bytes. Decode inverts
/// exactly; decode of a malformed escape throws.
std::string encode_token(const std::string& s);
std::string decode_token(const std::string& s);

/// Manifest: "manifest v1" header, one `job` line per entry, `end` footer.
void save_manifest(std::ostream& os, const std::vector<ManifestJob>& jobs);
std::vector<ManifestJob> load_manifest(std::istream& is);
std::vector<ManifestJob> load_manifest_file(const std::string& path);

/// Results: "results v1" header, one multi-line `result..endresult` record
/// per entry, `end` footer. Load is strict: a missing footer, an
/// unterminated record or a malformed line throws hlp::Error naming the
/// defect (this is how a parent detects a worker that died mid-frame).
void save_results(std::ostream& os, const std::vector<ManifestResult>& results);
std::vector<ManifestResult> load_results(std::istream& is);
/// File variant writes `path` atomically (write "<path>.tmp", rename), so
/// a results file either exists complete or not at all.
void save_results_file(const std::string& path,
                       const std::vector<ManifestResult>& results);
std::vector<ManifestResult> load_results_file(const std::string& path);

/// ---- unit frames ---------------------------------------------------------
///
/// The DistributedRunner parent and a long-lived hlp_worker process
/// exchange framed per-unit records over stdin/stdout. A request
/// frame wraps one work unit (a whole seed-coalescing chunk) in the v1
/// manifest format; a response frame wraps the unit's results in the v1
/// results format. Both reuse the hexfloat / percent-escape / footer
/// conventions, and add an `endunit <id>` trailer so a frame cut short by
/// a dying worker is detectable at the frame level too: the parent only
/// parses byte ranges that end in a complete trailer line, and a
/// truncated body still throws through the inner v1 loader.
///
///   unit <id>                      unitdone <id>
///   hlp-manifest v1                hlp-results v1
///   count K                        count K
///   job index=... ...              result index=... ... endresult
///   end hlp-manifest K             end hlp-results K
///   endunit <id>                   endunit <id>
///
/// The request stream ends with a single `quit` line (or EOF), upon which
/// the worker exits 0.

/// One parsed request frame. `quit` is set (and the rest empty) when the
/// stream ended or an explicit `quit` line arrived.
struct UnitRequest {
  bool quit = false;
  std::size_t id = 0;
  std::vector<ManifestJob> jobs;
};

/// One parsed response frame: the results of unit `id`.
struct UnitResponse {
  std::size_t id = 0;
  std::vector<ManifestResult> results;
};

void save_unit_request(std::ostream& os, std::size_t id,
                       const std::vector<ManifestJob>& jobs);
void save_unit_quit(std::ostream& os);
/// Blocking read of the next request frame (the worker's serve loop reads
/// straight from stdin). EOF before any frame content = quit; a malformed
/// or truncated frame throws hlp::Error.
UnitRequest load_unit_request(std::istream& is);

void save_unit_response(std::ostream& os, std::size_t id,
                        const std::vector<ManifestResult>& results);
/// Strict parse of one response frame (the parent calls this on a byte
/// range it already knows ends in an `endunit` trailer): a missing or
/// mismatched trailer, a truncated body or a malformed record throws.
UnitResponse load_unit_response(std::istream& is);

/// Result equality over every serialised outcome field EXCEPT execution
/// metadata (seconds, per-stage timings, group_size, cached_stages — wall
/// clock and batching shape legitimately differ between a threaded run
/// and a sharded run). This is the "bit-identical JobResult" relation of
/// the distributed acceptance test: ok/error, the binding, mux stats, map
/// summary, clock period, per-net toggle counts, sim counters and the
/// power report must all agree exactly (doubles to the last bit). The
/// `job` fields are NOT compared: a results record carries the job's grid
/// index, not the job, so a loaded result's `job` is default-constructed
/// (the benchmark's expected-results check relies on this).
bool same_outcome(const JobResult& a, const JobResult& b);

}  // namespace hlp::flow
