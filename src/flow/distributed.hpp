// DistributedRunner: shard an ExperimentRunner job grid across worker
// *processes* (fork/exec of the hlp_worker binary), the scaling layer
// above the in-process thread pool and the SIMD-saturated engine.
//
// Work-stealing dispatch: the parent decomposes the grid into work units
// (plan_units — whole seed-coalescing chunks, so coalescing and lane-aware
// SIMD sizing are preserved), fork/execs long-lived hlp_worker processes,
// and hands out one unit at a time over stdin/stdout (framed records,
// src/flow/job_io.hpp). A worker that finishes pulls the next unit, so
// fast workers naturally steal the tail and stragglers stop gating the
// grid. Timeouts are per-unit: a slow or dead worker costs one unit, which
// is requeued (bounded retries) onto a replacement before its jobs report
// an error. Workers keep their FlowContexts, StageCaches and SA tables
// warm across units and flush their SA shard once at exit.
//
// The parent
//  - places results back by grid index, so the returned vector is in job
//    order regardless of which worker ran which unit (deterministic
//    merge), and
//  - merges every cleanly-exited worker's SA shard into its own tables
//    with SaCache::merge_from (conflict = assert-equal; entries are
//    deterministic), persisting the union when a warm-start path is set.
//
// Every library algorithm is deterministic, so a distributed run is
// bit-identical to a threaded in-process run of the same grid
// (tests/distributed_test.cpp; job_io.hpp's same_outcome is the equality).
// Worker failures never throw out of run(): a nonzero exit, a death by
// signal, a timeout or a truncated/unparseable frame is reported through
// JobResult::error on every job of the exhausted unit, with the tail of
// the worker's captured log — mirroring the per-job failure capture of
// the in-process runner.
//
// The worker's serve loop runs over any byte stream, so multi-machine
// sharding (e.g. over ssh) is a transport change, not a format change
// (docs/distributed.md).
#pragma once

#include <string>
#include <vector>

#include "flow/experiment.hpp"

namespace hlp::flow {

/// Worker-process count from the HLP_WORKERS env var, else `fallback`.
/// Strict like jobs_from_env: garbage or non-positive values throw.
int workers_from_env(int fallback);

class DistributedRunner {
 public:
  /// `workers` processes, each running an ExperimentRunner with
  /// `threads_per_worker` threads. workers <= 1 (the default, unless
  /// HLP_WORKERS says otherwise) degrades gracefully to the in-process
  /// threaded runner — same results, no processes spawned. The
  /// constructor reads HLP_SA_CACHE (via the local runner) as the
  /// warm-start default and HLP_COALESCE as the coalescing default.
  ///
  /// Jobs are resolved by benchmark *name* in the worker process (the
  /// default make_paper_benchmark provider) — a custom GraphProvider
  /// cannot cross a process boundary; use ExperimentRunner directly for
  /// those grids.
  explicit DistributedRunner(int workers = workers_from_env(1),
                             int threads_per_worker = 1);

  /// Run the grid; results in job order (bit-identical to the in-process
  /// runner; see same_outcome). Never throws for worker failures — those
  /// land in JobResult::error — only for setup errors (unusable worker
  /// binary / work directory) and SA-shard merge conflicts, which mean
  /// the run's determinism contract was broken.
  std::vector<JobResult> run(const std::vector<Job>& jobs);

  void set_workers(int n);
  int workers() const { return workers_; }
  void set_threads_per_worker(int n);
  int threads_per_worker() const { return threads_per_worker_; }

  /// Path of the hlp_worker binary. Default: $HLP_WORKER_BIN if set, else
  /// "hlp_worker" next to the current executable (the build-tree layout).
  void set_worker_binary(std::string path) { worker_binary_ = std::move(path); }
  const std::string& worker_binary() const { return worker_binary_; }

  /// Per-unit deadline in seconds. 0 (default) = no timeout. A unit past
  /// the deadline gets its worker killed and is requeued
  /// (kMaxUnitAttempts total tries) before its jobs report the timeout.
  void set_timeout(double seconds) { timeout_s_ = seconds; }
  double timeout() const { return timeout_s_; }

  /// Times a unit may be handed out before its jobs report a per-job error
  /// (first try + one retry).
  static constexpr int kMaxUnitAttempts = 2;

  /// Directory for worker logs and SA shards. Default: a fresh mkdtemp
  /// under the system temp dir, removed after run() (set_keep_files keeps
  /// it for debugging). A caller-provided directory is never removed.
  void set_work_dir(std::string dir) { work_dir_ = std::move(dir); }
  void set_keep_files(bool keep) { keep_files_ = keep; }

  /// Warm-start path for the merged SA tables (HLP_SA_CACHE is the
  /// constructor default). Workers preload from it and the parent saves
  /// the merged union back after every distributed run.
  void set_sa_cache_path(std::string path);
  const std::string& sa_cache_path() const { return local_.sa_cache_path(); }

  /// Seed-coalescing inside each worker (and the in-process fallback).
  void set_coalescing(bool on);
  bool coalescing() const { return local_.coalescing(); }

  /// Shared artifact-store directory (HLP_STORE is the constructor
  /// default, via the local runner). When non-empty every worker process
  /// is launched with `--store <dir>` so the whole fleet publishes into
  /// one store — each worker stages its atomic writes under a private
  /// staging dir — and the in-process fallback persists there too.
  void set_store_dir(std::string dir) { local_.set_store_dir(std::move(dir)); }
  const std::string& store_dir() const { return local_.store_dir(); }

  /// The in-process runner behind the workers <= 1 fallback; also hosts
  /// the merged SA tables (local().sa_cache(width) after a run).
  ExperimentRunner& local() { return local_; }

 private:
  /// The work-stealing loop behind run(): `worker_bin` is the resolved,
  /// executable worker binary and `dir` the run's work directory.
  std::vector<JobResult> run_stream(const std::vector<Job>& jobs,
                                    const std::string& worker_bin,
                                    const std::string& dir);

  int workers_;
  int threads_per_worker_;
  std::string worker_binary_;
  std::string work_dir_;
  double timeout_s_ = 0.0;
  bool keep_files_ = false;
  ExperimentRunner local_;
};

}  // namespace hlp::flow
