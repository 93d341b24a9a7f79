#include "flow/distributed.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "flow/job_io.hpp"

namespace hlp::flow {

namespace fs = std::filesystem;

int workers_from_env(int fallback) {
  return env_int("HLP_WORKERS", fallback);
}

namespace {

using Clock = std::chrono::steady_clock;

// $HLP_WORKER_BIN, else "hlp_worker" next to the current executable (the
// build tree puts every binary in one directory), else the bare name for
// the error message.
std::string default_worker_binary() {
  if (const char* env = std::getenv("HLP_WORKER_BIN"); env && *env != '\0')
    return env;
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    const fs::path cand = self.parent_path() / "hlp_worker";
    if (fs::exists(cand, ec) && !ec) return cand.string();
  }
  return "hlp_worker";
}

// Last `max_bytes` of a worker's captured stderr, for embedding in the
// error message of a failed unit.
std::string log_tail(const std::string& path, std::size_t max_bytes = 600) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return "";
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  const std::size_t take = std::min(size, max_bytes);
  f.seekg(static_cast<std::streamoff>(size - take));
  std::string tail(take, '\0');
  f.read(tail.data(), static_cast<std::streamsize>(take));
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r'))
    tail.pop_back();
  return tail;
}

// One long-lived hlp_worker process. Entries are append-only across
// respawns; a dead worker's record stays for its log path and exit
// status.
struct StreamWorker {
  pid_t pid = -1;
  int to_child = -1;    // parent writes framed unit requests here
  int from_child = -1;  // parent reads framed unit responses here
  std::string log;
  std::string buf;          // accumulated response bytes
  long long unit = -1;      // in-flight unit index, -1 = idle
  Clock::time_point unit_start{};
  bool exited = false;
  int status = 0;
  bool quit_sent = false;
  std::string fail_reason;  // set before a deliberate SIGKILL
};

// Ignore SIGPIPE for the lifetime of a streaming run: a write into a
// worker that just died must surface as EPIPE (handled per worker), not
// kill the parent. Saved/restored so library callers keep their own
// disposition.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() {
    struct sigaction ign {};
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &saved_);
  }
  ~ScopedSigpipeIgnore() { ::sigaction(SIGPIPE, &saved_, nullptr); }

 private:
  struct sigaction saved_ {};
};

// Write all of `data`, retrying on EINTR. Returns false on any other
// error (typically EPIPE from a dead worker) — the caller leaves the unit
// in flight and lets the reap path requeue it.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Extract one complete response frame — everything up to and including
// the first `endunit <id>` line — from the front of `buf`. Returns false
// until the trailer line has fully arrived; partial frames stay buffered.
bool extract_frame(std::string& buf, std::string& frame) {
  std::size_t pos = 0;
  while (true) {
    const std::size_t p = buf.find("endunit ", pos);
    if (p == std::string::npos) return false;
    if (p != 0 && buf[p - 1] != '\n') {  // mid-line match, keep looking
      pos = p + 8;
      continue;
    }
    const std::size_t nl = buf.find('\n', p);
    if (nl == std::string::npos) return false;  // trailer not finished
    frame = buf.substr(0, nl + 1);
    buf.erase(0, nl + 1);
    return true;
  }
}

}  // namespace

DistributedRunner::DistributedRunner(int workers, int threads_per_worker)
    : workers_(std::max(1, workers)),
      threads_per_worker_(std::max(1, threads_per_worker)),
      local_(std::max(1, threads_per_worker)) {}

std::vector<JobResult> DistributedRunner::run(const std::vector<Job>& jobs) {
  const int n = static_cast<int>(
      std::min<std::size_t>(workers_, jobs.empty() ? 1 : jobs.size()));
  // Graceful fallback: one worker is exactly the in-process threaded
  // runner — no processes, no files, same results.
  if (n <= 1) return local_.run(jobs);

  const std::string worker_bin =
      worker_binary_.empty() ? default_worker_binary() : worker_binary_;
  HLP_REQUIRE(::access(worker_bin.c_str(), X_OK) == 0,
              "worker binary '" << worker_bin
                                << "' is not executable (build the "
                                   "hlp_worker target, or point "
                                   "HLP_WORKER_BIN / set_worker_binary at "
                                   "it)");

  // Work directory for the worker logs of this run.
  std::string dir = work_dir_;
  const bool own_dir = dir.empty();
  if (own_dir) {
    std::string tmpl =
        (fs::temp_directory_path() / "hlp-dist.XXXXXX").string();
    HLP_REQUIRE(::mkdtemp(tmpl.data()) != nullptr,
                "mkdtemp('" << tmpl << "') failed: " << std::strerror(errno));
    dir = tmpl;
  } else {
    fs::create_directories(dir);
  }

  std::vector<JobResult> results = run_stream(jobs, worker_bin, dir);

  if (own_dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);  // best effort; never fail a finished run
  }
  return results;
}

std::vector<JobResult> DistributedRunner::run_stream(
    const std::vector<Job>& jobs, const std::string& worker_bin,
    const std::string& dir) {
  const int n = static_cast<int>(std::min<std::size_t>(workers_, jobs.size()));
  const ScopedSigpipeIgnore sigpipe_guard;

  // The central queue: whole seed-coalescing chunks, exactly the units
  // the in-process threaded runner would execute — so coalescing and
  // lane-aware SIMD sizing survive distribution and results stay
  // bit-identical no matter which worker pulls which unit.
  const std::vector<WorkUnit> units = plan_units(jobs, local_.coalescing());
  struct UnitState {
    int attempts = 0;
    bool resolved = false;
  };
  std::vector<UnitState> ustate(units.size());
  std::deque<std::size_t> queue;
  for (std::size_t u = 0; u < units.size(); ++u) queue.push_back(u);
  std::size_t unresolved = units.size();

  std::vector<JobResult> results(jobs.size());
  auto fail_unit = [&](std::size_t u, const std::string& why,
                       const std::string& log_file) {
    const std::string tail = log_tail(log_file);
    std::ostringstream msg;
    msg << "streaming unit " << u << " (" << units[u].members.size()
        << " job(s)) failed after " << ustate[u].attempts << " attempt(s): "
        << why << (tail.empty() ? "" : "; worker log tail: " + tail);
    for (const std::size_t i : units[u].members) {
      results[i].job = jobs[i];
      results[i].ok = false;
      results[i].error = msg.str();
    }
    ustate[u].resolved = true;
    --unresolved;
  };

  std::deque<StreamWorker> fleet;  // deque: references stay valid on growth
  std::size_t alive = 0;

  auto spawn = [&]() -> StreamWorker& {
    fleet.emplace_back();
    StreamWorker& w = fleet.back();
    w.log = dir + "/worker-" + std::to_string(fleet.size() - 1) + ".log";

    // CLOEXEC on every pipe end: a later child must not inherit an older
    // worker's pipe, or EOF detection on that worker dies with it. The
    // child's dup2 onto fds 0/1 clears the flag on the copies it keeps.
    int to_child[2], from_child[2];
    HLP_REQUIRE(::pipe2(to_child, O_CLOEXEC) == 0 &&
                    ::pipe2(from_child, O_CLOEXEC) == 0,
                "pipe2 failed: " << std::strerror(errno));

    std::vector<std::string> args = {worker_bin, "--jobs",
                                     std::to_string(threads_per_worker_)};
    if (!local_.store_dir().empty()) {
      // Workers share the parent's artifact store (explicit flag, never
      // their own HLP_STORE): each opens its own handle with a private
      // staging dir, so concurrent publishes stay atomic.
      args.push_back("--store");
      args.push_back(local_.store_dir());
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    HLP_REQUIRE(pid >= 0, "fork failed: " << std::strerror(errno));
    if (pid == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      const int fd = ::open(w.log.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      _exit(127);  // exec failed; the parent reports status 127 + log
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    w.pid = pid;
    w.to_child = to_child[1];
    w.from_child = from_child[0];
    ::fcntl(w.from_child, F_SETFL, O_NONBLOCK);
    ++alive;
    return w;
  };

  auto close_fds = [](StreamWorker& w) {
    if (w.to_child >= 0) ::close(w.to_child);
    if (w.from_child >= 0) ::close(w.from_child);
    w.to_child = w.from_child = -1;
  };

  // Hand the next pending unit to an idle worker, or tell it to quit when
  // the queue has drained. A failed write means the worker is already
  // dying; the unit stays charged to it and the reap path requeues it.
  auto assign = [&](StreamWorker& w) {
    if (queue.empty()) {
      std::ostringstream req;
      save_unit_quit(req);
      write_all(w.to_child, req.str());
      ::close(w.to_child);
      w.to_child = -1;
      w.quit_sent = true;
      return;
    }
    const std::size_t u = queue.front();
    queue.pop_front();
    ++ustate[u].attempts;
    std::vector<ManifestJob> mjs;
    mjs.reserve(units[u].members.size());
    for (const std::size_t i : units[u].members) mjs.push_back({i, jobs[i]});
    std::ostringstream req;
    save_unit_request(req, u, mjs);
    w.unit = static_cast<long long>(u);
    w.unit_start = Clock::now();
    write_all(w.to_child, req.str());
  };

  // A worker died (reaped). Requeue its in-flight unit while attempts
  // remain, else resolve the unit as failed — naming the unit, the
  // attempt count and the worker's log tail.
  auto handle_death = [&](StreamWorker& w, const std::string& why) {
    if (w.unit < 0) return;
    const std::size_t u = static_cast<std::size_t>(w.unit);
    w.unit = -1;
    if (ustate[u].attempts >= kMaxUnitAttempts)
      fail_unit(u, why, w.log);
    else
      queue.push_front(u);  // retry promptly, ahead of untouched units
  };

  // Seed the fleet and give every worker its first unit.
  for (int k = 0; k < n && !queue.empty(); ++k) assign(spawn());

  char io_buf[65536];
  while (unresolved > 0 || alive > 0) {
    bool progress = false;

    for (StreamWorker& w : fleet) {
      if (w.exited || w.pid < 0) continue;

      // Drain the worker's stdout; process every complete frame.
      while (w.from_child >= 0) {
        const ssize_t got = ::read(w.from_child, io_buf, sizeof(io_buf));
        if (got > 0) {
          w.buf.append(io_buf, static_cast<std::size_t>(got));
          progress = true;
          continue;
        }
        // EOF or EAGAIN: either way stop reading; a dead worker is
        // handled at reap below.
        break;
      }
      std::string frame;
      while (extract_frame(w.buf, frame)) {
        progress = true;
        std::string bad;
        if (w.unit < 0) {
          bad = "sent a unit response while idle";
        } else {
          const std::size_t u = static_cast<std::size_t>(w.unit);
          try {
            std::istringstream in(frame);
            UnitResponse resp = load_unit_response(in);
            HLP_REQUIRE(resp.id == u, "answered unit " << resp.id
                                                       << " while running unit "
                                                       << u);
            const std::set<std::size_t> expect(units[u].members.begin(),
                                               units[u].members.end());
            std::set<std::size_t> covered;
            for (const ManifestResult& mr : resp.results)
              covered.insert(mr.index);
            HLP_REQUIRE(covered == expect,
                        "returned " << resp.results.size()
                                    << " results that do not cover the "
                                    << units[u].members.size()
                                    << "-job unit");
            for (ManifestResult& mr : resp.results) {
              results[mr.index] = std::move(mr.result);
              results[mr.index].job = jobs[mr.index];
              // The worker only saw its chunk; the parent knows the full
              // seed-group size, like the threaded runner reports it.
              results[mr.index].group_size = units[u].group_size;
            }
            w.unit = -1;
            ustate[u].resolved = true;
            --unresolved;
          } catch (const std::exception& e) {
            bad = std::string("returned an invalid unit response: ") +
                  e.what();
          }
        }
        if (!bad.empty()) {
          // Protocol violation: kill the worker; the reap path charges
          // its in-flight unit with this reason.
          w.fail_reason = bad;
          ::kill(w.pid, SIGKILL);
          break;
        }
        if (w.unit < 0 && !w.quit_sent) assign(w);  // pull the next unit
      }

      // Per-unit deadline: a unit past it costs exactly that unit one
      // attempt.
      if (timeout_s_ > 0.0 && w.unit >= 0 && w.fail_reason.empty() &&
          std::chrono::duration<double>(Clock::now() - w.unit_start)
                  .count() > timeout_s_) {
        std::ostringstream why;
        why << "timed out after " << timeout_s_ << "s and was killed";
        w.fail_reason = why.str();
        ::kill(w.pid, SIGKILL);
        progress = true;
      }

      // Reap.
      int status = 0;
      const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      if (r == w.pid) {
        progress = true;
        w.exited = true;
        w.status = status;
        --alive;
        // Drain any bytes that raced the exit, then decide.
        while (w.from_child >= 0) {
          const ssize_t got = ::read(w.from_child, io_buf, sizeof(io_buf));
          if (got <= 0) break;
          w.buf.append(io_buf, static_cast<std::size_t>(got));
        }
        // A complete frame that arrived just before a clean quit-exit was
        // already processed above; anything still buffered here is a
        // partial frame and counts as truncation.
        std::string why = w.fail_reason;
        if (why.empty()) {
          if (WIFSIGNALED(status))
            why = "worker killed by signal " +
                  std::to_string(WTERMSIG(status));
          else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            why = "worker exited with status " +
                  std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                   : -1);
          else if (w.unit >= 0)
            why = "worker exited with status 0 before answering the unit";
          else if (!w.quit_sent)
            why = "worker exited with status 0 unprompted";
        }
        close_fds(w);
        if (!why.empty()) handle_death(w, why);
      }
    }

    // Keep the fleet at strength while there is queued work. Spawning is
    // bounded: every death charges an attempt to some unit, and a unit
    // only re-enters the queue kMaxUnitAttempts times.
    while (alive < static_cast<std::size_t>(n) && !queue.empty())
      assign(spawn());

    if (unresolved == 0 && alive == 0) break;
    if (!progress)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return results;
}

}  // namespace hlp::flow
