// The HLP_DISPATCH knob: how the DistributedRunner hands a job grid to
// its worker processes.
//
// Both strategies produce bit-identical results (the property test in
// tests/distributed_test.cpp compares them and the threaded runner on a
// randomized grid), so the knob only changes scheduling and wall-clock:
//
//   static  contiguous up-front slices, one manifest file and one
//           batch-mode hlp_worker per slice (the PR-5 protocol, kept as
//           the oracle). The run waits on the slowest slice — skewed
//           grids (anneal binders, big benchmarks next to cheap asap
//           jobs) leave every other worker idle behind the straggler.
//   stream  work-stealing: long-lived hlp_worker --serve processes pull
//           one unit (a whole seed-coalescing chunk) at a time over
//           stdin/stdout as they finish — fast workers naturally steal
//           the tail, and timeouts/crashes cost one unit, not a slice.
//   auto    defers to HLP_DISPATCH, then picks stream whenever the run
//           actually distributes (>= 2 workers): streaming is never
//           slower than a static split on the same units and strictly
//           better under skew.
//
// Parsing is strict, like HLP_SIMD: unset/empty falls back, anything
// else must be one of the names above or the sweep dies loudly. Every
// mode is supported on every build, so there is no resolve/downgrade
// axis.
#pragma once

#include <string>
#include <vector>

namespace hlp::flow {

enum class DispatchMode { kAuto, kStatic, kStream };

/// Every mode, kAuto first (handy for sweeps and option listings).
const std::vector<DispatchMode>& all_dispatch_modes();

/// Canonical knob spelling: "auto", "static", "stream".
const char* dispatch_mode_name(DispatchMode mode);

/// Strict parse of a knob value (the exact lowercase names above); throws
/// hlp::Error naming HLP_DISPATCH, the offending value and the accepted
/// set.
DispatchMode parse_dispatch_mode(const std::string& value);

/// HLP_DISPATCH env override, else `fallback`. Unset/empty falls back;
/// garbage throws (strict, like simd_mode_from_env).
DispatchMode dispatch_mode_from_env(DispatchMode fallback = DispatchMode::kAuto);

/// The mode a runner spec resolves to: an explicit spec wins, kAuto
/// consults HLP_DISPATCH. The result may still be kAuto — resolve it
/// against a worker count with resolve_dispatch_mode.
DispatchMode effective_dispatch_mode(DispatchMode requested);

/// Concrete mode for a run with `workers` processes: kAuto becomes
/// kStream when the run distributes (workers >= 2), kStatic otherwise
/// (the single-worker path is the in-process fallback either way).
DispatchMode resolve_dispatch_mode(DispatchMode requested, int workers);

}  // namespace hlp::flow
