// The HLP_SA_MODE knob: which switching-activity engine SaCache (and the
// flow layers above it) uses to fill its per-operation tables.
//
// Unlike the simulator's word width — which only picks between
// bit-identical backends — the SA mode changes *values*: the two
// engines answer the same question with different accuracy/cost
// trade-offs:
//
//   estimate  closed-form propagation of static signal probabilities
//             (fast, no glitch model — the seed default).
//   sim       seeded word-parallel Monte-Carlo over random stimulus
//             (accuracy scales with vector count and carries seed
//             variance).
//
// The BDD engine (power/exact_activity.hpp) is not a table source: it is
// the accuracy oracle the tests and ablation_sacache measure the two
// engines against (docs/fidelity.md has the measurement that dropped it).
//
// Because values differ between modes, every consumer that caches or
// serializes activity must resolve the mode *once* and pin it: a SaCache
// is fixed to one mode for its life, the artifact store keys every entry
// by the resolved mode, and the distributed manifest carries the parent's
// resolved mode so workers never re-consult their own environment.
//
// Parsing is strict, like HLP_JOBS: unset/empty falls back, anything
// else must be one of the names above or the sweep dies loudly. There is
// no "auto" spelling — an unset knob means kEstimated; resolution of an
// *absent programmatic request* is the job of effective_sa_mode, which
// takes an optional so "caller didn't say" is distinguishable from any
// concrete mode.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace hlp {

enum class SaMode { kEstimated, kSimulated };

/// Every mode, in knob-listing order.
const std::vector<SaMode>& all_sa_modes();

/// Canonical knob spelling: "estimate", "sim".
const char* sa_mode_name(SaMode mode);

/// Strict parse of a knob value (the exact lowercase names above); throws
/// hlp::Error naming HLP_SA_MODE, the offending value and the accepted set.
SaMode parse_sa_mode(const std::string& value);

/// HLP_SA_MODE env override, else `fallback`. Unset/empty falls back;
/// garbage throws (strict, like jobs_from_env).
SaMode sa_mode_from_env(SaMode fallback = SaMode::kEstimated);

/// The mode a spec resolves to: an explicit request wins, an absent one
/// consults HLP_SA_MODE, an unset environment means kEstimated. Always
/// concrete — there is no deferred "auto" state for SA modes.
SaMode effective_sa_mode(std::optional<SaMode> requested);

}  // namespace hlp
