// Online Pareto frontier over the three objectives a design-space
// exploration trades off (the axes of the paper's tables): dynamic power,
// LUT area and clock period — all minimised.
//
// The frontier is the data structure a design-space-exploration service
// serves from (ROADMAP: "maintain an online Pareto frontier ... streamed
// as results arrive"), so it is built for streaming insertion from the
// runner's result callback: offer() is thread-safe and the final content
// carries an ARRIVAL-ORDER-INDEPENDENCE guarantee — the same multiset of
// results yields the bit-identical frontier regardless of thread count,
// worker count, shuffle, or interleaving. That holds by construction:
//
//   - the surviving OBJECTIVE VECTORS are the minimal elements of the
//     offered multiset under the product order, a set that does not
//     depend on insertion order (dominance is transitive, so a point
//     evicted early stays evicted: whatever removed it is itself only
//     ever replaced by points that also dominate it);
//   - within one objective vector (distinct configurations measuring
//     identical power/area/period), the tie is broken deterministically:
//     the point with the lexicographically smallest identity key wins,
//     and identical identities are idempotent no-ops;
//   - points() returns the survivors sorted by objective vector — unique
//     within a frontier — so iteration order is deterministic too.
//
// Every pipeline in this repository is deterministic bit-for-bit across
// threads, workers and SIMD widths (same_outcome), so "bit-identical
// frontier" is meaningful: the doubles compare exactly, never by epsilon.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "flow/experiment.hpp"

namespace hlp::explore {

/// One candidate design point: the objective vector extracted from a
/// JobResult plus a deterministic identity for tie-breaking and display.
struct ParetoPoint {
  double power_mw = 0.0;        // FlowResult::report.dynamic_power_mw
  int lut_area = 0;             // FlowResult::mapped.num_luts
  double clock_period_ns = 0.0; // FlowResult::clock_period_ns

  /// Deterministic identity of the configuration that produced the
  /// vector: every grid axis (seed included, label excluded) serialised
  /// with hexfloat doubles. Two jobs with equal ids are the same
  /// configuration; the lexicographically smallest id wins an
  /// equal-vector tie.
  std::string id;
  /// Display tag: the job's label when set, else "<benchmark>/<binder>".
  std::string label;

  friend bool operator==(const ParetoPoint&, const ParetoPoint&) = default;
};

/// The deterministic identity key of a job (ParetoPoint::id): its
/// flow::group_key plus the stimulus seed. The group key resolves the SA
/// mode, so a job that deferred to HLP_SA_MODE and its manifest round trip
/// (which carries the resolved mode) agree on identity.
std::string job_identity(const flow::Job& job);

/// Extract the objective vector of a successful result. Precondition:
/// `result.ok` (offer() filters failures before calling this).
ParetoPoint point_from_result(const flow::JobResult& result);

/// What insert() did with a point.
enum class InsertOutcome {
  kInserted,   // joined the frontier (possibly evicting dominated points)
  kDominated,  // an existing point dominates it (or equals it on every axis
               // with a smaller id)
  kDuplicate,  // identical id and vector already present (idempotent no-op)
};

class ParetoFrontier {
 public:
  /// Stream one runner result in: failures are counted and skipped,
  /// successes are inserted. Thread-safe — pass
  /// `[&](std::size_t, const flow::JobResult& r) { frontier.offer(r); }`
  /// to ExperimentRunner::set_result_callback.
  InsertOutcome offer(const flow::JobResult& result);

  /// Dominance insertion of an already-extracted point. Thread-safe.
  InsertOutcome insert(const ParetoPoint& p);

  /// The current frontier, sorted by (power, area, period, id) — unique
  /// objective vectors, deterministic order. Thread-safe snapshot.
  std::vector<ParetoPoint> points() const;

  std::size_t size() const;

  /// Results streamed through offer(), successes and failures.
  std::uint64_t offered() const;
  /// Failed results offer() skipped.
  std::uint64_t skipped() const;

 private:
  mutable std::mutex mu_;
  std::vector<ParetoPoint> pts_;
  std::uint64_t offered_ = 0;
  std::uint64_t skipped_ = 0;
};

/// True when `a` dominates `b`: no worse on every objective, strictly
/// better on at least one. Equal vectors dominate in neither direction.
bool dominates(const ParetoPoint& a, const ParetoPoint& b);

}  // namespace hlp::explore
