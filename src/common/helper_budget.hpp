// One process-wide budget of helper threads.
//
// Two loops start helper threads beside the thread that calls them:
// SaCache::fill, which computes a batch's missing SA keys side by side,
// and simulate_seed_chunk, which hands the back of a seed chunk's sample
// range to a helper whenever a slot is free. Both lease their helpers from
// the one budget here, hardware_concurrency() - 1 slots shared by every
// caller in the process, so together they never run more helpers than the
// machine has spare cores. Helpers are not runner threads and are not
// counted in HLP_JOBS; each process (a DistributedRunner worker included)
// has a budget of its own.
#pragma once

#include <cstddef>

namespace hlp {

/// A lease on up to `want` slots of the process-wide helper budget. It may
/// grant fewer, zero when every slot is taken; the granted slots go back
/// when the lease is destroyed. Moving a lease moves its slots, so a helper
/// thread can carry its own slot and return it when it finishes.
class HelperLease {
 public:
  explicit HelperLease(std::size_t want);
  HelperLease(HelperLease&& other) noexcept;
  HelperLease& operator=(HelperLease&&) = delete;
  HelperLease(const HelperLease&) = delete;
  HelperLease& operator=(const HelperLease&) = delete;
  ~HelperLease();

  int granted() const { return granted_; }

 private:
  int granted_ = 0;
};

/// Returns the free heap pages that helper threads' malloc arenas keep to
/// the operating system (glibc malloc_trim; a no-op on other C libraries).
/// Each helper thread gets an arena of its own, and without this the pages
/// a finished helper freed would count toward the process's resident set
/// for the rest of its life.
void trim_helper_arenas();

}  // namespace hlp
