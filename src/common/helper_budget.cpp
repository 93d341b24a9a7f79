#include "common/helper_budget.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace hlp {
namespace {

std::atomic<int>& budget() {
  static std::atomic<int> slots(
      std::max(0, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return slots;
}

}  // namespace

HelperLease::HelperLease(std::size_t want) {
  int left = budget().load();  // never negative: a lease takes <= left
  do {
    granted_ = static_cast<int>(std::min<std::size_t>(want, left));
    if (granted_ == 0) return;
  } while (!budget().compare_exchange_weak(left, left - granted_));
}

HelperLease::HelperLease(HelperLease&& other) noexcept
    : granted_(other.granted_) {
  other.granted_ = 0;
}

HelperLease::~HelperLease() {
  if (granted_ != 0) budget().fetch_add(granted_);
}

void trim_helper_arenas() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace hlp
