#include "power/sa_mode.hpp"

#include <cstdlib>

#include "common/error.hpp"

namespace hlp {

namespace {

constexpr const char* kAccepted = "estimate, sim";

}  // namespace

const std::vector<SaMode>& all_sa_modes() {
  static const std::vector<SaMode> kModes = {SaMode::kEstimated,
                                             SaMode::kSimulated};
  return kModes;
}

const char* sa_mode_name(SaMode mode) {
  switch (mode) {
    case SaMode::kEstimated:
      return "estimate";
    case SaMode::kSimulated:
      return "sim";
  }
  HLP_CHECK(false, "invalid SaMode value");
}

SaMode parse_sa_mode(const std::string& value) {
  for (const SaMode mode : all_sa_modes())
    if (value == sa_mode_name(mode)) return mode;
  HLP_REQUIRE(false, "HLP_SA_MODE='" << value
                                     << "' is not an SA mode (accepted: "
                                     << kAccepted << ")");
}

SaMode sa_mode_from_env(SaMode fallback) {
  const char* env = std::getenv("HLP_SA_MODE");
  if (!env || *env == '\0') return fallback;
  return parse_sa_mode(env);
}

SaMode effective_sa_mode(std::optional<SaMode> requested) {
  return requested ? *requested : sa_mode_from_env(SaMode::kEstimated);
}

}  // namespace hlp
