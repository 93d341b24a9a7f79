// Dedicated coverage for the strict env-var parsers: HLP_JOBS
// (flow::jobs_from_env), HLP_VECTORS (vectors_from_env), HLP_COALESCE
// (flow::coalesce_from_env), HLP_SIMD (simd_mode_from_env /
// resolve_simd_mode), HLP_SA_MODE
// (sa_mode_from_env / effective_sa_mode), HLP_EXACT_BUDGET
// (exact_budget_from_env) and HLP_STORE (flow::store_dir_from_env plus
// the runner's artifact-store wiring).
// Garbage, negative, zero, overflow and unset inputs each have a pinned
// behaviour: unset/empty falls back, everything invalid throws — a
// sweep must die loudly, not run with a silently defaulted
// configuration. For HLP_SIMD that includes values naming a backend the
// build or the running CPU cannot honour: an explicit avx2/avx512
// request never silently downgrades.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "flow/experiment.hpp"
#include "power/sa_mode.hpp"
#include "rtl/flow.hpp"
#include "store/artifact_store.hpp"
#include "sim/simd_mode.hpp"

namespace hlp {
namespace {

// RAII: every test leaves the variable unset no matter how it exits.
class ScopedUnsetEnv {
 public:
  explicit ScopedUnsetEnv(const char* name) : name_(name) { unset(); }
  ~ScopedUnsetEnv() { unset(); }
  void set(const char* value) { ASSERT_EQ(setenv(name_, value, 1), 0); }

 private:
  void unset() { unsetenv(name_); }
  const char* name_;
};

const char* const kGarbage[] = {"abc", "12abc", "1e3", "0x10", "4.5", "--2"};
const char* const kNonPositive[] = {"0", "-1", "-5"};
const char* const kOverflow[] = {"99999999999999999999", "2147483648",
                                 "-99999999999999999999"};

TEST(EnvConfig, JobsUnsetAndEmptyFallBack) {
  ScopedUnsetEnv env("HLP_JOBS");
  EXPECT_EQ(flow::jobs_from_env(3), 3);
  env.set("");
  EXPECT_EQ(flow::jobs_from_env(7), 7);
}

TEST(EnvConfig, JobsParsesValidCounts) {
  ScopedUnsetEnv env("HLP_JOBS");
  env.set("1");
  EXPECT_EQ(flow::jobs_from_env(3), 1);
  env.set("16");
  EXPECT_EQ(flow::jobs_from_env(3), 16);
  env.set("2147483647");  // INT_MAX is the inclusive upper bound
  EXPECT_EQ(flow::jobs_from_env(3), 2147483647);
}

TEST(EnvConfig, JobsRejectsGarbageNegativeAndOverflow) {
  ScopedUnsetEnv env("HLP_JOBS");
  for (const char* bad : kGarbage) {
    env.set(bad);
    EXPECT_THROW(flow::jobs_from_env(3), Error) << "input '" << bad << "'";
  }
  for (const char* bad : kNonPositive) {
    env.set(bad);
    EXPECT_THROW(flow::jobs_from_env(3), Error) << "input '" << bad << "'";
  }
  for (const char* bad : kOverflow) {
    env.set(bad);
    EXPECT_THROW(flow::jobs_from_env(3), Error) << "input '" << bad << "'";
  }
}

TEST(EnvConfig, JobsErrorNamesTheVariableAndValue) {
  ScopedUnsetEnv env("HLP_JOBS");
  env.set("banana");
  try {
    flow::jobs_from_env(3);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HLP_JOBS"), std::string::npos);
    EXPECT_NE(what.find("banana"), std::string::npos);
  }
}

TEST(EnvConfig, VectorsUnsetAndEmptyFallBack) {
  ScopedUnsetEnv env("HLP_VECTORS");
  EXPECT_EQ(vectors_from_env(123), 123);
  env.set("");
  EXPECT_EQ(vectors_from_env(456), 456);
}

TEST(EnvConfig, VectorsParsesValidCounts) {
  ScopedUnsetEnv env("HLP_VECTORS");
  env.set("1");
  EXPECT_EQ(vectors_from_env(123), 1);
  env.set("1000");
  EXPECT_EQ(vectors_from_env(123), 1000);
}

TEST(EnvConfig, VectorsRejectsGarbageNegativeAndOverflow) {
  ScopedUnsetEnv env("HLP_VECTORS");
  for (const char* bad : kGarbage) {
    env.set(bad);
    EXPECT_THROW(vectors_from_env(123), Error) << "input '" << bad << "'";
  }
  for (const char* bad : kNonPositive) {
    env.set(bad);
    EXPECT_THROW(vectors_from_env(123), Error) << "input '" << bad << "'";
  }
  for (const char* bad : kOverflow) {
    env.set(bad);
    EXPECT_THROW(vectors_from_env(123), Error) << "input '" << bad << "'";
  }
}

TEST(EnvConfig, CoalesceUnsetAndEmptyFallBack) {
  ScopedUnsetEnv env("HLP_COALESCE");
  EXPECT_TRUE(flow::coalesce_from_env(true));
  EXPECT_FALSE(flow::coalesce_from_env(false));
  env.set("");
  EXPECT_TRUE(flow::coalesce_from_env(true));
}

TEST(EnvConfig, CoalesceParsesZeroAndOneOnly) {
  ScopedUnsetEnv env("HLP_COALESCE");
  env.set("0");
  EXPECT_FALSE(flow::coalesce_from_env(true));
  env.set("1");
  EXPECT_TRUE(flow::coalesce_from_env(false));
  for (const char* bad : {"true", "false", "2", "on", "yes", "-1"}) {
    env.set(bad);
    EXPECT_THROW(flow::coalesce_from_env(true), Error)
        << "input '" << bad << "'";
  }
}

TEST(EnvConfig, SimdUnsetAndEmptyFallBack) {
  ScopedUnsetEnv env("HLP_SIMD");
  EXPECT_EQ(simd_mode_from_env(), SimdMode::kAuto);
  EXPECT_EQ(simd_mode_from_env(SimdMode::kX2), SimdMode::kX2);
  env.set("");
  EXPECT_EQ(simd_mode_from_env(SimdMode::kU64), SimdMode::kU64);
}

TEST(EnvConfig, SimdParsesEveryKnownMode) {
  ScopedUnsetEnv env("HLP_SIMD");
  for (const SimdMode mode : all_simd_modes()) {
    env.set(simd_mode_name(mode));
    EXPECT_EQ(simd_mode_from_env(SimdMode::kU64), mode)
        << simd_mode_name(mode);
  }
}

TEST(EnvConfig, SimdRejectsGarbage) {
  ScopedUnsetEnv env("HLP_SIMD");
  // Strictly the lowercase canonical names: no case folding, no aliases,
  // no lane counts, no trailing junk.
  for (const char* bad : {"AVX2", "Auto", "u_64", "128", "x16", "avx",
                          "sse2", "avx512vl", "u64 ", "1", "widest"}) {
    env.set(bad);
    EXPECT_THROW(simd_mode_from_env(), Error) << "input '" << bad << "'";
  }
}

TEST(EnvConfig, SimdErrorNamesTheVariableAndValue) {
  ScopedUnsetEnv env("HLP_SIMD");
  env.set("banana");
  try {
    simd_mode_from_env();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HLP_SIMD"), std::string::npos);
    EXPECT_NE(what.find("banana"), std::string::npos);
    EXPECT_NE(what.find("avx512"), std::string::npos);  // lists accepted set
  }
}

TEST(EnvConfig, SimdLaneWidths) {
  EXPECT_EQ(simd_lanes(SimdMode::kU64), 64);
  EXPECT_EQ(simd_lanes(SimdMode::kX2), 128);
  EXPECT_EQ(simd_lanes(SimdMode::kX4), 256);
  EXPECT_EQ(simd_lanes(SimdMode::kX8), 512);
  EXPECT_EQ(simd_lanes(SimdMode::kAvx2), 256);
  EXPECT_EQ(simd_lanes(SimdMode::kAvx512), 512);
  EXPECT_THROW(simd_lanes(SimdMode::kAuto), Error);  // resolve first
}

TEST(EnvConfig, SimdPortableModesAlwaysResolve) {
  for (const SimdMode mode :
       {SimdMode::kU64, SimdMode::kX2, SimdMode::kX4, SimdMode::kX8}) {
    EXPECT_TRUE(simd_mode_supported(mode)) << simd_mode_name(mode);
    EXPECT_EQ(resolve_simd_mode(mode), mode) << simd_mode_name(mode);
  }
}

TEST(EnvConfig, SimdAutoResolvesToASupportedConcreteMode) {
  const SimdMode resolved = resolve_simd_mode(SimdMode::kAuto);
  EXPECT_NE(resolved, SimdMode::kAuto);
  EXPECT_TRUE(simd_mode_supported(resolved));
  EXPECT_GE(simd_lanes(resolved), 64);
  // Auto must pick the widest intrinsic backend the CPU+build supports.
  if (simd_mode_supported(SimdMode::kAvx512))
    EXPECT_EQ(resolved, SimdMode::kAvx512);
  else if (simd_mode_supported(SimdMode::kAvx2))
    EXPECT_EQ(resolved, SimdMode::kAvx2);
  else
    EXPECT_EQ(resolved, SimdMode::kU64);
}

TEST(EnvConfig, SimdUnsupportedExplicitModesThrowNotDowngrade) {
  for (const SimdMode mode : {SimdMode::kAvx2, SimdMode::kAvx512}) {
    if (simd_mode_supported(mode)) {
      EXPECT_EQ(resolve_simd_mode(mode), mode) << simd_mode_name(mode);
    } else {
      // This CPU/build cannot honour the request: resolve must die loudly
      // (naming the mode), never quietly hand back a narrower backend.
      try {
        resolve_simd_mode(mode);
        FAIL() << "expected throw for " << simd_mode_name(mode);
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(simd_mode_name(mode)),
                  std::string::npos);
      }
    }
  }
}

TEST(EnvConfig, SimdLanesAwareAutoNeverOverallocates) {
  ScopedUnsetEnv env("HLP_SIMD");
  // Auto sizes the word to the batch: narrowest supported backend that
  // covers the lane demand.
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 1), SimdMode::kU64);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 64), SimdMode::kU64);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 65), SimdMode::kX2);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 128), SimdMode::kX2);
  const SimdMode want256 = simd_mode_supported(SimdMode::kAvx2)
                               ? SimdMode::kAvx2
                               : SimdMode::kX4;
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 129), want256);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 256), want256);
  const SimdMode want512 = simd_mode_supported(SimdMode::kAvx512)
                               ? SimdMode::kAvx512
                               : SimdMode::kX8;
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 257), want512);
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 10000), want512);
  // Explicit modes (and an explicit HLP_SIMD) are never narrowed.
  EXPECT_EQ(effective_simd_mode(SimdMode::kX8, 1), SimdMode::kX8);
  env.set("x4");
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto, 1), SimdMode::kX4);
}

TEST(EnvConfig, SimdEffectiveModePrefersExplicitOverEnv) {
  ScopedUnsetEnv env("HLP_SIMD");
  // Explicit spec wins even when the env var is set...
  env.set("x4");
  EXPECT_EQ(effective_simd_mode(SimdMode::kX2), SimdMode::kX2);
  // ...and kAuto defers to the env var.
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto), SimdMode::kX4);
  // With nothing set, kAuto resolves like resolve_simd_mode(kAuto).
  ScopedUnsetEnv unset("HLP_SIMD");
  EXPECT_EQ(effective_simd_mode(SimdMode::kAuto),
            resolve_simd_mode(SimdMode::kAuto));
}

TEST(EnvConfig, SaModeUnsetAndEmptyFallBack) {
  ScopedUnsetEnv env("HLP_SA_MODE");
  EXPECT_EQ(sa_mode_from_env(), SaMode::kEstimated);
  EXPECT_EQ(sa_mode_from_env(SaMode::kExact), SaMode::kExact);
  env.set("");
  EXPECT_EQ(sa_mode_from_env(SaMode::kSimulated), SaMode::kSimulated);
}

TEST(EnvConfig, SaModeParsesEveryKnownMode) {
  ScopedUnsetEnv env("HLP_SA_MODE");
  for (const SaMode mode : all_sa_modes()) {
    env.set(sa_mode_name(mode));
    EXPECT_EQ(sa_mode_from_env(SaMode::kSimulated), mode)
        << sa_mode_name(mode);
  }
}

TEST(EnvConfig, SaModeRejectsGarbage) {
  ScopedUnsetEnv env("HLP_SA_MODE");
  // Strictly the lowercase canonical names: no case folding, no aliases,
  // no trailing junk, and — unlike HLP_SIMD — no "auto": the
  // modes return *different values*, so a deferred pick has no meaning.
  for (const char* bad : {"ESTIMATE", "Sim", "Exact", "simulate", "estimated",
                          "bdd", "mc", "auto", "exact ", " sim", "0", "1"}) {
    env.set(bad);
    EXPECT_THROW(sa_mode_from_env(), Error) << "input '" << bad << "'";
  }
}

TEST(EnvConfig, SaModeErrorNamesTheVariableAndValue) {
  ScopedUnsetEnv env("HLP_SA_MODE");
  env.set("banana");
  try {
    sa_mode_from_env();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HLP_SA_MODE"), std::string::npos);
    EXPECT_NE(what.find("banana"), std::string::npos);
    EXPECT_NE(what.find("exact"), std::string::npos);  // lists accepted set
  }
}

TEST(EnvConfig, SaModeEffectiveModePrefersExplicitOverEnv) {
  ScopedUnsetEnv env("HLP_SA_MODE");
  // An explicit request wins even when the env var is set...
  env.set("exact");
  EXPECT_EQ(effective_sa_mode(SaMode::kSimulated), SaMode::kSimulated);
  // ...and an absent request defers to the env var.
  EXPECT_EQ(effective_sa_mode(std::nullopt), SaMode::kExact);
  env.set("sim");
  EXPECT_EQ(effective_sa_mode(std::nullopt), SaMode::kSimulated);
  // With nothing set anywhere, the resolution is always concrete: the
  // seed default, kEstimated. There is no deferred "auto" SA mode.
  ScopedUnsetEnv unset("HLP_SA_MODE");
  EXPECT_EQ(effective_sa_mode(std::nullopt), SaMode::kEstimated);
  EXPECT_EQ(effective_sa_mode(SaMode::kExact), SaMode::kExact);
}

TEST(EnvConfig, ExactBudgetUnsetAndEmptyFallBack) {
  ScopedUnsetEnv env("HLP_EXACT_BUDGET");
  EXPECT_EQ(exact_budget_from_env(20000), 20000);
  env.set("");
  EXPECT_EQ(exact_budget_from_env(5), 5);
}

TEST(EnvConfig, ExactBudgetParsesValidCounts) {
  ScopedUnsetEnv env("HLP_EXACT_BUDGET");
  env.set("1");  // smallest legal budget: every gate cone falls back
  EXPECT_EQ(exact_budget_from_env(20000), 1);
  env.set("1000000");
  EXPECT_EQ(exact_budget_from_env(20000), 1000000);
  env.set("2147483647");  // INT_MAX is the inclusive upper bound
  EXPECT_EQ(exact_budget_from_env(20000), 2147483647);
}

TEST(EnvConfig, ExactBudgetRejectsGarbageNegativeAndOverflow) {
  ScopedUnsetEnv env("HLP_EXACT_BUDGET");
  for (const char* bad : kGarbage) {
    env.set(bad);
    EXPECT_THROW(exact_budget_from_env(20000), Error)
        << "input '" << bad << "'";
  }
  for (const char* bad : kNonPositive) {
    env.set(bad);
    EXPECT_THROW(exact_budget_from_env(20000), Error)
        << "input '" << bad << "'";
  }
  for (const char* bad : kOverflow) {
    env.set(bad);
    EXPECT_THROW(exact_budget_from_env(20000), Error)
        << "input '" << bad << "'";
  }
}

TEST(EnvConfig, ExactBudgetErrorNamesTheVariableAndValue) {
  ScopedUnsetEnv env("HLP_EXACT_BUDGET");
  env.set("banana");
  try {
    exact_budget_from_env(20000);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HLP_EXACT_BUDGET"), std::string::npos);
    EXPECT_NE(what.find("banana"), std::string::npos);
  }
}

TEST(EnvConfig, StoreUnsetAndEmptyFallBack) {
  ScopedUnsetEnv env("HLP_STORE");
  EXPECT_EQ(flow::store_dir_from_env(""), "");
  EXPECT_EQ(flow::store_dir_from_env("/some/dir"), "/some/dir");
  env.set("");
  EXPECT_EQ(flow::store_dir_from_env("/other"), "/other");
}

TEST(EnvConfig, StoreEnvSetsTheRunnerDefault) {
  ScopedUnsetEnv env("HLP_STORE");
  flow::ExperimentRunner off(1);
  EXPECT_TRUE(off.store_dir().empty());  // unset = no persistent store
  const std::string dir = ::testing::TempDir() + "/env_store_default";
  env.set(dir.c_str());
  flow::ExperimentRunner on(1);
  EXPECT_EQ(on.store_dir(), dir);
  ASSERT_NE(on.artifact_store(), nullptr);
  EXPECT_EQ(on.artifact_store()->root(), dir);
}

TEST(EnvConfig, StorePrefersExplicitOverEnv) {
  ScopedUnsetEnv env("HLP_STORE");
  env.set((::testing::TempDir() + "/env_store_loser").c_str());
  const std::string dir = ::testing::TempDir() + "/env_store_winner";
  flow::ExperimentRunner runner(1);
  runner.set_store_dir(dir);
  EXPECT_EQ(runner.store_dir(), dir);
  ASSERT_NE(runner.artifact_store(), nullptr);
  EXPECT_EQ(runner.artifact_store()->root(), dir);
  // Explicit empty turns the store OFF even with the env var set.
  flow::ExperimentRunner none(1);
  none.set_store_dir("");
  EXPECT_EQ(none.artifact_store(), nullptr);
}

TEST(EnvConfig, StoreGarbagePathErrorNamesTheVariableAndValue) {
  ScopedUnsetEnv env("HLP_STORE");
  // A path that cannot be a directory: opening must die loudly, naming
  // the variable the bad value came from — not degrade to a cold run.
  env.set("/dev/null/nope");
  flow::ExperimentRunner runner(1);
  try {
    runner.artifact_store();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HLP_STORE"), std::string::npos);
    EXPECT_NE(what.find("/dev/null/nope"), std::string::npos);
  }
  // The same bad path via the explicit setter blames the path, not the
  // (unrelated) environment variable.
  flow::ExperimentRunner explicit_runner(1);
  explicit_runner.set_store_dir("/dev/null/nope");
  try {
    explicit_runner.artifact_store();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("HLP_STORE"), std::string::npos) << what;
    EXPECT_NE(what.find("/dev/null/nope"), std::string::npos);
  }
}

TEST(EnvConfig, CoalesceEnvSetsTheRunnerDefault) {
  ScopedUnsetEnv env("HLP_COALESCE");
  env.set("0");
  flow::ExperimentRunner off(1);
  EXPECT_FALSE(off.coalescing());
  env.set("1");
  flow::ExperimentRunner on(1);
  EXPECT_TRUE(on.coalescing());
}

}  // namespace
}  // namespace hlp
