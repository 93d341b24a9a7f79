// Dedicated coverage for the strict env-var parsers: HLP_JOBS
// (flow::jobs_from_env), HLP_VECTORS (vectors_from_env), HLP_SA_MODE
// (sa_mode_from_env / effective_sa_mode) and HLP_STORE
// (flow::store_dir_from_env plus the runner's artifact-store wiring).
// Garbage, negative, zero, overflow and unset inputs each have a pinned
// behaviour: unset/empty falls back, everything invalid throws — a
// sweep must die loudly, not run with a silently defaulted
// configuration.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "flow/experiment.hpp"
#include "power/sa_mode.hpp"
#include "rtl/flow.hpp"
#include "store/artifact_store.hpp"
#include "test_dir.hpp"

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

TEST(EnvConfig, SaModeUnsetAndEmptyFallBack) {
  ScopedUnsetEnv env("HLP_SA_MODE");
  EXPECT_EQ(sa_mode_from_env(), SaMode::kEstimated);
  EXPECT_EQ(sa_mode_from_env(SaMode::kSimulated), SaMode::kSimulated);
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
  // no trailing junk, and no "auto": the modes return *different
  // values*, so a deferred pick has no meaning. "exact" names the BDD
  // accuracy oracle, which is not a table source.
  for (const char* bad : {"ESTIMATE", "Sim", "Exact", "simulate", "estimated",
                          "bdd", "mc", "auto", "exact", "exact ", " sim", "0",
                          "1"}) {
    env.set(bad);
    EXPECT_THROW(sa_mode_from_env(), Error) << "input '" << bad << "'";
  }
}

TEST(EnvConfig, SaModeErrorNamesTheVariableAndValue) {
  ScopedUnsetEnv env("HLP_SA_MODE");
  for (const char* bad : {"banana", "exact"}) {
    env.set(bad);
    try {
      sa_mode_from_env();
      ADD_FAILURE() << "expected throw for '" << bad << "'";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("HLP_SA_MODE"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
      // Lists the accepted set.
      EXPECT_NE(what.find("(accepted: estimate, sim)"), std::string::npos)
          << what;
    }
  }
}

TEST(EnvConfig, SaModeEffectiveModePrefersExplicitOverEnv) {
  ScopedUnsetEnv env("HLP_SA_MODE");
  // An explicit request wins even when the env var is set...
  env.set("sim");
  EXPECT_EQ(effective_sa_mode(SaMode::kEstimated), SaMode::kEstimated);
  // ...and an absent request defers to the env var.
  EXPECT_EQ(effective_sa_mode(std::nullopt), SaMode::kSimulated);
  env.set("estimate");
  EXPECT_EQ(effective_sa_mode(std::nullopt), SaMode::kEstimated);
  // With nothing set anywhere, the resolution is always concrete: the
  // seed default, kEstimated. There is no deferred "auto" SA mode.
  ScopedUnsetEnv unset("HLP_SA_MODE");
  EXPECT_EQ(effective_sa_mode(std::nullopt), SaMode::kEstimated);
  EXPECT_EQ(effective_sa_mode(SaMode::kSimulated), SaMode::kSimulated);
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
  const std::string dir = test::fresh_dir("env_store_default");
  env.set(dir.c_str());
  flow::ExperimentRunner on(1);
  EXPECT_EQ(on.store_dir(), dir);
  ASSERT_NE(on.artifact_store(), nullptr);
  EXPECT_EQ(on.artifact_store()->root(), dir);
}

TEST(EnvConfig, StorePrefersExplicitOverEnv) {
  ScopedUnsetEnv env("HLP_STORE");
  env.set(test::fresh_dir("env_store_loser").c_str());
  const std::string dir = test::fresh_dir("env_store_winner");
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

}  // namespace
}  // namespace hlp
