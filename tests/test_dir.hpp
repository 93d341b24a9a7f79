// One scratch directory per test process. Suites put their stores, logs
// and scripts under it instead of at fixed names under
// testing::TempDir(), so two runs of a suite on one host (a ctest run
// beside a sanitizer build's, or several started at once) never share or
// delete each other's files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace hlp::test {

/// `<testing::TempDir()>/hlp_test-<pid>`, created on first use and
/// removed with everything in it when the process that made it exits (a
/// forked child that exits leaves it alone).
inline const std::string& process_dir() {
  static const struct Root {
    pid_t owner = ::getpid();
    std::string path =
        ::testing::TempDir() + "/hlp_test-" + std::to_string(owner);
    Root() { std::filesystem::create_directories(path); }
    ~Root() {
      if (::getpid() != owner) return;
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } root;
  return root.path;
}

/// `process_dir()/<name>`, emptied: removed if a test before left it.
inline std::string fresh_dir(const std::string& name) {
  const std::string dir = process_dir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace hlp::test
