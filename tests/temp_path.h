// Scratch paths for tests that write files. ctest runs every discovered test
// in its own process, several at once under `ctest -jN`, so a fixed name
// under ::testing::TempDir() lets one test delete or overwrite another's
// files. Prefixing the pid and the running test's name makes each path
// private to one process and one test.
#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace autosens::test_support {

inline std::filesystem::path temp_path(const std::string& name) {
  std::string stem = "autosens_" + std::to_string(::getpid());
  if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
    stem += '_';
    stem += info->test_suite_name();
    stem += '_';
    stem += info->name();
  }
  stem += '_';
  stem += name;
  std::replace(stem.begin(), stem.end(), '/', '_');  // parameterized test names
  return std::filesystem::path(::testing::TempDir()) / stem;
}

}  // namespace autosens::test_support
