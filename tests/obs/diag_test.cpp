// ETHSIM_LOG parsing and diagnostic-line formatting. ParseLogLevel and
// FormatDiagMessage are pure, so their tests never touch the environment (the
// cached DiagLevel/ProgressEnabled getters are process-wide and not
// re-testable per-case).
#include "obs/diag.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "obs/progress.hpp"

namespace {

using ethsim::obs::FormatDiagMessage;
using ethsim::obs::LogLevel;
using ethsim::obs::ParseLogLevel;

TEST(ParseLogLevel, RecognizedNames) {
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("0"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
}

TEST(ParseLogLevel, UnsetDefaultsToWarn) {
  EXPECT_EQ(ParseLogLevel(nullptr), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel(""), LogLevel::kWarn);
}

TEST(ParseLogLevel, MalformedDefaultsToWarn) {
  EXPECT_EQ(ParseLogLevel("verbose"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("ERROR"), LogLevel::kWarn);  // case-sensitive
  EXPECT_EQ(ParseLogLevel("3"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("-1"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("1"), LogLevel::kWarn);  // "1" == default tier
  EXPECT_EQ(ParseLogLevel("info"), LogLevel::kWarn);  // no tier above warn
  EXPECT_EQ(ParseLogLevel("2"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel(" error"), LogLevel::kWarn);  // no trimming
}

TEST(FormatDiagMessage, TagAndComponentShape) {
  EXPECT_EQ(FormatDiagMessage(LogLevel::kError, "dataset", "cannot open %s",
                              "logs.bin"),
            "[ethsim:dataset] error: cannot open logs.bin");
  EXPECT_EQ(FormatDiagMessage(LogLevel::kWarn, "sweep", "seed %d skipped", 7),
            "[ethsim:sweep] warn: seed 7 skipped");
}

TEST(FormatDiagMessage, FormatsNumericArguments) {
  EXPECT_EQ(FormatDiagMessage(LogLevel::kWarn, "net", "%u drops (%.1f%%)",
                              42u, 3.25),
            "[ethsim:net] warn: 42 drops (3.2%)");
}

TEST(FormatDiagMessage, NoTrailingNewline) {
  const std::string line =
      FormatDiagMessage(LogLevel::kError, "x", "message");
  ASSERT_FALSE(line.empty());
  EXPECT_NE(line.back(), '\n');
}

// ProgressConfig::FromEnv is the one parser of ETHSIM_PROGRESS (the cached
// ProgressEnabled reads its result); it is not cached, so it is tested by
// setting the variable around each call.
ethsim::obs::ProgressConfig ProgressFrom(const char* value) {
  if (value != nullptr)
    setenv("ETHSIM_PROGRESS", value, 1);
  else
    unsetenv("ETHSIM_PROGRESS");
  const ethsim::obs::ProgressConfig cfg = ethsim::obs::ProgressConfig::FromEnv();
  unsetenv("ETHSIM_PROGRESS");
  return cfg;
}

TEST(ProgressConfig, EnableRuleAndCadence) {
  EXPECT_FALSE(ProgressFrom(nullptr).enabled);
  EXPECT_FALSE(ProgressFrom("").enabled);
  EXPECT_FALSE(ProgressFrom("0").enabled);
  EXPECT_TRUE(ProgressFrom("00").enabled);
  EXPECT_EQ(ProgressFrom("10").min_wall_interval_s, 10.0);
  const ethsim::obs::ProgressConfig truthy = ProgressFrom("yes");
  EXPECT_TRUE(truthy.enabled);
  EXPECT_EQ(truthy.min_wall_interval_s, 2.0);
}

}  // namespace
