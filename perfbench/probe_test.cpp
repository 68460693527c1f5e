#include "probe.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

constexpr const char* kStatus =
    "Name:\tethsim_study\n"
    "VmPeak:\t  900000 kB\n"
    "VmHWM:\t  921600 kB\n"
    "VmRSS:\t    2048 kB\n"
    "VmRSSX:\t      1 kB\n"
    "Threads:\t1\n";

TEST(StatusMb, ReadsKilobyteLinesAsMegabytes) {
  EXPECT_DOUBLE_EQ(*StatusMb(kStatus, "VmRSS"), 2.0);
  EXPECT_DOUBLE_EQ(*StatusMb(kStatus, "VmHWM"), 900.0);
}

TEST(StatusMb, MissingOrMalformedKeyIsEmpty) {
  EXPECT_FALSE(StatusMb(kStatus, "VmSwap"));
  EXPECT_FALSE(StatusMb(kStatus, "VmRS"));      // prefix of a key
  EXPECT_FALSE(StatusMb(kStatus, "Threads"));   // no kB unit
  EXPECT_FALSE(StatusMb("VmRSS:\t abc kB\n", "VmRSS"));
  EXPECT_FALSE(StatusMb("", "VmRSS"));
}

TEST(StatusMb, LastLineWithoutNewline) {
  EXPECT_DOUBLE_EQ(*StatusMb("VmRSS:\t1024 kB", "VmRSS"), 1.0);
}

TEST(ReadSelfStatusMb, GrowsWithTouchedMemory) {
  const double before = *ReadSelfStatusMb("VmRSS");
  std::vector<char> block(64u << 20, 1);  // 64 MB, every page written
  const double after = *ReadSelfStatusMb("VmRSS");
  EXPECT_GT(after - before, 48.0) << block[block.size() / 2];
  EXPECT_GE(*ReadSelfStatusMb("VmHWM"), after);
}

TEST(SpanLog, NestsAndWritesChromeTrace) {
  SpanLog log;
  const int outer = log.Begin("study");
  const int inner = log.Begin("setup");
  log.Count(inner, "nodes", 300);
  EXPECT_GE(log.End(inner), 0.0);
  EXPECT_GE(log.End(outer), log.Seconds(inner));
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[inner].parent, outer);
  EXPECT_EQ(log.spans()[outer].parent, -1);

  std::ostringstream out;
  log.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"setup\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":\"study\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\":300"), std::string::npos);
}

TEST(SpanLog, EndingAnOuterSpanFirstIsAnError) {
  SpanLog log;
  const int outer = log.Begin("outer");
  log.Begin("inner");
  EXPECT_THROW(log.End(outer), std::logic_error);
}

}  // namespace
}  // namespace perfbench
