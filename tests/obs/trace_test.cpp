#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hpp"

namespace ethsim::obs {
namespace {

TraceEvent Instant(const char* name, std::int64_t ts,
                   TraceCategory cat = TraceCategory::kBlock) {
  TraceEvent event;
  event.name = name;
  event.ts_us = ts;
  event.cat = cat;
  event.phase = 'i';
  return event;
}

// ---------------------------------------------------------------------------
// Category parsing + filtering.

TEST(ParseTraceCategories, EmptyAndAllEnableEverything) {
  EXPECT_EQ(ParseTraceCategories(""), kAllTraceCategories);
  EXPECT_EQ(ParseTraceCategories("all"), kAllTraceCategories);
  EXPECT_EQ(ParseTraceCategories("1"), kAllTraceCategories);
}

TEST(ParseTraceCategories, SelectsNamedCategories) {
  const std::uint32_t mask = ParseTraceCategories("block,net");
  Tracer tracer{mask, 16};
  EXPECT_TRUE(tracer.enabled(TraceCategory::kBlock));
  EXPECT_TRUE(tracer.enabled(TraceCategory::kNet));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kTx));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kMine));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kSim));
}

TEST(ParseTraceCategories, IgnoresUnknownNames) {
  EXPECT_EQ(ParseTraceCategories("block,bogus"),
            ParseTraceCategories("block"));
}

TEST(Tracer, DisabledCategoryIsNotRecorded) {
  Tracer tracer{ParseTraceCategories("block"), 16};
  tracer.Emit(Instant("keep", 1, TraceCategory::kBlock));
  tracer.Emit(Instant("skip", 2, TraceCategory::kNet));
  EXPECT_EQ(tracer.emitted(), 1u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "keep");
}

// ---------------------------------------------------------------------------
// Ring behavior.

TEST(Tracer, RingKeepsTailAndCountsDropped) {
  Tracer tracer{kAllTraceCategories, 4};
  for (std::int64_t i = 0; i < 10; ++i) tracer.Emit(Instant("e", i));
  EXPECT_EQ(tracer.emitted(), 10u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first tail: timestamps 6..9.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].ts_us, static_cast<std::int64_t>(6 + i));
}

TEST(Tracer, NoDropsBelowCapacity) {
  Tracer tracer{kAllTraceCategories, 128};
  for (std::int64_t i = 0; i < 100; ++i) tracer.Emit(Instant("e", i));
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.Events().size(), 100u);
}

TEST(Tracer, CapacityClampedToAtLeastOne) {
  Tracer tracer{kAllTraceCategories, 0};
  EXPECT_GE(tracer.capacity(), 1u);
  tracer.Emit(Instant("e", 1));
  EXPECT_EQ(tracer.size(), 1u);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON.

TEST(Tracer, ChromeTraceJsonIsWellFormed) {
  Tracer tracer{kAllTraceCategories, 64};
  TraceEvent span;
  span.name = "block.validate";
  span.arg_kind = "new_block";
  span.ts_us = 1'000;
  span.dur_us = 50;
  span.arg_hash = 0xdeadbeefcafef00dull;
  span.arg_num = 7'479'574;
  span.pid = 3;
  span.tid = 9;
  span.cat = TraceCategory::kBlock;
  span.phase = 'X';
  tracer.Emit(span);
  tracer.Emit(Instant("mine.mint", 2'000, TraceCategory::kMine));

  const std::string json = tracer.ToChromeTraceJson();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc)) << json;
  ASSERT_NE(doc.Find("traceEvents"), nullptr);
  EXPECT_EQ(doc.Find("traceEvents")->items.size(), 2u);
  // Chrome trace-event envelope + both events present.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("block.validate"), std::string::npos);
  EXPECT_NE(json.find("mine.mint"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
}

TEST(Tracer, EmptyTraceIsStillValidJson) {
  Tracer tracer{kAllTraceCategories, 8};
  const std::string json = tracer.ToChromeTraceJson();
  JsonValue doc;
  EXPECT_TRUE(ParseJson(json, &doc)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Tracer, SerializationIsDeterministic) {
  const auto build = [] {
    Tracer tracer{kAllTraceCategories, 32};
    for (std::int64_t i = 0; i < 40; ++i)
      tracer.Emit(Instant("e", i, static_cast<TraceCategory>(i % 5)));
    return tracer.ToChromeTraceJson();
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace ethsim::obs
