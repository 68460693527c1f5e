#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "obs/json.hpp"

namespace ethsim::obs {
namespace {

// ---------------------------------------------------------------------------
// Instruments.

TEST(Counter, AddsAndDefaultsToOne) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Histogram, BucketsObservationsByInclusiveUpperBound) {
  Histogram h{{10, 100, 1000}};
  ASSERT_EQ(h.bucket_count(), 4u);  // 3 bounds + overflow
  h.Observe(10);    // inclusive: lands in bucket 0
  h.Observe(11);    // bucket 1
  h.Observe(1000);  // bucket 2
  h.Observe(5000);  // overflow
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 10 + 11 + 1000 + 5000);
  EXPECT_EQ(h.bound(0), 10);
  EXPECT_EQ(h.bound(3), INT64_MAX);
}

TEST(Histogram, QuantileInterpolatesAndHandlesEmpty) {
  Histogram empty{{10, 100}};
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  Histogram h{{10, 100, 1000}};
  for (int i = 0; i < 100; ++i) h.Observe(5);  // all in bucket 0
  // Median of a bucket-only distribution must land inside that bucket.
  const double q50 = h.Quantile(0.5);
  EXPECT_GE(q50, 0.0);
  EXPECT_LE(q50, 10.0);
  for (int i = 0; i < 100; ++i) h.Observe(500);  // bucket 2
  const double q99 = h.Quantile(0.99);
  EXPECT_GT(q99, 100.0);
  EXPECT_LE(q99, 1000.0);
}

TEST(CanonicalBuckets, AreSortedStrictlyIncreasing) {
  for (const auto& bounds : {LatencyBucketsUs(), SizeBucketsBytes()}) {
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i)
      EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ---------------------------------------------------------------------------
// Names.

TEST(LabeledName, RendersLabelsInCallerOrder) {
  EXPECT_EQ(LabeledName("net.msg.sent", {{"kind", "new_block"}}),
            "net.msg.sent{kind=new_block}");
  EXPECT_EQ(LabeledName("net.msg.dropped",
                        {{"kind", "announcement"}, {"region", "WE"}}),
            "net.msg.dropped{kind=announcement,region=WE}");
  EXPECT_EQ(LabeledName("plain", {}), "plain");
}

TEST(MsgKindName, CoversEveryKind) {
  for (std::size_t i = 0; i < kMsgKindCount; ++i)
    EXPECT_FALSE(MsgKindName(static_cast<MsgKind>(i)).empty());
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  Histogram* h1 = registry.GetHistogram("z", {1, 2, 3});
  Histogram* h2 = registry.GetHistogram("z", {1, 2, 3});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, PointersSurviveLaterRegistrations) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("m");
  // std::map nodes are stable: a burst of registrations must not move `first`.
  for (int i = 0; i < 1000; ++i)
    registry.GetCounter("filler." + std::to_string(i));
  first->Add(7);
  EXPECT_EQ(registry.FindCounter("m")->value(), 7u);
  EXPECT_EQ(registry.FindCounter("m"), first);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
  EXPECT_EQ(registry.FindHistogram("absent"), nullptr);
  EXPECT_TRUE(registry.empty());
}

TEST(MetricsRegistry, MergeFromAccumulates) {
  MetricsRegistry a, b;
  a.GetCounter("c")->Add(2);
  b.GetCounter("c")->Add(3);
  b.GetCounter("only_b")->Add(1);
  a.GetHistogram("h", {10, 100})->Observe(7);
  b.GetHistogram("h", {10, 100})->Observe(70);

  a.MergeFrom(b);
  EXPECT_EQ(a.FindCounter("c")->value(), 5u);
  EXPECT_EQ(a.FindCounter("only_b")->value(), 1u);
  const Histogram* h = a.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->bucket(0), 1u);
  EXPECT_EQ(h->bucket(1), 1u);
  EXPECT_EQ(h->sum(), 77);
}

TEST(MetricsRegistry, JsonlIsSortedDeterministicAndWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Add(1);
  registry.GetCounter("alpha")->Add(2);
  registry.GetHistogram("hist", LatencyBucketsUs())->Observe(12345);

  const std::string jsonl = registry.ToJsonl();
  // Same registry, same bytes.
  EXPECT_EQ(jsonl, registry.ToJsonl());
  // alpha precedes zeta in the stream (sorted by name within each section).
  EXPECT_LT(jsonl.find("alpha"), jsonl.find("zeta"));

  // Every line is a standalone well-formed JSON object.
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t objects = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue record;
    EXPECT_TRUE(ParseJson(line, &record)) << line;
    EXPECT_TRUE(record.is_object()) << line;
    ++objects;
  }
  EXPECT_EQ(objects, registry.size());
}

}  // namespace
}  // namespace ethsim::obs
