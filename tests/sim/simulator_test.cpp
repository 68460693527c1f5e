#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace ethsim::sim {
namespace {

using namespace ethsim::literals;

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.Now().micros(), 0);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(30_ms, [&] { order.push_back(3); });
  s.Schedule(10_ms, [&] { order.push_back(1); });
  s.Schedule(20_ms, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now().millis(), 30.0);
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.Schedule(5_ms, [&, i] { order.push_back(i); });
  s.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesDuringEvent) {
  Simulator s;
  TimePoint seen;
  s.Schedule(42_ms, [&] { seen = s.Now(); });
  s.RunAll();
  EXPECT_EQ(seen.millis(), 42.0);
}

TEST(Simulator, NestedSchedulingFromHandlers) {
  Simulator s;
  std::vector<double> fire_times;
  s.Schedule(10_ms, [&] {
    fire_times.push_back(s.Now().millis());
    s.Schedule(5_ms, [&] { fire_times.push_back(s.Now().millis()); });
  });
  s.RunAll();
  EXPECT_EQ(fire_times, (std::vector<double>{10.0, 15.0}));
}

TEST(Simulator, ZeroDelayRunsAtCurrentTimeAfterCurrentEvent) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(1_ms, [&] {
    order.push_back(1);
    s.Schedule(Duration::Micros(0), [&] { order.push_back(2); });
    order.push_back(3);  // runs before the zero-delay event
  });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, RunUntilStopsAndSetsClock) {
  Simulator s;
  int ran = 0;
  s.Schedule(10_ms, [&] { ++ran; });
  s.Schedule(100_ms, [&] { ++ran; });
  const std::uint64_t n = s.RunUntil(TimePoint::FromMicros(50'000));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.Now().millis(), 50.0);
  EXPECT_EQ(s.pending(), 1u);
  s.RunAll();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, RunUntilInclusiveOfBoundary) {
  Simulator s;
  int ran = 0;
  s.Schedule(50_ms, [&] { ++ran; });
  s.RunUntil(TimePoint::FromMicros(50'000));
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 25; ++i) s.Schedule(Duration::Millis(i), [] {});
  s.RunAll();
  EXPECT_EQ(s.events_executed(), 25u);
}

TEST(Simulator, SlotsRecycleAcrossPhases) {
  // Steady-state churn must not grow per-event state without bound: every
  // phase reuses the slots the first one allocated, and all of them are back
  // on the free list once the phase has run.
  Simulator s;
  int ran = 0;
  for (int phase = 0; phase < 50; ++phase) {
    for (int i = 0; i < 40; ++i) s.Schedule(Duration::Micros(i), [&] { ++ran; });
    s.RunAll();
    EXPECT_EQ(s.pending(), 0u);
    const obs::EngineSnapshot snapshot = s.Snapshot();
    EXPECT_EQ(snapshot.slots_allocated, 40u) << "phase " << phase;
    EXPECT_EQ(snapshot.free_slots, 40u) << "phase " << phase;
  }
  EXPECT_EQ(ran, 50 * 40);
}

TEST(Simulator, RunningCallbackSurvivesNestedSchedules) {
  // A callback runs in place in its arena slot, and the slot joins the free
  // list only after the callback returns: 5,000 nested Schedule calls (five
  // new arena chunks) must neither reuse nor move the running slot, so its
  // captured vector is intact when the handler reads it afterwards.
  Simulator s;
  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  std::vector<int> seen;
  int nested = 0;
  s.Schedule(1_ms, [&s, &seen, &nested, values = expected] {
    for (int i = 0; i < 5'000; ++i)
      s.Schedule(Duration::Micros(0), [&nested] { ++nested; });
    seen = values;
  });
  s.RunAll();
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(nested, 5'000);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator s;
  // Deterministic pseudo-random delays; verify monotone execution times.
  std::uint64_t x = 12345;
  double last = -1;
  int executed = 0;
  for (int i = 0; i < 10'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto delay_us = static_cast<std::int64_t>(x % 1'000'000);
    s.Schedule(Duration::Micros(delay_us), [&] {
      const double now = s.Now().seconds();
      EXPECT_GE(now, last);
      last = now;
      ++executed;
    });
  }
  s.RunAll();
  EXPECT_EQ(executed, 10'000);
}

TEST(Simulator, MillionEventStress) {
  Simulator s;
  std::uint64_t x = 2024;
  for (int i = 0; i < 1'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    s.Schedule(Duration::Micros(static_cast<std::int64_t>(x % 10'000'000)),
               [] {});
  }
  EXPECT_EQ(s.pending(), 1'000'000u);
  s.RunAll();
  EXPECT_EQ(s.events_executed(), 1'000'000u);
  EXPECT_EQ(s.pending(), 0u);
  int ran = 0;
  s.Schedule(1_ms, [&] { ++ran; });
  s.RunAll();
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace ethsim::sim
