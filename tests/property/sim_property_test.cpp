// Property tests: the event queue is a total order, stable under ties, and
// cancellation-safe for arbitrary random schedules.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "sim/simulator.hpp"

namespace ethsim::sim {
namespace {

class SimulatorOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorOrdering, ExecutionIsTimeMonotoneWithStableTies) {
  Rng rng{GetParam()};
  Simulator simulator;

  struct Record {
    std::int64_t when_us;
    int seq;
  };
  std::vector<Record> executed;
  int seq = 0;
  for (int i = 0; i < 2000; ++i) {
    // Coarse buckets force plenty of exact ties.
    const auto when = static_cast<std::int64_t>(rng.NextBounded(50) * 1000);
    const int my_seq = seq++;
    simulator.Schedule(Duration::Micros(when), [&executed, when, my_seq] {
      executed.push_back({when, my_seq});
    });
  }
  simulator.RunAll();

  ASSERT_EQ(executed.size(), 2000u);
  for (std::size_t i = 1; i < executed.size(); ++i) {
    EXPECT_GE(executed[i].when_us, executed[i - 1].when_us);
    if (executed[i].when_us == executed[i - 1].when_us) {
      EXPECT_GT(executed[i].seq, executed[i - 1].seq) << "tie not stable";
    }
  }
}

TEST_P(SimulatorOrdering, RandomCancellationNeverFiresCancelled) {
  Rng rng{GetParam() ^ 0x5a5a};
  Simulator simulator;
  std::vector<EventHandle> handles;
  std::vector<bool> fired(500, false);
  for (int i = 0; i < 500; ++i) {
    handles.push_back(simulator.Schedule(
        Duration::Micros(static_cast<std::int64_t>(rng.NextBounded(100'000))),
        [&fired, i] { fired[static_cast<std::size_t>(i)] = true; }));
  }
  std::vector<bool> cancelled(500, false);
  for (int i = 0; i < 500; ++i) {
    if (rng.NextBool(0.4)) {
      simulator.Cancel(handles[static_cast<std::size_t>(i)]);
      cancelled[static_cast<std::size_t>(i)] = true;
    }
  }
  simulator.RunAll();
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(fired[static_cast<std::size_t>(i)],
              !cancelled[static_cast<std::size_t>(i)])
        << "event " << i;
}

TEST_P(SimulatorOrdering, RunUntilPartitionsExecutionExactly) {
  Rng rng{GetParam() ^ 0xc3c3};
  Simulator simulator;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 800; ++i) {
    const auto when =
        static_cast<std::int64_t>(rng.NextBounded(1'000'000));
    times.push_back(when);
    simulator.Schedule(Duration::Micros(when), [] {});
  }
  const std::int64_t cut = 500'000;
  const std::uint64_t before = simulator.RunUntil(TimePoint::FromMicros(cut));
  std::uint64_t expected_before = 0;
  for (const auto t : times) expected_before += (t <= cut);
  EXPECT_EQ(before, expected_before);
  const std::uint64_t after = simulator.RunAll();
  EXPECT_EQ(before + after, times.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrdering,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace ethsim::sim
