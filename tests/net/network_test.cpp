#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hpp"

namespace ethsim::net {
namespace {

using namespace ethsim::literals;

// Pin neutral parameters: these tests check the delay mechanics, not the
// Fig 1-calibrated defaults.
inline NetworkParams NeutralParams() {
  NetworkParams params;
  params.latency_scale = 1.0;
  params.jitter_sigma = 0.25;
  params.slow_path_prob = 0.0;
  return params;
}

struct NetworkFixture : ::testing::Test {
  sim::Simulator simulator;
  Network net{simulator, Rng{42}, NeutralParams()};
};

TEST_F(NetworkFixture, AddHostAssignsSequentialIds) {
  const HostId a = net.AddHost({Region::NorthAmerica, 1e9});
  const HostId b = net.AddHost({Region::EasternAsia, 1e9});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(net.host_count(), 2u);
  EXPECT_EQ(net.host(a).region, Region::NorthAmerica);
}

TEST_F(NetworkFixture, DelayAtLeastBaseLatency) {
  const HostId a = net.AddHost({Region::NorthAmerica, 1e9});
  const HostId b = net.AddHost({Region::EasternAsia, 1e9});
  // Lognormal jitter median is 1.0; over many samples the minimum should not
  // fall far below ~60% of base, and mean should be near base.
  RunningStats stats;
  for (int i = 0; i < 2000; ++i)
    stats.Add(net.SampleDelay(a, b, 0).millis());
  const double base_ms = BaseOneWayLatency(Region::NorthAmerica,
                                           Region::EasternAsia).millis();
  EXPECT_GT(stats.min(), base_ms * 0.3);
  EXPECT_NEAR(stats.mean(), base_ms * 1.03, base_ms * 0.12);  // E[lognormal]≈1.03
}

TEST_F(NetworkFixture, LargerMessagesTakeLonger) {
  const HostId a = net.AddHost({Region::WesternEurope, 8e6});  // 1 MB/s
  const HostId b = net.AddHost({Region::WesternEurope, 8e6});
  RunningStats small, large;
  for (int i = 0; i < 500; ++i) {
    small.Add(net.SampleDelay(a, b, 100).millis());
    large.Add(net.SampleDelay(a, b, 100'000).millis());
  }
  // 100 KB at 1 MB/s adds 100 ms of transfer time.
  EXPECT_GT(large.mean() - small.mean(), 80.0);
}

TEST_F(NetworkFixture, BottleneckIsMinBandwidth) {
  const HostId fast = net.AddHost({Region::WesternEurope, 1e12});
  const HostId slow = net.AddHost({Region::WesternEurope, 8e6});
  RunningStats up;
  for (int i = 0; i < 200; ++i) up.Add(net.SampleDelay(fast, slow, 100'000).millis());
  EXPECT_GT(up.mean(), 80.0);  // limited by the 1 MB/s receiver
}

TEST_F(NetworkFixture, SendDeliversAfterDelay) {
  const HostId a = net.AddHost({Region::WesternEurope, 1e9});
  const HostId b = net.AddHost({Region::EasternAsia, 1e9});
  bool delivered = false;
  TimePoint at;
  net.Send(a, b, 1000, obs::MsgKind::kNewBlock, [&] {
    delivered = true;
    at = simulator.Now();
  });
  simulator.RunAll();
  EXPECT_TRUE(delivered);
  EXPECT_GT(at.millis(), 30.0);  // at least some fraction of base latency
}

TEST_F(NetworkFixture, FifoOrderPerDirectedPair) {
  const HostId a = net.AddHost({Region::WesternEurope, 1e9});
  const HostId b = net.AddHost({Region::EasternAsia, 1e9});
  std::vector<int> order;
  // Even if jitter would reorder, the TCP model must deliver in send order.
  for (int i = 0; i < 50; ++i)
    net.Send(a, b, 100, obs::MsgKind::kTransactions,
             [&, i] { order.push_back(i); });
  simulator.RunAll();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_F(NetworkFixture, FifoClampSurvivesPairTableGrowth) {
  // Every directed pair of 40 hosts sends a 100 KB message (100 ms at 1 MB/s),
  // then a tiny one. The 1,560 first sends grow the clamp table through
  // several rehashes before any second send looks its pair up again, and
  // each tiny message must still queue behind its pair's large one.
  constexpr HostId kHosts = 40;
  for (HostId h = 0; h < kHosts; ++h) net.AddHost({Region::WesternEurope, 8e6});
  std::vector<int> delivered(kHosts * kHosts, 0);
  int out_of_order = 0;
  for (int k = 0; k < 2; ++k)
    for (HostId from = 0; from < kHosts; ++from)
      for (HostId to = 0; to < kHosts; ++to) {
        if (from == to) continue;
        net.Send(from, to, k == 0 ? 100'000 : 100, obs::MsgKind::kNewBlock,
                 [&, pair = from * kHosts + to, k] {
                   if (delivered[pair] != k) ++out_of_order;
                   delivered[pair] = k + 1;
                 });
      }
  simulator.RunAll();
  EXPECT_EQ(out_of_order, 0);
  for (HostId from = 0; from < kHosts; ++from)
    for (HostId to = 0; to < kHosts; ++to)
      EXPECT_EQ(delivered[from * kHosts + to], from == to ? 0 : 2);
}

TEST_F(NetworkFixture, IndependentPairsMayInterleave) {
  // FIFO applies per-pair only; a message on a fast pair sent after a slow
  // pair's message can still arrive first.
  const HostId we1 = net.AddHost({Region::WesternEurope, 1e9});
  const HostId we2 = net.AddHost({Region::WesternEurope, 1e9});
  const HostId oc = net.AddHost({Region::Oceania, 1e9});
  std::vector<char> order;
  net.Send(we1, oc, 100, obs::MsgKind::kAnnouncement,
           [&] { order.push_back('s'); });  // slow pair first
  net.Send(we1, we2, 100, obs::MsgKind::kAnnouncement,
           [&] { order.push_back('f'); });  // fast pair second
  simulator.RunAll();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'f');
  EXPECT_EQ(order[1], 's');
}

TEST_F(NetworkFixture, LatencyScaleStretchesDelays) {
  NetworkParams scaled = NeutralParams();
  scaled.latency_scale = 3.0;
  Network slow_net{simulator, Rng{42}, scaled};
  const HostId a = slow_net.AddHost({Region::NorthAmerica, 1e9});
  const HostId b = slow_net.AddHost({Region::EasternAsia, 1e9});
  const HostId a2 = net.AddHost({Region::NorthAmerica, 1e9});
  const HostId b2 = net.AddHost({Region::EasternAsia, 1e9});
  RunningStats s1, s3;
  for (int i = 0; i < 1000; ++i) {
    s1.Add(net.SampleDelay(a2, b2, 0).millis());
    s3.Add(slow_net.SampleDelay(a, b, 0).millis());
  }
  EXPECT_NEAR(s3.mean() / s1.mean(), 3.0, 0.35);
}

TEST(NetworkSlowPath, FattensTheTail) {
  sim::Simulator simulator;
  NetworkParams plain = NeutralParams();
  NetworkParams spiky = NeutralParams();
  spiky.slow_path_prob = 0.05;
  spiky.slow_path_factor_max = 6.0;
  Network a{simulator, Rng{42}, plain};
  Network b{simulator, Rng{42}, spiky};
  const HostId a1 = a.AddHost({Region::WesternEurope, 1e9});
  const HostId a2 = a.AddHost({Region::EasternAsia, 1e9});
  const HostId b1 = b.AddHost({Region::WesternEurope, 1e9});
  const HostId b2 = b.AddHost({Region::EasternAsia, 1e9});

  SampleSet sp, ss;
  for (int i = 0; i < 20'000; ++i) {
    sp.Add(a.SampleDelay(a1, a2, 0).millis());
    ss.Add(b.SampleDelay(b1, b2, 0).millis());
  }
  // Medians barely move; the p99 tail stretches noticeably.
  EXPECT_NEAR(ss.Median(), sp.Median(), sp.Median() * 0.1);
  EXPECT_GT(ss.Quantile(0.99), sp.Quantile(0.99) * 1.5);
}


TEST(NetworkDrops, DropProbabilityLosesMessages) {
  sim::Simulator simulator;
  NetworkParams lossy = NeutralParams();
  lossy.drop_prob = 0.5;
  Network net{simulator, Rng{21}, lossy};
  const HostId a = net.AddHost({Region::WesternEurope, 1e9});
  const HostId b = net.AddHost({Region::WesternEurope, 1e9});
  int delivered = 0;
  const int n = 10'000;
  for (int i = 0; i < n; ++i)
    net.Send(a, b, 100, obs::MsgKind::kTransactions, [&] { ++delivered; });
  simulator.RunAll();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.5, 0.02);
  EXPECT_EQ(net.messages_dropped() + static_cast<std::uint64_t>(delivered),
            static_cast<std::uint64_t>(n));
}

TEST(NetworkDrops, ZeroDropDeliversEverything) {
  sim::Simulator simulator;
  Network net{simulator, Rng{22}, NeutralParams()};
  const HostId a = net.AddHost({Region::WesternEurope, 1e9});
  const HostId b = net.AddHost({Region::WesternEurope, 1e9});
  int delivered = 0;
  for (int i = 0; i < 1000; ++i)
    net.Send(a, b, 100, obs::MsgKind::kTransactions, [&] { ++delivered; });
  simulator.RunAll();
  EXPECT_EQ(delivered, 1000);
  EXPECT_EQ(net.messages_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Fault substrate: partitions, degradation windows, reasoned drop census.

TEST_F(NetworkFixture, PartitionDropsCrossSideTrafficOnly) {
  const HostId we = net.AddHost({Region::WesternEurope, 1e9});
  const HostId ea = net.AddHost({Region::EasternAsia, 1e9});
  const HostId we2 = net.AddHost({Region::WesternEurope, 1e9});
  net.SetPartition(1u << static_cast<unsigned>(Region::EasternAsia));
  ASSERT_TRUE(net.partition_active());

  int delivered = 0;
  net.Send(we, ea, 100, obs::MsgKind::kNewBlock, [&] { ++delivered; });
  net.Send(ea, we, 100, obs::MsgKind::kAnnouncement, [&] { ++delivered; });
  net.Send(we, we2, 100, obs::MsgKind::kNewBlock, [&] { ++delivered; });
  simulator.RunAll();
  EXPECT_EQ(delivered, 1);  // only the intra-side message survived
  EXPECT_EQ(net.messages_dropped(), 2u);
  EXPECT_EQ(net.dropped_by(DropReason::kPartitioned), 2u);
  // Source-region attribution: one WE-sourced, one EA-sourced.
  EXPECT_EQ(net.dropped_by(obs::MsgKind::kNewBlock, Region::WesternEurope), 1u);
  EXPECT_EQ(net.dropped_by(obs::MsgKind::kAnnouncement, Region::EasternAsia),
            1u);

  net.ClearPartition();
  EXPECT_FALSE(net.partition_active());
  net.Send(we, ea, 100, obs::MsgKind::kNewBlock, [&] { ++delivered; });
  simulator.RunAll();
  EXPECT_EQ(delivered, 2);  // healed
  EXPECT_EQ(net.messages_dropped(), 2u);
}

TEST(NetworkPartition, DropsConsumeNoRng) {
  // The partition gate fires before any RNG draw: a network that dropped a
  // thousand cross-side messages continues its jitter stream exactly where a
  // partition-free twin is.
  sim::Simulator simulator;
  Network with{simulator, Rng{42}, NeutralParams()};
  Network without{simulator, Rng{42}, NeutralParams()};
  for (Network* n : {&with, &without}) {
    n->AddHost({Region::WesternEurope, 1e9});
    n->AddHost({Region::EasternAsia, 1e9});
  }
  with.SetPartition(1u << static_cast<unsigned>(Region::EasternAsia));
  for (int i = 0; i < 1000; ++i)
    with.Send(0, 1, 100, obs::MsgKind::kNewBlock, [] {});
  EXPECT_EQ(with.dropped_by(DropReason::kPartitioned), 1000u);
  with.ClearPartition();

  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(with.SampleDelay(0, 1, 100).micros(),
              without.SampleDelay(0, 1, 100).micros())
        << "stream diverged at draw " << i;
}

TEST(NetworkDegradation, StretchesScopedLatencyExactly) {
  // Same seed, one degraded: every scoped sample scales by exactly the
  // latency factor (the factor applies after the jitter draw), and unscoped
  // links replay the plain network bit-for-bit.
  sim::Simulator simulator;
  NetworkParams params = NeutralParams();
  Network plain{simulator, Rng{42}, params};
  Network degraded{simulator, Rng{42}, params};
  for (Network* n : {&plain, &degraded}) {
    n->AddHost({Region::WesternEurope, 1e9});  // 0
    n->AddHost({Region::EasternAsia, 1e9});    // 1
    n->AddHost({Region::WesternEurope, 1e9});  // 2
  }
  LinkDegradation window;
  window.region_mask = 1u << static_cast<unsigned>(Region::EasternAsia);
  window.latency_factor = 3.0;
  degraded.SetDegradation(window);
  ASSERT_TRUE(degraded.degradation_active());

  const double overhead_us =
      static_cast<double>(params.per_message_overhead.micros());
  for (int i = 0; i < 200; ++i) {
    const double p =
        static_cast<double>(plain.SampleDelay(0, 1, 0).micros()) - overhead_us;
    const double d =
        static_cast<double>(degraded.SampleDelay(0, 1, 0).micros()) -
        overhead_us;
    EXPECT_NEAR(d, 3.0 * p, 4.0) << "sample " << i;  // int-us truncation
  }
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(plain.SampleDelay(0, 2, 0).micros(),
              degraded.SampleDelay(0, 2, 0).micros())
        << "unscoped link perturbed at draw " << i;

  degraded.ClearDegradation();
  EXPECT_FALSE(degraded.degradation_active());
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(plain.SampleDelay(0, 1, 0).micros(),
              degraded.SampleDelay(0, 1, 0).micros());
}

TEST(NetworkDegradation, ShrinksBandwidthOnScopedLinks) {
  sim::Simulator simulator;
  Network net{simulator, Rng{7}, NeutralParams()};
  const HostId a = net.AddHost({Region::WesternEurope, 8e6});  // 1 MB/s
  const HostId b = net.AddHost({Region::WesternEurope, 8e6});
  RunningStats before, after;
  for (int i = 0; i < 300; ++i)
    before.Add(net.SampleDelay(a, b, 100'000).millis());
  LinkDegradation window;
  window.region_mask = 1u << static_cast<unsigned>(Region::WesternEurope);
  window.bandwidth_factor = 4.0;
  net.SetDegradation(window);
  for (int i = 0; i < 300; ++i)
    after.Add(net.SampleDelay(a, b, 100'000).millis());
  // 100 KB at 1 MB/s is ~100 ms of transfer; at a quarter of the bandwidth
  // it is ~400 ms.
  EXPECT_GT(after.mean() - before.mean(), 250.0);
}

TEST(NetworkDegradation, ExtraLossIsCensusedAndScoped) {
  sim::Simulator simulator;
  Network net{simulator, Rng{5}, NeutralParams()};
  const HostId we = net.AddHost({Region::WesternEurope, 1e9});
  const HostId ea = net.AddHost({Region::EasternAsia, 1e9});
  const HostId we2 = net.AddHost({Region::WesternEurope, 1e9});
  LinkDegradation window;
  window.region_mask = 1u << static_cast<unsigned>(Region::EasternAsia);
  window.extra_drop_prob = 0.5;
  net.SetDegradation(window);

  int delivered = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i)
    net.Send(we, ea, 100, obs::MsgKind::kNewBlock, [&] { ++delivered; });
  for (int i = 0; i < 500; ++i)  // unscoped link: lossless
    net.Send(we, we2, 100, obs::MsgKind::kNewBlock, [&] { ++delivered; });
  simulator.RunAll();
  EXPECT_NEAR(static_cast<double>(net.dropped_by(DropReason::kDegraded)) / n,
              0.5, 0.04);
  EXPECT_EQ(net.messages_dropped(), net.dropped_by(DropReason::kDegraded));
  EXPECT_EQ(delivered + static_cast<int>(net.messages_dropped()), n + 500);

  net.ClearDegradation();
  const std::uint64_t frozen = net.messages_dropped();
  for (int i = 0; i < 500; ++i)
    net.Send(we, ea, 100, obs::MsgKind::kNewBlock, [&] { ++delivered; });
  simulator.RunAll();
  EXPECT_EQ(net.messages_dropped(), frozen);
}

TEST(NetworkDropCensus, ReportsEveryReasonDimension) {
  sim::Simulator simulator;
  NetworkParams lossy = NeutralParams();
  lossy.drop_prob = 1.0;  // every normal send is a random loss
  Network net{simulator, Rng{3}, lossy};
  const HostId we = net.AddHost({Region::WesternEurope, 1e9});
  const HostId ea = net.AddHost({Region::EasternAsia, 1e9});

  net.Send(we, ea, 100, obs::MsgKind::kTransactions, [] {});  // random loss
  net.SetPartition(1u << static_cast<unsigned>(Region::EasternAsia));
  net.Send(we, ea, 100, obs::MsgKind::kNewBlock, [] {});      // partitioned
  net.ClearPartition();
  net.NoteOfflineDrop(obs::MsgKind::kAnnouncement, Region::EasternAsia);

  EXPECT_EQ(net.messages_dropped(), 3u);
  EXPECT_EQ(net.dropped_by(DropReason::kRandomLoss), 1u);
  EXPECT_EQ(net.dropped_by(DropReason::kPartitioned), 1u);
  EXPECT_EQ(net.dropped_by(DropReason::kOffline), 1u);
  EXPECT_EQ(net.dropped_by(DropReason::kDegraded), 0u);

  const std::vector<DropRecord> report = net.DropReport();
  ASSERT_EQ(report.size(), 3u);
  // Ordered by (reason, kind, region).
  EXPECT_EQ(report[0].reason, DropReason::kRandomLoss);
  EXPECT_EQ(report[0].kind, obs::MsgKind::kTransactions);
  EXPECT_EQ(report[1].reason, DropReason::kPartitioned);
  EXPECT_EQ(report[1].kind, obs::MsgKind::kNewBlock);
  EXPECT_EQ(report[2].reason, DropReason::kOffline);
  EXPECT_EQ(report[2].source_region, Region::EasternAsia);

  const std::string text = net.RenderDropReport();
  for (const char* needle : {"random_loss", "partitioned", "offline"})
    EXPECT_NE(text.find(needle), std::string::npos) << text;
}

TEST(NetworkDropCensus, EmptyCensusRendersEmpty) {
  sim::Simulator simulator;
  Network net{simulator, Rng{4}, NeutralParams()};
  EXPECT_TRUE(net.DropReport().empty());
  EXPECT_TRUE(net.RenderDropReport().empty());
}

TEST(ClockModel, OffsetsMatchPaperEnvelope) {
  ClockModel clocks{Rng{7}};
  int under_10 = 0, under_100 = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double ms = std::abs(clocks.SampleOffset().millis());
    under_10 += ms < 10.0;
    under_100 += ms < 100.0;
    ASSERT_LE(ms, 250.0);
  }
  // §II: NTP offsets < 10 ms in 90% of cases, < 100 ms in 99%.
  EXPECT_NEAR(static_cast<double>(under_10) / n, 0.90, 0.01);
  EXPECT_NEAR(static_cast<double>(under_100) / n, 0.99, 0.005);
}

TEST(ClockModel, OffsetsAreSignSymmetric) {
  ClockModel clocks{Rng{9}};
  int positive = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) positive += clocks.SampleOffset().micros() > 0;
  EXPECT_NEAR(static_cast<double>(positive) / n, 0.5, 0.02);
}

}  // namespace
}  // namespace ethsim::net
