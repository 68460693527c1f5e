// Golden-replay determinism audit for the chain-state memory-layout overhaul
// (interned block IDs, arena-backed BlockTree, incremental TxPool price
// index, shared BlockArena bodies — DESIGN.md §12).
//
// The expectations below were captured on the PRE-overhaul tree (the commit
// preceding the overhaul, hash-map BlockTree + rebuild-per-select TxPool) on
// the default build type. The overhaul is a memory-layout change only: every
// run must stay BYTE-IDENTICAL — head hash, head number, engine event count,
// and the determinism digest (which also covers every vantage observer's log
// digest) all unchanged, for fault-free runs, fault-plan runs, and
// provenance-on runs alike. If one of these values moves, the overhaul
// changed simulation behaviour, not just layout — that is a bug, never a
// "regenerate the golden" situation.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "fault/plan.hpp"
#include "net/geo.hpp"

namespace {

using namespace ethsim;

// table3_forks shape (SmallStudy + slow workload), scaled to smoke size.
core::ExperimentConfig Table3Smoke() {
  core::ExperimentConfig cfg = core::presets::SmallStudy(24);
  cfg.duration = Duration::Minutes(20);
  cfg.workload.rate_per_sec = 0.25;
  return cfg;
}

// resilience_partition shape: middle-third APAC split (EA|SEA|OC) vs the
// same config with an empty fault plan.
core::ExperimentConfig ResilienceSmoke(bool with_partition) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(24);
  cfg.duration = Duration::Minutes(12);
  cfg.workload.rate_per_sec = 0.5;
  if (with_partition) {
    const TimePoint start = TimePoint::FromMicros(cfg.duration.micros() / 3);
    const Duration window = Duration::Micros(cfg.duration.micros() / 3);
    const std::uint32_t apac_mask =
        (1u << static_cast<unsigned>(net::Region::EasternAsia)) |
        (1u << static_cast<unsigned>(net::Region::SoutheastAsia)) |
        (1u << static_cast<unsigned>(net::Region::Oceania));
    cfg.fault_plan.RegionalPartition(start, window, apac_mask);
  }
  return cfg;
}

struct Golden {
  const char* head_hash;  // hex, 64 chars
  std::uint64_t head_number;
  std::uint64_t events_executed;
  const char* determinism_digest;  // hex, 64 chars
};

void ExpectGolden(const core::ExperimentConfig& cfg, const Golden& golden,
                  const char* label) {
  core::Experiment exp{cfg};
  exp.Run();
  const std::string head = ToHex(exp.reference_tree().head_hash());
  const std::uint64_t number = exp.reference_tree().head_number();
  const std::uint64_t events = exp.simulator().events_executed();
  const std::string digest = ToHex(core::DeterminismDigest(exp));
  // One greppable line per config so refreshing a legitimately new golden
  // set (config change, never a layout change) is copy-paste.
  std::printf("golden[%s] = {\"%s\", %llu, %llu, \"%s\"}\n", label,
              head.c_str(), static_cast<unsigned long long>(number),
              static_cast<unsigned long long>(events), digest.c_str());
  EXPECT_EQ(head, golden.head_hash) << label;
  EXPECT_EQ(number, golden.head_number) << label;
  EXPECT_EQ(events, golden.events_executed) << label;
  EXPECT_EQ(digest, golden.determinism_digest) << label;
}

TEST(ChainGoldenReplay, Table3SmokeUnchanged) {
  const Golden golden = {
      "7d1a24c6e4e4248c7b283663cfd45e93b5b16357bda2be4624d96b1e0e84c16c",
      7479658, 816109,
      "719e032f18716168e85fba3ba04f57f7505efad748bbd020f57bfced7a226dd7"};
  ExpectGolden(Table3Smoke(), golden, "table3_smoke");
}

// Provenance recording must not shift the run (PR 4 contract) and the
// recorded run must still match the pre-overhaul golden.
TEST(ChainGoldenReplay, Table3SmokeProvenanceOnUnchanged) {
  // Identical to the provenance-off golden: recording may not shift a run.
  const Golden golden = {
      "7d1a24c6e4e4248c7b283663cfd45e93b5b16357bda2be4624d96b1e0e84c16c",
      7479658, 816109,
      "719e032f18716168e85fba3ba04f57f7505efad748bbd020f57bfced7a226dd7"};
  core::ExperimentConfig cfg = Table3Smoke();
  cfg.telemetry.provenance = true;
  ExpectGolden(cfg, golden, "table3_smoke_provenance");
}

// The tx-lifecycle recorder must not shift the run either: every hook is
// record-only (no Rng draws, no scheduled events), so the txprov-on run must
// match the txprov-off golden bit for bit — event count included.
TEST(ChainGoldenReplay, Table3SmokeTxProvOnUnchanged) {
  const Golden golden = {
      "7d1a24c6e4e4248c7b283663cfd45e93b5b16357bda2be4624d96b1e0e84c16c",
      7479658, 816109,
      "719e032f18716168e85fba3ba04f57f7505efad748bbd020f57bfced7a226dd7"};
  core::ExperimentConfig cfg = Table3Smoke();
  cfg.telemetry.txprov = true;
  ExpectGolden(cfg, golden, "table3_smoke_txprov");
}

// The state sampler must be read-only: its self-rescheduling tick adds
// events of its own (so events_executed grows), but the chain outcome and
// the determinism digest — which deliberately excludes the event count —
// must match the sampler-off golden bit for bit.
TEST(ChainGoldenReplay, Table3SmokeSamplerOnReadOnly) {
  const Golden golden = {
      "7d1a24c6e4e4248c7b283663cfd45e93b5b16357bda2be4624d96b1e0e84c16c",
      7479658, 816109,
      "719e032f18716168e85fba3ba04f57f7505efad748bbd020f57bfced7a226dd7"};
  core::ExperimentConfig cfg = Table3Smoke();
  cfg.telemetry.sample = true;
  core::Experiment exp{cfg};
  exp.Run();
  EXPECT_EQ(ToHex(exp.reference_tree().head_hash()), golden.head_hash);
  EXPECT_EQ(exp.reference_tree().head_number(), golden.head_number);
  EXPECT_GT(exp.simulator().events_executed(), golden.events_executed)
      << "sampler ticks should add events";
  EXPECT_EQ(ToHex(core::DeterminismDigest(exp)), golden.determinism_digest);
  ASSERT_NE(exp.telemetry(), nullptr);
  ASSERT_NE(exp.telemetry()->sampler(), nullptr);
  // 20 sim-minutes at the default 250 ms cadence: baseline row + 4800 ticks.
  EXPECT_EQ(exp.telemetry()->sampler()->sample_count(), 4801u);
}

TEST(ChainGoldenReplay, ResilienceControlUnchanged) {
  const Golden golden = {
      "506d213676bf82783902ed64bf4af15aff79bf765c898f34fbdf71c86076c2f3",
      7479626, 850563,
      "621ab8c8a5de1cff8b85cb2ce4cce70f553d8ae3db2ff71bc6eba8f3dacc65f0"};
  ExpectGolden(ResilienceSmoke(false), golden, "resilience_control");
}

// Re-pinned once when the txpool began replaying each BlockTree::Add's chain
// edits in the order the tree made them. In this run one Add adopts a block
// with txs and retires it again, and the old flat replay dropped those txs
// from the pool although the block was no longer canonical.
TEST(ChainGoldenReplay, ResiliencePartitionUnchanged) {
  const Golden golden = {
      "b15f12813dc94c395fd5e663d5330066862150d86f1c6cf236b0515e69b58ede",
      7479620, 667062,
      "755653f5a4f1a85c1ce9db186fae763fad46d2a5b06ecb93cbadc96ebbc4a6ef"};
  ExpectGolden(ResilienceSmoke(true), golden, "resilience_partition");
}

}  // namespace
