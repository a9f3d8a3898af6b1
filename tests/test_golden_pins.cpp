// Golden pins for every scenario entry point whose seed order matters:
// Scenario::run (fault-free and with the paper's ordinal kill plan,
// which draws the injector's seed), Scenario::run_chaos (the chaos
// seed: random victims and map-output corruption), detector + journal +
// kMasterCrash, the memory tier under the dynamic hybrid, and a
// three-chain MultiScenario::run_chaos with random victims.
//
// Each pin is the exact simulated outcome: makespan as a hex float,
// job/replan/restart counts and the final output checksum. A drift
// here means a seed is drawn in a different order, or an event lands in
// a different place in the queue.
#include <gtest/gtest.h>

#include <vector>

#include "fixtures.hpp"

namespace rcmp {
namespace {

using cluster::FaultEvent;
using cluster::FaultMode;
using cluster::FaultSchedule;
using core::Strategy;
using testfx::chaos_config;
using testfx::fail_at;
using testfx::strat;

struct Pin {
  double total_time;
  std::uint32_t jobs_started;
  std::uint32_t replans;
  std::uint32_t restarts;
  mapred::Checksum checksum;
};

void expect_pin(const core::ChainResult& r, const mapred::Checksum& sum,
                const Pin& pin) {
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.total_time, pin.total_time);
  EXPECT_EQ(r.jobs_started, pin.jobs_started);
  EXPECT_EQ(r.replans, pin.replans);
  EXPECT_EQ(r.restarts, pin.restarts);
  EXPECT_EQ(sum.md5_acc, pin.checksum.md5_acc);
  EXPECT_EQ(sum.sum_acc, pin.checksum.sum_acc);
  EXPECT_EQ(sum.key_acc, pin.checksum.key_acc);
  EXPECT_EQ(sum.count, pin.checksum.count);
}

/// A fault whose victim the chaos engine draws at fire time.
FaultEvent random_victim(FaultMode mode, std::uint32_t ordinal,
                         SimTime delay = 15.0) {
  FaultEvent ev;
  ev.mode = mode;
  ev.at_job_ordinal = ordinal;
  ev.delay = delay;
  return ev;
}

// Every single-chain scene reads chaos_config()'s input through the
// same identity-preserving chain, so they share one final checksum.
constexpr mapred::Checksum kChainSum{0xe53000a171ea3b39ULL, 0xfefa00ULL,
                                     0x894c1d98344f3f56ULL, 2048ULL};

TEST(GoldenPin, ScenarioRunFaultFree) {
  workloads::Scenario s(chaos_config());
  const auto r = s.run(strat(Strategy::kRcmpSplit));
  expect_pin(r, s.final_output_checksum(),
             {0x1.40e0982acf0f6p+6, 5, 0, 0, kChainSum});
}

TEST(GoldenPin, ScenarioRunFailurePlanDrawsInjectorSeed) {
  workloads::Scenario s(chaos_config());
  const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({2, 3}));
  EXPECT_EQ(s.injector()->injected(), 2u);
  expect_pin(r, s.final_output_checksum(),
             {0x1.7bc2f29252d72p+7, 8, 2, 0, kChainSum});
}

TEST(GoldenPin, ScenarioRunChaosDrawsChaosSeed) {
  // The corruption comes first, so every draw it makes from the chaos
  // stream moves the victims of the kill and compute faults after it.
  workloads::Scenario s(chaos_config());
  FaultSchedule schedule;
  schedule.events.push_back(
      random_victim(FaultMode::kCorruptMapOutput, 2, 5.0));
  schedule.events.push_back(random_victim(FaultMode::kKill, 3));
  schedule.events.push_back(random_victim(FaultMode::kCompute, 4));
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  EXPECT_EQ(s.chaos()->counts().injected(), 3u);
  expect_pin(r, s.final_output_checksum(),
             {0x1.3b599d77b54c3p+7, 8, 1, 0, kChainSum});
}

TEST(GoldenPin, DetectorJournalMasterCrash) {
  auto cfg = chaos_config();
  cfg.detector.enabled = true;
  cfg.journal = true;
  workloads::Scenario s(cfg);
  FaultSchedule schedule;
  schedule.events.push_back(random_victim(FaultMode::kKill, 2));
  schedule.events.push_back(
      random_victim(FaultMode::kMasterCrash, 4, 10.0));
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  EXPECT_EQ(r.master_crashes, 1u);
  expect_pin(r, s.final_output_checksum(),
             {0x1.31b34e1cca46dp+7, 8, 1, 0, kChainSum});
}

TEST(GoldenPin, MemoryTierHybridDynamic) {
  auto cfg = chaos_config();
  cfg.cluster.ram_bytes = 1ULL << 30;
  auto strategy = strat(Strategy::kRcmpSplit);
  strategy.memory_tier = true;
  strategy.hybrid_dynamic = true;
  workloads::Scenario s(cfg);
  const auto r = s.run(strategy, fail_at({3}));
  expect_pin(r, s.final_output_checksum(),
             {0x1.3d914c506217fp+7, 8, 1, 0, kChainSum});
}

TEST(GoldenPin, ThreeChainChaosWithRandomVictims) {
  auto cfg = testfx::multi_config(/*chains=*/3, /*nodes=*/6,
                                  /*chain_length=*/3,
                                  /*records_per_node=*/128);
  cfg.base.input_replication = 4;
  workloads::MultiScenario ms(cfg);
  FaultSchedule schedule;
  schedule.events.push_back(random_victim(FaultMode::kKill, 4, 5.0));
  schedule.events.push_back(random_victim(FaultMode::kCompute, 6));
  schedule.events.push_back(random_victim(FaultMode::kKill, 7, 5.0));
  schedule.events.push_back(
      random_victim(FaultMode::kCorruptMapOutput, 8, 5.0));
  const auto r = ms.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  ASSERT_EQ(r.size(), 3u);
  const std::vector<Pin> pins = {
      {0x1.b11c87bb98ba3p+6, 6, 2, 0,
       {0x120ef809aad3c7deULL, 0x5f7cf5ULL, 0x3944bcc238c382e0ULL, 768ULL}},
      {0x1.6fa3f5abb418dp+6, 5, 1, 0,
       {0xe50c7aba4f38e8deULL, 0x5fe6f8ULL, 0x7dcd2f7fdb5d20a4ULL, 768ULL}},
      {0x1.b581863c3da0cp+6, 6, 2, 0,
       {0x30ef84f09dc8215bULL, 0x5fb49fULL, 0x33f208435f2c7fdbULL, 768ULL}},
  };
  for (std::uint32_t c = 0; c < 3; ++c) {
    SCOPED_TRACE(c);
    expect_pin(r[c], ms.final_output_checksum(c), pins[c]);
  }
}

}  // namespace
}  // namespace rcmp
