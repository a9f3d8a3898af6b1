// Golden pins for every scenario entry point whose seed order matters:
// Scenario::run (fault-free and with the paper's ordinal kill plan,
// which draws the injector's seed), Scenario::run_chaos (the chaos
// seed: random victims and map-output corruption), detector + journal +
// kMasterCrash, the memory tier under the dynamic hybrid, and a
// three-chain MultiScenario::run_chaos with random victims. Three more
// scenes pin the map-placement paths that edit the pending-map list or
// the replica lists under it: a disk loss while maps are pending, a
// retry backoff that defers pending maps, and a false suspicion that
// reconciles while its spurious re-execution is still pending. A
// twelve-chain scene pins the scheduler's offer loop while chains hold
// retry-backoff gates. Two storage-budget scenes pin the eviction loop
// across a kill: a budget that evicts everything, and one that evicts
// the oldest jobs only.
//
// Each pin is the exact simulated outcome: makespan as a hex float,
// job/replan/restart counts and the final output checksum. A drift
// here means a seed is drawn in a different order, or an event lands in
// a different place in the queue. The placement and budget scenes also
// pin the MD5 of the whole trace, so a changed task placement or
// eviction fails them even when it leaves the makespan alone; the
// budget scenes pin the decision journal's MD5 as well.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/md5.hpp"
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

/// Every pinned field but the checksum, for scenes without a payload.
void expect_run(const core::ChainResult& r, const Pin& pin) {
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.total_time, pin.total_time);
  EXPECT_EQ(r.jobs_started, pin.jobs_started);
  EXPECT_EQ(r.replans, pin.replans);
  EXPECT_EQ(r.restarts, pin.restarts);
}

void expect_pin(const core::ChainResult& r, const mapred::Checksum& sum,
                const Pin& pin) {
  expect_run(r, pin);
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
  EXPECT_EQ(s.injector()->counts().injected(), 3u);
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

/// A fault on a fixed victim, `delay` seconds after job `ordinal`
/// starts. chaos_config()'s jobs bootstrap 15 s after they start and
/// place their 32 maps over the next ~0.4 s, so a delay just past 15 s
/// lands while maps are still pending. Job 1 reads the 4-way
/// replicated input, so losing one replica does not stall its maps.
FaultEvent fixed_victim(FaultMode mode, std::uint32_t ordinal,
                        SimTime delay, cluster::NodeId node) {
  FaultEvent ev = random_victim(mode, ordinal, delay);
  ev.node = node;
  return ev;
}

/// chaos_config() with a trace ring no scene here overflows.
workloads::ScenarioConfig traced_chaos_config() {
  auto cfg = chaos_config();
  cfg.trace_capacity = 1 << 16;
  return cfg;
}

/// Detector mode that suspects a silent node within half a second, so
/// a suspicion lands inside the map phase that caused it.
workloads::ScenarioConfig fast_detector_config() {
  auto cfg = traced_chaos_config();
  cfg.detector.enabled = true;
  cfg.detector.heartbeat_interval = 0.1;
  cfg.detector.suspicion_timeout = 0.3;
  return cfg;
}

void expect_trace_md5(workloads::Scenario& s, const char* md5) {
  EXPECT_EQ(s.obs().tracer.dropped(), 0u);
  EXPECT_EQ(Md5::to_hex(Md5::hash(s.obs().tracer.export_jsonl())), md5);
}

TEST(GoldenPin, DiskLossShrinksReplicasOfPendingMaps) {
  // Node 3's drive is swapped while 24 of job 1's 32 maps are pending.
  // Node 3 keeps computing and frees its slot again, but the pending
  // blocks it held replicas of no longer count as local to it.
  workloads::Scenario s(traced_chaos_config());
  FaultSchedule schedule;
  schedule.events.push_back(fixed_victim(FaultMode::kDisk, 1, 15.1, 3));
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  EXPECT_EQ(s.injector()->counts().injected(), 1u);
  expect_pin(r, s.final_output_checksum(),
             {0x1.394b306db63dcp+6, 5, 0, 0, kChainSum});
  expect_trace_md5(s, "e6d8e18fc8d4d00e659883627f32dbf1");
}

TEST(GoldenPin, RetryBackoffDefersPendingMaps) {
  // Node 3 loses its heartbeats for 4 s, 20 ms into job 1's map phase.
  // Once suspected, its running map fails and its finished maps are
  // re-queued, each under a jittered retry backoff: placement passes
  // set them aside while the job's other maps are placed, and as the
  // backoffs expire out of list order a pass moves maps past a
  // still-deferred one.
  auto cfg = fast_detector_config();
  cfg.engine.retry_backoff_jitter = 0.5;
  workloads::Scenario s(cfg);
  FaultSchedule schedule;
  FaultEvent ev = fixed_victim(FaultMode::kHeartbeatLoss, 1, 15.02, 3);
  ev.downtime = 4.0;
  schedule.events.push_back(ev);
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  expect_pin(r, s.final_output_checksum(),
             {0x1.5070b71722d8fp+6, 5, 0, 0, kChainSum});
  expect_trace_md5(s, "b5df3e12010c4daf7718216200fe1959");
}

TEST(GoldenPin, FalseSuspicionReconcilesPendingReexecution) {
  // Node 5 loses its heartbeats for one second. Its finished maps are
  // re-queued as spurious re-executions under a retry backoff; the node
  // reconciles before they run, so they leave the middle of the pending
  // list and readopt their persisted outputs.
  workloads::Scenario s(fast_detector_config());
  FaultSchedule schedule;
  FaultEvent ev = fixed_victim(FaultMode::kHeartbeatLoss, 1, 15.02, 5);
  ev.downtime = 1.0;
  schedule.events.push_back(ev);
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  ASSERT_NE(s.detector(), nullptr);
  EXPECT_GE(s.detector()->reconciliations(), 1u);
  expect_pin(r, s.final_output_checksum(),
             {0x1.48dee8b7dddf9p+6, 5, 0, 0, kChainSum});
  expect_trace_md5(s, "7af4a4286132006d151ef222591b7e40");
}

/// Twelve chains on six nodes under the fast detector, with jittered
/// retry backoffs.
workloads::MultiScenarioConfig offer_loop_config() {
  auto cfg = testfx::multi_config(/*chains=*/12, /*nodes=*/6,
                                  /*chain_length=*/3,
                                  /*records_per_node=*/128);
  cfg.base.input_replication = 4;
  cfg.base.trace_capacity = 1 << 18;
  cfg.base.detector.enabled = true;
  cfg.base.detector.heartbeat_interval = 0.1;
  cfg.base.detector.suspicion_timeout = 0.3;
  cfg.base.engine.retry_backoff_jitter = 0.5;
  return cfg;
}

/// Node 3 loses its heartbeats for 4 s, 16 s after the thirteenth job
/// start (the first second job), while second jobs read the first
/// jobs' unreplicated outputs; node 4 is killed 15.1 s after the 26th
/// job start.
FaultSchedule offer_loop_faults() {
  FaultSchedule schedule;
  FaultEvent loss = fixed_victim(FaultMode::kHeartbeatLoss, 13, 16.0, 3);
  loss.downtime = 4.0;
  schedule.events.push_back(loss);
  schedule.events.push_back(fixed_victim(FaultMode::kKill, 26, 15.1, 4));
  return schedule;
}

TEST(GoldenPin, OfferLoopUnderRetryBackoff) {
  // The suspected node's tasks re-queue behind jittered backoffs, maps
  // whose only input replica it holds re-queue at read time, and the
  // kill replans four chains. Every freed slot raises a scheduler poke
  // that kicks the hungry chains, some of them holding closed backoff
  // gates; a kick runs a chain's placement pass only when a pending
  // kind is open or a backoff scan could move its lists. A kick that
  // skipped the pass after a read-time re-queue, with no slot open,
  // would leave that map's retry poke unarmed and move every chain.
  workloads::MultiScenario ms(offer_loop_config());
  const auto r =
      ms.run_chaos(strat(Strategy::kRcmpSplit), offer_loop_faults());
  ASSERT_EQ(r.size(), 12u);
  const std::vector<Pin> pins = {
      {0x1.34f93ae0dbe56p+5, 3, 0, 0, {}},
      {0x1.f40799bad8e21p+5, 3, 0, 0, {}},
      {0x1.ccf86910c8f61p+6, 6, 1, 0, {}},
      {0x1.045ce601f1641p+6, 3, 0, 0, {}},
      {0x1.009a11977b5b6p+6, 3, 0, 0, {}},
      {0x1.04dc2b0689412p+6, 3, 0, 0, {}},
      {0x1.ebbea412ae62bp+5, 3, 0, 0, {}},
      {0x1.71a5c0b373afcp+6, 5, 1, 0, {}},
      {0x1.8866d619656c4p+6, 5, 1, 0, {}},
      {0x1.02aa1cd2a51f5p+6, 3, 0, 0, {}},
      {0x1.0098ed69fabdap+6, 3, 0, 0, {}},
      {0x1.8b048d75b2bdcp+6, 5, 1, 0, {}},
  };
  for (std::uint32_t c = 0; c < 12; ++c) {
    SCOPED_TRACE(c);
    expect_run(r[c], pins[c]);
  }
  EXPECT_EQ(ms.obs().tracer.dropped(), 0u);
  EXPECT_EQ(Md5::to_hex(Md5::hash(ms.obs().tracer.export_jsonl())),
            "a8a5e56889c0eae7c5c03e9dc62a971b");

  // The same scene with each kick forwarded by the test, which sees
  // kicks run no pass while their chain holds a closed backoff gate.
  workloads::MultiScenario again(offer_loop_config());
  again.attach_chaos(offer_loop_faults());
  again.start(strat(Strategy::kRcmpSplit));
  std::uint64_t gated_skips = 0;
  for (std::uint32_t c = 0; c < 12; ++c) {
    again.scheduler().set_kick(c, [&again, &gated_skips,
                                   c](mapred::OpenSlots open) {
      mapred::JobRun* run = again.middleware(c).current_run();
      if (run == nullptr) return false;
      const bool gated = run->retry_armed();
      const bool pass = run->poke(open);
      if (gated && !pass) ++gated_skips;
      return pass;
    });
  }
  const auto r2 = again.finish();
  EXPECT_GT(gated_skips, 0u);
  EXPECT_LT(again.scheduler().kick_passes(), again.scheduler().kicks_run());
  EXPECT_EQ(again.scheduler().kicks_run(), ms.scheduler().kicks_run());
  EXPECT_EQ(again.scheduler().kick_passes(), ms.scheduler().kick_passes());
  for (std::uint32_t c = 0; c < 12; ++c) {
    SCOPED_TRACE(c);
    expect_run(r2[c], pins[c]);
  }
}

/// A storage-budget scene with the trace ring and the decision journal
/// on, so the pins see every eviction and every journaled decision.
workloads::ScenarioConfig budgeted(workloads::ScenarioConfig cfg,
                                   Bytes budget) {
  cfg.storage_budget = budget;
  cfg.trace_capacity = 1 << 18;
  cfg.journal = true;
  return cfg;
}

void expect_journal_md5(workloads::Scenario& s, const char* md5) {
  ASSERT_NE(s.journal(), nullptr);
  EXPECT_EQ(Md5::to_hex(Md5::hash(s.journal()->export_jsonl())), md5);
}

TEST(GoldenPin, BudgetEvictsEveryPersistedOutputAcrossAKill) {
  // A one-byte budget evicts every unpinned job's persisted map outputs
  // at every job boundary, so the node killed 15 s into the sixth job
  // leaves the replan nothing to reuse.
  workloads::Scenario s(budgeted(workloads::payload_config(5, 6), 1));
  const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({6}));
  EXPECT_EQ(s.scheduler().evictions(0), 11u);
  expect_pin(r, s.final_output_checksum(),
             {0x1.b8d7e51578fdep+7, 12, 1, 0,
              {0x2cd5d4555779534ULL, 0x13e2ea7ULL, 0x3db0839d7159def1ULL,
               2560ULL}});
  expect_trace_md5(s, "ec78156501f4314172492063b9a1cd1f");
  expect_journal_md5(s, "1e1b0f5be837081b918cb7a7eae74522");
}

TEST(GoldenPin, BudgetEvictsOldestOutputsAcrossAKill) {
  // A 30 GiB budget holds the DFS state (~22.5 GiB) and about half the
  // persisted map outputs: the oldest jobs lose theirs, and the replan
  // after the kill 15 s into the fifth job reuses what is left.
  workloads::Scenario s(
      budgeted(workloads::tiny_config(5, 6), 60ull * 512 * kMiB));
  const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({5}));
  EXPECT_EQ(s.scheduler().evictions(0), 4u);
  expect_run(r, {0x1.3581f78533867p+9, 11, 1, 0, {}});
  expect_trace_md5(s, "c346f02185fe0a5b1f01a500fd891cf3");
  expect_journal_md5(s, "e148b9186bf33a37ec072c33357044d7");
}

}  // namespace
}  // namespace rcmp
