// Chaos-engine coverage: decoupled failure semantics on the cluster,
// typed fault schedules end to end (every mode), nested multi-rack
// failures, structured give-up paths (capacity floor, retry budget),
// read-path corruption detection, and per-seed determinism of whole
// campaigns.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cluster/chaos.hpp"
#include "common/error.hpp"
#include "core/middleware.hpp"
#include "fixtures.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using cluster::FaultEvent;
using cluster::FaultMode;
using cluster::FaultSchedule;
using core::Strategy;
using core::StrategyConfig;
using testfx::chaos_config;
using testfx::fail_at;
using testfx::reference_for;
using testfx::spec_of;
using testfx::strat;
using testfx::sum_corrupt_blocks;
using testfx::sum_corrupt_map_outputs;
using Fixture = testfx::SimFixture;
using workloads::Scenario;

TEST(ClusterFaults, ComputeFailureKeepsStorageReadable) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(4, 1));
  cluster::FailureEvent seen;
  c.on_failure([&](const cluster::FailureEvent& ev) { seen = ev; });
  c.fail_compute(1);
  EXPECT_FALSE(c.compute_alive(1));
  EXPECT_TRUE(c.storage_alive(1));
  EXPECT_FALSE(c.alive(1));
  EXPECT_EQ(c.alive_count(), 3u);
  EXPECT_TRUE(seen.lost_compute);
  EXPECT_FALSE(seen.lost_storage);
  EXPECT_FALSE(seen.whole_node());
  // The surviving disk still counts as a storage target.
  EXPECT_EQ(c.alive_storage_nodes().size(), 4u);
}

TEST(ClusterFaults, DiskFailureKeepsNodeComputingAndWritable) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(4, 1));
  cluster::FailureEvent seen;
  c.on_failure([&](const cluster::FailureEvent& ev) { seen = ev; });
  c.fail_disk(2);
  // Empty-disk swap: contents gone (subscribers told via lost_storage),
  // but the node is still alive and still a valid write target.
  EXPECT_TRUE(c.compute_alive(2));
  EXPECT_TRUE(c.storage_alive(2));
  EXPECT_TRUE(c.alive(2));
  EXPECT_FALSE(seen.lost_compute);
  EXPECT_TRUE(seen.lost_storage);
}

TEST(ClusterFaults, KillIsBothAndFiresLegacyHandler) {
  // Every flavor notifies on_failure; only a kill is whole_node().
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(4, 1));
  std::vector<cluster::NodeId> killed;
  cluster::FailureEvent seen;
  std::uint32_t events = 0;
  c.on_failure([&](const cluster::FailureEvent& ev) {
    seen = ev;
    ++events;
    if (ev.whole_node()) killed.push_back(ev.node);
  });
  c.kill(3);
  EXPECT_TRUE(seen.whole_node());
  EXPECT_EQ(killed, (std::vector<cluster::NodeId>{3}));
  // Partial failures notify the same handlers but are not kills.
  c.fail_compute(0);
  EXPECT_FALSE(seen.whole_node());
  c.fail_disk(1);
  EXPECT_FALSE(seen.whole_node());
  EXPECT_EQ(events, 3u);
  EXPECT_EQ(killed.size(), 1u);
}

TEST(ClusterFaults, RecoverRestoresBothDimensionsAndBumpsNothing) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(4, 1));
  c.kill(1);
  const auto epoch_after_kill = c.failure_epoch(1);
  EXPECT_EQ(epoch_after_kill, 1u);
  std::vector<cluster::NodeId> recovered;
  c.on_recover([&](cluster::NodeId n) { recovered.push_back(n); });
  c.recover(1);
  EXPECT_TRUE(c.alive(1));
  EXPECT_EQ(c.alive_count(), 4u);
  EXPECT_EQ(recovered, (std::vector<cluster::NodeId>{1}));
  // Epochs count failures, not recoveries: a delayed rejoin callback
  // compares against the epoch at failure time.
  EXPECT_EQ(c.failure_epoch(1), epoch_after_kill);
  c.kill(1);
  EXPECT_EQ(c.failure_epoch(1), epoch_after_kill + 1);
}

TEST(ClusterFaults, DoublePartialFailuresAreErrors) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(4, 1));
  c.fail_compute(1);
  EXPECT_THROW(c.fail_compute(1), InvariantError);
  c.kill(2);
  EXPECT_THROW(c.fail_disk(2), InvariantError);
  EXPECT_THROW(c.recover(0), InvariantError);  // healthy node
}

// --- the paper's failure plan: up-front validation -------------------

TEST(InjectorValidation, OrdinalZeroIsRejected) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(4, 1));
  EXPECT_THROW(cluster::kill_schedule(fail_at({0}), c.size()), ConfigError);
}

TEST(InjectorValidation, MoreKillsThanNodesIsRejected) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(4, 1));
  EXPECT_THROW(cluster::kill_schedule(fail_at({1, 1, 2, 2, 3}), c.size()),
               ConfigError);
  // == node count: allowed
  EXPECT_NO_THROW(cluster::kill_schedule(fail_at({1, 1, 2, 2}), c.size()));
}

TEST(InjectorValidation, ExhaustedVictimsIsANoOp) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(3, 1));
  for (cluster::NodeId n = 0; n < 3; ++n) c.kill(n);
  cluster::ChaosEngine inj(c, cluster::kill_schedule(fail_at({1}), c.size()),
                           7);
  inj.notify_job_start(1);
  f.sim.run();  // the delayed kill fires, finds nobody, and skips
  EXPECT_EQ(inj.injected(), 0u);
}

// --- kill_schedule: the plan as chaos events --------------------------

using Kills = std::vector<std::pair<std::uint32_t, SimTime>>;

/// (ordinal, delay) of every event, in schedule order; every event must
/// be a kill of a victim drawn at fire time.
Kills kills_of(const FaultSchedule& schedule) {
  Kills out;
  for (const FaultEvent& ev : schedule.events) {
    EXPECT_EQ(ev.mode, FaultMode::kKill);
    EXPECT_EQ(ev.node, cluster::kInvalidNode);
    out.emplace_back(ev.at_job_ordinal, ev.delay);
  }
  return out;
}

TEST(KillSchedule, OneKillFifteenSecondsAfterItsJobStarts) {
  EXPECT_EQ(kills_of(cluster::kill_schedule(fail_at({7}), 8)),
            (Kills{{7, 15.0}}));
}

TEST(KillSchedule, RepeatsOfAnOrdinalAreFifteenSecondsApart) {
  EXPECT_EQ(kills_of(cluster::kill_schedule(fail_at({2, 2, 2}), 8)),
            (Kills{{2, 15.0}, {2, 30.0}, {2, 45.0}}));
}

TEST(KillSchedule, InterleavedRepeatsKeepPlanOrder) {
  EXPECT_EQ(kills_of(cluster::kill_schedule(fail_at({4, 7, 4}), 8)),
            (Kills{{4, 15.0}, {7, 15.0}, {4, 30.0}}));
}

std::string rejection_of(const std::vector<std::uint32_t>& ordinals,
                         std::uint32_t nodes) {
  try {
    cluster::kill_schedule(fail_at(ordinals), nodes);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(KillSchedule, RejectsOrdinalZeroBeforeTooManyKills) {
  const std::string zero =
      "FailurePlan: job ordinals are 1-based; ordinal 0 never fires";
  EXPECT_EQ(rejection_of({0}, 4), zero);
  EXPECT_EQ(rejection_of({1, 1, 2, 2, 3}, 4),
            "FailurePlan: 5 kills requested but the cluster has only 4 "
            "nodes");
  // Both faults at once: the ordinal is reported first.
  EXPECT_EQ(rejection_of({0, 1, 1, 2, 2}, 4), zero);
}

// --- chaos engine: schedule generation and firing --------------------

TEST(ChaosSchedules, TraceCompressionIsDeterministicAndBounded) {
  const auto trace =
      cluster::generate_trace(cluster::stic_trace_model(), 11);
  cluster::TraceScheduleOptions opt;
  opt.max_events = 5;
  const auto a = cluster::schedule_from_trace(trace, opt, 3);
  const auto b = cluster::schedule_from_trace(trace, opt, 3);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_LE(a.events.size(), 5u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].mode, b.events[i].mode);
    EXPECT_EQ(a.events[i].at_job_ordinal, b.events[i].at_job_ordinal);
  }
}

TEST(ChaosSchedules, RandomScheduleHonorsOrdinalRange) {
  cluster::RandomScheduleOptions opt;
  opt.events = 16;
  opt.min_ordinal = 2;
  opt.max_ordinal = 5;
  const auto s = cluster::random_schedule(opt, 99);
  ASSERT_EQ(s.events.size(), 16u);
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    EXPECT_GE(s.events[i].at_job_ordinal, 2u);
    EXPECT_LE(s.events[i].at_job_ordinal, 5u);
    if (i > 0) {
      EXPECT_LE(s.events[i - 1].at_job_ordinal,
                s.events[i].at_job_ordinal);
    }
  }
}

TEST(ChaosEngine, RackEventKillsEveryAliveNodeInTheRack) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(6, 2));
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kRack, 1, 1.0,
                                    cluster::kInvalidNode, /*rack=*/1});
  cluster::ChaosEngine chaos(c, sched, 5);
  chaos.notify_job_start(1);
  f.sim.run();
  // rack_of(n) = n % racks, so rack 1 holds nodes 1, 3, 5.
  EXPECT_FALSE(c.alive(1));
  EXPECT_FALSE(c.alive(3));
  EXPECT_FALSE(c.alive(5));
  EXPECT_EQ(c.alive_count(), 3u);
  EXPECT_EQ(chaos.counts().rack_events, 1u);
  EXPECT_EQ(chaos.counts().kills, 3u);
}

TEST(ChaosEngine, TransientRejoinSkippedIfNodeFailedAgain) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(4, 1));
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kTransient, 1, 1.0,
                                    /*node=*/2, cluster::kAnyRack,
                                    /*downtime=*/10.0});
  cluster::ChaosEngine chaos(c, sched, 5);
  chaos.notify_job_start(1);
  // Re-fail the node between outage and rejoin: the epoch guard must
  // suppress the stale rejoin.
  f.sim.schedule_after(5.0, [&] {
    c.recover(2);
    c.kill(2);
  });
  f.sim.run();
  EXPECT_FALSE(c.alive(2));
  EXPECT_EQ(chaos.counts().recoveries, 0u);
}

TEST(ChaosEngine, CorruptionWithoutHookIsANoOp) {
  Fixture f;
  cluster::Cluster c(f.sim, f.net, spec_of(4, 1));
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kCorruptPartition, 1, 1.0});
  cluster::ChaosEngine chaos(c, sched, 5);
  chaos.notify_job_start(1);
  f.sim.run();
  EXPECT_EQ(chaos.counts().corrupt_partitions, 0u);
  EXPECT_EQ(chaos.counts().noops, 1u);
}

// --- end-to-end: each fault mode against a payload chain -------------

TEST(ChaosEndToEnd, TransientNodeRejoinsMidChain) {
  const auto cfg = chaos_config(8, 6);
  const auto ref = reference_for(cfg);
  Scenario s(cfg);
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kTransient, 2, 15.0,
                                    cluster::kInvalidNode,
                                    cluster::kAnyRack, /*downtime=*/90.0});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), sched);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.injector()->counts().transients, 1u);
  EXPECT_EQ(s.injector()->counts().recoveries, 1u);
  EXPECT_EQ(r.nodes_recovered, 1u);  // middleware saw the rejoin
  EXPECT_TRUE(s.final_output_checksum() == ref);
}

TEST(ChaosEndToEnd, DiskOnlyLossCascadesWhileNodeComputes) {
  const auto cfg = chaos_config();
  const auto ref = reference_for(cfg);
  Scenario s(cfg);
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kDisk, 3, 15.0});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), sched);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.injector()->counts().disk_failures, 1u);
  // Losing a disk full of replication-1 intermediate outputs forces a
  // recomputation replan, but the node itself never leaves the cluster.
  EXPECT_GE(r.replans, 1u);
  EXPECT_EQ(s.cluster().alive_count(), cfg.cluster.nodes);
  EXPECT_TRUE(s.final_output_checksum() == ref);
}

TEST(ChaosEndToEnd, ComputeOnlyLossNeverTriggersRecomputation) {
  const auto cfg = chaos_config();
  const auto ref = reference_for(cfg);
  Scenario s(cfg);
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kCompute, 3, 15.0});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), sched);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.injector()->counts().compute_failures, 1u);
  // Every persisted byte survives a TaskTracker death: no data loss,
  // no replan — the job finishes on the remaining slots.
  EXPECT_EQ(r.replans, 0u);
  EXPECT_TRUE(s.final_output_checksum() == ref);
}

TEST(ChaosEndToEnd, DfsCorruptionIsCaughtAtMapReadTime) {
  const auto cfg = chaos_config();
  const auto ref = reference_for(cfg);
  Scenario s(cfg);
  FaultSchedule sched;
  sched.events.push_back(
      FaultEvent{FaultMode::kCorruptPartition, 3, 5.0});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), sched);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.injector()->counts().corrupt_partitions, 1u);
  EXPECT_GE(sum_corrupt_blocks(r), 1u);
  EXPECT_GE(r.replans, 1u);  // corrupt input => abort + recompute
  EXPECT_TRUE(s.final_output_checksum() == ref);
}

TEST(ChaosEndToEnd, MapOutputCorruptionIsCaughtAtShuffleTime) {
  // A bucket is only re-read when a recomputation reuses its mapper's
  // persisted output, so pair the corruptions with a kill that forces a
  // replan. The seed is picked so that (deterministically) at least one
  // corrupted bucket lands among the buckets the recomputation
  // re-fetches; detection then re-executes the mapper in place and the
  // final output still matches the clean run.
  auto cfg = chaos_config();
  cfg.seed = 48;
  const auto ref = reference_for(cfg);
  Scenario s(cfg);
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kKill, 3, 15.0});
  for (double d : {18.0, 22.0, 26.0, 30.0, 34.0, 38.0}) {
    sched.events.push_back(
        FaultEvent{FaultMode::kCorruptMapOutput, 4, d});
  }
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), sched);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(s.injector()->counts().corrupt_map_outputs, 1u);
  EXPECT_GE(sum_corrupt_map_outputs(r), 1u);
  EXPECT_TRUE(s.final_output_checksum() == ref);
}

TEST(ChaosEndToEnd, NestedFailuresOnMultiRackTopology) {
  // A rack outage while the chain is already recomputing from an
  // earlier kill, plus a transient rejoining mid-recovery. Five racks
  // of two nodes and replication 6 make the campaign provably
  // survivable: at most kill(1) + transient(1) + rack(2) = 4 distinct
  // disks are ever wiped, which cannot cover a source block's 6
  // replicas.
  auto cfg = chaos_config(10, 7);
  cfg.cluster.racks = 5;
  cfg.input_replication = 6;
  const auto ref = reference_for(cfg);
  Scenario s(cfg);
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kKill, 2, 15.0});
  sched.events.push_back(FaultEvent{FaultMode::kTransient, 3, 15.0,
                                    cluster::kInvalidNode,
                                    cluster::kAnyRack, /*downtime=*/90.0});
  sched.events.push_back(FaultEvent{FaultMode::kRack, 5, 15.0,
                                    cluster::kInvalidNode, /*rack=*/1});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), sched);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(s.injector()->counts().rack_events, 1u);
  EXPECT_GE(r.failures_observed, 3u);
  EXPECT_GE(r.replans, 2u);  // nested: replan during recomputation
  EXPECT_TRUE(s.final_output_checksum() == ref);
}

TEST(ChaosEndToEnd, MixedFiveModeCampaignUnderRcmpSplit) {
  // The acceptance campaign: all five node-level fault modes plus both
  // corruptions against a 7-job chain, byte-identical final output.
  // Same provable-survivability shape as the nested test: at most
  // transient(1) + disk(1) + kill(1) + rack(2) = 5 distinct disk wipes
  // against replication 6.
  auto cfg = chaos_config(10, 7);
  cfg.cluster.racks = 5;
  cfg.input_replication = 6;
  const auto ref = reference_for(cfg);
  Scenario s(cfg);
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kTransient, 2, 15.0,
                                    cluster::kInvalidNode,
                                    cluster::kAnyRack, /*downtime=*/120.0});
  sched.events.push_back(FaultEvent{FaultMode::kDisk, 3, 10.0});
  sched.events.push_back(
      FaultEvent{FaultMode::kCorruptPartition, 4, 5.0});
  sched.events.push_back(FaultEvent{FaultMode::kCompute, 5, 12.0});
  sched.events.push_back(
      FaultEvent{FaultMode::kCorruptMapOutput, 5, 20.0});
  sched.events.push_back(FaultEvent{FaultMode::kKill, 6, 15.0});
  sched.events.push_back(FaultEvent{FaultMode::kRack, 7, 15.0,
                                    cluster::kInvalidNode, /*rack=*/1});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), sched);
  ASSERT_TRUE(r.completed);
  const auto& counts = s.injector()->counts();
  EXPECT_GE(counts.transients, 1u);
  EXPECT_GE(counts.disk_failures, 1u);
  EXPECT_GE(counts.compute_failures, 1u);
  EXPECT_GE(counts.kills, 1u);
  EXPECT_GE(counts.rack_events, 1u);
  EXPECT_TRUE(s.final_output_checksum() == ref);
}

// --- structured give-up paths ----------------------------------------

TEST(ChaosGiveUp, CapacityFloorFailsStructurally) {
  const auto cfg = chaos_config(6, 4);
  Scenario s(cfg);
  auto strategy = strat(Strategy::kRcmpSplit);
  strategy.min_compute_floor = 6;  // any loss breaches the floor
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kKill, 2, 15.0});
  const auto r = s.run_chaos(strategy, sched);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.fail_reason, core::ChainResult::FailReason::kCapacityFloor);
  EXPECT_FALSE(r.fail_detail.empty());
}

TEST(ChaosGiveUp, RetryBudgetFailsStructurally) {
  const auto cfg = chaos_config(8, 6);
  Scenario s(cfg);
  auto strategy = strat(Strategy::kRcmpSplit);
  strategy.max_replans = 1;
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kKill, 2, 15.0});
  sched.events.push_back(FaultEvent{FaultMode::kKill, 4, 15.0});
  const auto r = s.run_chaos(strategy, sched);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.fail_reason,
            core::ChainResult::FailReason::kRetryBudgetExhausted);
  EXPECT_EQ(r.replans, 2u);  // the second replan blew the budget of 1
}

TEST(ChaosGiveUp, SourceLossFailsStructurally) {
  // Replication 1 on the source: a single whole-node kill destroys at
  // least one source partition beyond recovery.
  auto cfg = chaos_config(6, 4);
  cfg.input_replication = 1;
  Scenario s(cfg);
  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kKill, 2, 15.0});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), sched);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.fail_reason,
            core::ChainResult::FailReason::kSourceDataLost);
}

// --- determinism: same schedule + seed => identical campaign ---------

/// Everything a campaign result says, flattened to a comparable string.
/// Doubles are rendered as hex floats so byte-identity is exact.
std::string fingerprint(const core::ChainResult& r,
                        const mapred::Checksum& sum) {
  char buf[128];
  std::string out;
  auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a,", v);
    out += buf;
  };
  out += r.completed ? "ok," : "fail,";
  out += std::to_string(static_cast<int>(r.fail_reason)) + ",";
  num(r.total_time);
  out += std::to_string(r.jobs_started) + "," +
         std::to_string(r.failures_observed) + "," +
         std::to_string(r.nodes_recovered) + "," +
         std::to_string(r.replans) + "," + std::to_string(r.restarts) + ",";
  for (const auto& run : r.runs) {
    out += '[';  // not "[" + ...: GCC 12 raises a false -Wrestrict
    out += std::to_string(static_cast<int>(run.status)) + "," +
           std::to_string(run.ordinal) + "," +
           std::to_string(run.mappers_executed) + "," +
           std::to_string(run.mappers_reused) + "," +
           std::to_string(run.reducers_executed) + "," +
           std::to_string(run.corrupt_blocks_detected) + "," +
           std::to_string(run.corrupt_map_outputs_detected) + ",";
    num(run.shuffle_bytes);
    num(run.output_bytes);
    out += "]";
  }
  out += std::to_string(sum.md5_acc) + "," + std::to_string(sum.sum_acc) +
         "," + std::to_string(sum.key_acc) + "," +
         std::to_string(sum.count);
  return out;
}

class ChaosDeterminism : public ::testing::TestWithParam<Strategy> {};

TEST_P(ChaosDeterminism, SameScheduleAndSeedIsByteIdentical) {
  auto cfg = chaos_config(8, 5);
  cfg.seed = 1234;
  auto strategy = strat(GetParam());
  if (GetParam() == Strategy::kReplication) strategy.replication = 2;

  FaultSchedule sched;
  sched.events.push_back(FaultEvent{FaultMode::kTransient, 2, 15.0,
                                    cluster::kInvalidNode,
                                    cluster::kAnyRack, /*downtime=*/90.0});
  sched.events.push_back(FaultEvent{FaultMode::kDisk, 3, 10.0});
  sched.events.push_back(FaultEvent{FaultMode::kKill, 4, 15.0});

  std::string prints[2];
  for (int i = 0; i < 2; ++i) {
    Scenario s(cfg);
    const auto r = s.run_chaos(strategy, sched);
    prints[i] = fingerprint(r, r.completed ? s.final_output_checksum()
                                           : mapred::Checksum{});
  }
  EXPECT_EQ(prints[0], prints[1]);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ChaosDeterminism,
    ::testing::Values(Strategy::kRcmpSplit, Strategy::kRcmpNoSplit,
                      Strategy::kRcmpScatter, Strategy::kReplication,
                      Strategy::kOptimistic),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      std::string name = core::strategy_name(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace rcmp
