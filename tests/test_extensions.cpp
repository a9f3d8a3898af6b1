// Tests for the paper's future-work extensions implemented here: the
// dynamic hybrid policy (checkpoint-interval replication) and the
// storage-budget eviction of persisted map outputs.
#include <gtest/gtest.h>

#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using core::Strategy;
using core::StrategyConfig;
using workloads::Scenario;

cluster::FailurePlan fail_at(std::vector<std::uint32_t> ords) {
  cluster::FailurePlan plan;
  plan.at_job_ordinals = std::move(ords);
  return plan;
}

StrategyConfig dynamic_hybrid(double rate_per_day) {
  StrategyConfig cfg;
  cfg.strategy = Strategy::kRcmpSplit;
  cfg.hybrid_dynamic = true;
  cfg.node_failure_rate_per_day = rate_per_day;
  return cfg;
}

TEST(DynamicHybrid, HighFailureRateCreatesReplicationPoints) {
  Scenario s(workloads::tiny_config(5, 10));
  // Absurdly failure-prone cluster: MTBF ~ minutes => replicate often.
  const auto r = s.run(dynamic_hybrid(20.0));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.replication_points, 2u);
}

TEST(DynamicHybrid, ReliableClusterNeverReplicates) {
  Scenario s(workloads::tiny_config(5, 10));
  // Fig. 2-calibrated reliability: MTBF weeks, chains run in hours.
  const auto r = s.run(dynamic_hybrid(0.0015));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.replication_points, 0u);
}

TEST(DynamicHybrid, MoreFailureProneMeansMorePoints) {
  auto points = [](double rate) {
    Scenario s(workloads::tiny_config(5, 12));
    const auto r = s.run(dynamic_hybrid(rate));
    EXPECT_TRUE(r.completed);
    return r.replication_points;
  };
  EXPECT_LE(points(1.0), points(30.0));
  EXPECT_LT(points(0.01), points(30.0));
}

TEST(DynamicHybrid, CascadeStopsAtDynamicPoint) {
  Scenario s(workloads::tiny_config(5, 8));
  const auto r = s.run(dynamic_hybrid(20.0), fail_at({8}));
  ASSERT_TRUE(r.completed);
  ASSERT_GT(r.replication_points, 0u);
  // Recompute cascade must be shorter than the no-hybrid 7 jobs.
  std::uint32_t recomputes = 0;
  for (const auto& run : r.runs) {
    recomputes += run.was_recompute &&
                  run.status == mapred::JobResult::Status::kCompleted;
  }
  EXPECT_LT(recomputes, 7u);
}

TEST(DynamicHybrid, CorrectUnderFailure) {
  mapred::Checksum ref;
  {
    Scenario s(workloads::payload_config(5, 6));
    StrategyConfig cfg;
    cfg.strategy = Strategy::kRcmpSplit;
    ASSERT_TRUE(s.run(cfg).completed);
    ref = s.final_output_checksum();
  }
  Scenario s(workloads::payload_config(5, 6));
  const auto r = s.run(dynamic_hybrid(20.0), fail_at({5}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(StorageBudget, UnlimitedByDefault) {
  Scenario s(workloads::tiny_config(5, 5));
  StrategyConfig cfg;
  cfg.strategy = Strategy::kRcmpSplit;
  s.run(cfg);
  EXPECT_EQ(s.scheduler().evictions(0), 0u);
}

TEST(StorageBudget, EvictsOldestJobsFirst) {
  auto sc = workloads::tiny_config(5, 6);
  // DFS state alone (triple-replicated input + 6 intermediate outputs)
  // is ~22.5GiB; all persisted map outputs add 15GiB more. A 30GiB
  // budget forces eviction of roughly half the map outputs.
  sc.storage_budget = 60ull * 512 * kMiB;
  Scenario s(sc);
  StrategyConfig cfg;
  cfg.strategy = Strategy::kRcmpSplit;
  const auto r = s.run(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(s.scheduler().evictions(0), 0u);
  // Oldest jobs' outputs evicted, most recent retained.
  EXPECT_EQ(s.map_outputs().used_for_job(0), 0u);
  EXPECT_GT(s.map_outputs().used_for_job(5), 0u);
}

TEST(StorageBudget, EvictsJobsAppendedToTheChain) {
  // The eviction scan covers every job the chain runs, including
  // templates appended after the scenario was configured.
  auto sc = workloads::payload_config(5, 3);
  sc.storage_budget = 1;
  Scenario s(sc);
  auto& jobs = s.chain().jobs;
  for (int extra = 0; extra < 2; ++extra) {
    jobs.push_back(jobs.back());
    jobs.back().name += "+";
  }
  StrategyConfig cfg;
  cfg.strategy = Strategy::kRcmpSplit;
  ASSERT_TRUE(s.run(cfg).completed);
  ASSERT_EQ(s.chain().jobs.size(), 5u);
  // Job 3 is past the configured length; job 4's boundary evicts it.
  EXPECT_EQ(s.map_outputs().used_for_job(3), 0u);
  EXPECT_GE(s.scheduler().evictions(0), 4u);
}

TEST(StorageBudget, RecomputationStillCorrectAfterEviction) {
  mapred::Checksum ref;
  {
    Scenario s(workloads::payload_config(5, 6));
    StrategyConfig cfg;
    cfg.strategy = Strategy::kRcmpSplit;
    ASSERT_TRUE(s.run(cfg).completed);
    ref = s.final_output_checksum();
  }
  auto sc = workloads::payload_config(5, 6);
  sc.storage_budget = 1;  // evict everything, always
  Scenario s(sc);
  StrategyConfig cfg;
  cfg.strategy = Strategy::kRcmpSplit;
  const auto r = s.run(cfg, fail_at({6}));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(s.scheduler().evictions(0), 0u);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(StorageBudget, EvictionSlowsRecomputationButWorks) {
  double with_outputs, without_outputs;
  {
    Scenario s(workloads::tiny_config(6, 6));
    StrategyConfig cfg;
    cfg.strategy = Strategy::kRcmpSplit;
    with_outputs = s.run(cfg, fail_at({6})).total_time;
  }
  {
    auto sc = workloads::tiny_config(6, 6);
    sc.storage_budget = 1;
    Scenario s(sc);
    StrategyConfig cfg;
    cfg.strategy = Strategy::kRcmpSplit;
    without_outputs = s.run(cfg, fail_at({6})).total_time;
  }
  EXPECT_GT(without_outputs, with_outputs);
}

}  // namespace
}  // namespace rcmp
