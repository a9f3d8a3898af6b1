// Cross-feature interaction tests: combinations of hybrid replication,
// reclamation, eviction, DAGs, speculation, non-collocation and
// failures — the places where independently-correct features break
// each other.
#include <gtest/gtest.h>

#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using core::kSourceInput;
using core::Strategy;
using core::StrategyConfig;
using mapred::JobResult;
using workloads::Scenario;

cluster::FailurePlan fail_at(std::vector<std::uint32_t> ords) {
  cluster::FailurePlan plan;
  plan.at_job_ordinals = std::move(ords);
  return plan;
}

mapred::Checksum reference(const workloads::ScenarioConfig& cfg) {
  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  EXPECT_TRUE(s.run(sc).completed);
  return s.final_output_checksum();
}

TEST(Interactions, HybridPlusEvictionUnderDoubleFailure) {
  auto cfg = workloads::payload_config(6, 6);
  const auto ref = reference(cfg);
  cfg.storage_budget = 1;  // evict persisted map outputs constantly
  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  sc.hybrid_every = 3;
  sc.reclaim_after_replication = true;
  const auto r = s.run(sc, fail_at({4, 6}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Interactions, DoubleFailureDestroysReplicationPoint) {
  // A repl-2 hybrid point survives one failure but not two that hit
  // both replica holders; the planner must then cascade past it. With
  // random victims this usually only damages some partitions — either
  // way the chain must complete with correct data.
  const auto cfg = workloads::payload_config(5, 5);
  const auto ref = reference(cfg);
  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  sc.hybrid_every = 2;
  const auto r = s.run(sc, fail_at({4, 4}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Interactions, DagWithHybridAndFailure) {
  const auto base = workloads::payload_config(6, 4);
  auto make_diamond = [](Scenario& s) {
    auto& jobs = s.chain().jobs;
    jobs[0].deps = {kSourceInput};
    jobs[1].deps = {0};
    jobs[2].deps = {0};
    jobs[3].deps = {1, 2};
  };
  mapred::Checksum ref;
  {
    Scenario s(base);
    make_diamond(s);
    StrategyConfig sc;
    sc.strategy = Strategy::kRcmpSplit;
    ASSERT_TRUE(s.run(sc).completed);
    ref = s.final_output_checksum();
  }
  Scenario s(base);
  make_diamond(s);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  sc.hybrid_every = 2;  // jobs 2 and 4 are replication points
  const auto r = s.run(sc, fail_at({4}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Interactions, SpeculationDuringRecomputation) {
  // A straggler AND a failure: speculative duplicates race inside
  // recomputation runs too, and must not corrupt regenerated data.
  auto cfg = workloads::payload_config(6, 4);
  const auto ref = reference(cfg);
  cfg.engine.speculative_execution = true;
  cfg.engine.speculative_check_interval = 0.5;
  cfg.engine.map_cpu_rate = 2e6;
  Scenario s(cfg);
  s.cluster().set_cpu_factor(1, 50.0);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  const auto r = s.run(sc, fail_at({3}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Interactions, NonCollocatedDagWithFailure) {
  auto cfg = workloads::payload_config(8, 4);
  cfg.cluster.storage_nodes = 4;
  auto make_diamond = [](Scenario& s) {
    auto& jobs = s.chain().jobs;
    jobs[1].deps = {0};
    jobs[2].deps = {0};
    jobs[3].deps = {1, 2};
  };
  mapred::Checksum ref;
  {
    Scenario s(cfg);
    make_diamond(s);
    StrategyConfig sc;
    sc.strategy = Strategy::kRcmpSplit;
    ASSERT_TRUE(s.run(sc).completed);
    ref = s.final_output_checksum();
  }
  Scenario s(cfg);
  make_diamond(s);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  const auto r = s.run(sc, fail_at({3}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Interactions, SlowShuffleRecomputationCorrectness) {
  auto cfg = workloads::payload_config(5, 4);
  const auto ref = reference(cfg);
  cfg.engine.shuffle_tail_latency = 10.0;  // SLOW SHUFFLE
  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  const auto r = s.run(sc, fail_at({4}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Interactions, ScatterPlusHybridPlusDoubleFailure) {
  const auto cfg = workloads::payload_config(6, 5);
  const auto ref = reference(cfg);
  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpScatter;
  sc.hybrid_every = 3;
  const auto r = s.run(sc, fail_at({3, 5}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Interactions, DynamicHybridOnDag) {
  auto cfg = workloads::tiny_config(5, 6);
  Scenario s(cfg);
  auto& jobs = s.chain().jobs;
  jobs[3].deps = {1};  // a small branch: 0-1-{2 from 1? keep topo}
  jobs[4].deps = {2, 3};
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  sc.hybrid_dynamic = true;
  sc.node_failure_rate_per_day = 20.0;  // force replication points
  const auto r = s.run(sc, fail_at({6}));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.replication_points, 0u);
}

TEST(Interactions, IgnoreLocalityStillCorrect) {
  auto cfg = workloads::payload_config(5, 3);
  const auto ref = reference(cfg);
  cfg.engine.ignore_locality = true;
  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  const auto r = s.run(sc, fail_at({3}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Interactions, ReplicationWithSpeculationAndFailure) {
  auto cfg = workloads::payload_config(6, 4);
  const auto ref = reference(cfg);
  cfg.engine.speculative_execution = true;
  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = Strategy::kReplication;
  sc.replication = 2;
  const auto r = s.run(sc, fail_at({3}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

}  // namespace
}  // namespace rcmp
