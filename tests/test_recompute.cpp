// Recomputation semantics: minimal task sets, reducer splitting, the
// Fig. 5 invalidation rule, and end-to-end correctness of regenerated
// data. These are the paper's §IV claims, tested directly.
#include <gtest/gtest.h>

#include "core/middleware.hpp"
#include "fixtures.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using core::Strategy;
using core::StrategyConfig;
using mapred::JobResult;
using testfx::classify;
using testfx::fail_at;
using testfx::strat;
using workloads::Scenario;

TEST(Recompute, LateFailureCascadesToChainStart) {
  // Paper Fig. 7 case (c): failure at job 7 of a 7-job chain => jobs
  // 1..6 recomputed, job 7 restarted, 14 jobs started in total.
  auto cfg = workloads::tiny_config(5, 7);
  Scenario s(cfg);
  const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({7}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.jobs_started, 14u);
  const auto kinds = classify(r);
  EXPECT_EQ(kinds.recompute.size(), 6u);
  EXPECT_EQ(kinds.cancelled.size(), 1u);
  EXPECT_EQ(kinds.initial.size(), 7u);  // 6 before failure + rerun of 7
}

TEST(Recompute, EarlyFailureRecomputesOneJob) {
  // Fig. 7 case (b): failure at job 2 => recompute job 1 only, restart
  // job 2, then continue.
  auto cfg = workloads::tiny_config(5, 7);
  Scenario s(cfg);
  const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({2}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.jobs_started, 9u);  // 7 + 1 recompute + 1 restart
  EXPECT_EQ(classify(r).recompute.size(), 1u);
}

TEST(Recompute, RecomputesOnlyDamagedReducers) {
  auto cfg = workloads::tiny_config(6, 4);
  Scenario s(cfg);
  const auto r = s.run(strat(Strategy::kRcmpNoSplit), fail_at({4}));
  ASSERT_TRUE(r.completed);
  for (const auto* run : classify(r).recompute) {
    // 6 reducers per job, one node lost => 1 damaged partition, no
    // splitting => exactly 1 reducer re-executed.
    EXPECT_EQ(run->reducers_executed, 1u);
  }
}

TEST(Recompute, ReusesMostMapperOutputs) {
  auto cfg = workloads::tiny_config(6, 4);
  Scenario s(cfg);
  const auto r = s.run(strat(Strategy::kRcmpNoSplit), fail_at({4}));
  ASSERT_TRUE(r.completed);
  const auto kinds = classify(r);
  ASSERT_FALSE(kinds.recompute.empty());
  for (const auto* run : kinds.recompute) {
    EXPECT_GT(run->mappers_reused, 0u);
    // Roughly 1/6 of mappers lost; allow slack for remote map outputs.
    EXPECT_LE(run->mappers_executed,
              (run->mappers_reused + run->mappers_executed) / 2);
  }
}

TEST(Recompute, SplitFactorMultipliesReduceTasks) {
  auto cfg = workloads::tiny_config(6, 4);
  Scenario s(cfg);
  StrategyConfig sc = strat(Strategy::kRcmpSplit);
  sc.split_factor = 4;
  const auto r = s.run(sc, fail_at({4}));
  ASSERT_TRUE(r.completed);
  for (const auto* run : classify(r).recompute) {
    EXPECT_EQ(run->reducers_executed, 4u);  // 1 damaged x split 4
  }
}

TEST(Recompute, AutoSplitUsesSurvivorCount) {
  auto cfg = workloads::tiny_config(6, 4);
  Scenario s(cfg);
  const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({4}));
  ASSERT_TRUE(r.completed);
  for (const auto* run : classify(r).recompute) {
    // 6 nodes, 1 failure => 5 survivors; auto split = survivors - 1 = 4;
    // 1 damaged partition x split 4 = 4 reduce tasks.
    EXPECT_EQ(run->reducers_executed, 4u);
  }
}

TEST(Recompute, SplitSpeedsUpRecomputationRuns) {
  auto cfg = workloads::tiny_config(8, 5);
  double split_time = 0, nosplit_time = 0;
  {
    Scenario s(cfg);
    const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({5}));
    ASSERT_TRUE(r.completed);
    for (const auto* run : classify(r).recompute)
      split_time += run->duration();
  }
  {
    Scenario s(cfg);
    const auto r = s.run(strat(Strategy::kRcmpNoSplit), fail_at({5}));
    ASSERT_TRUE(r.completed);
    for (const auto* run : classify(r).recompute)
      nosplit_time += run->duration();
  }
  EXPECT_LT(split_time, nosplit_time);
}

TEST(Recompute, RegeneratedPartitionsAreAvailable) {
  auto cfg = workloads::tiny_config(5, 4);
  Scenario s(cfg);
  const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({3}));
  ASSERT_TRUE(r.completed);
  for (std::uint32_t l = 0; l < 4; ++l) {
    EXPECT_TRUE(s.dfs().file_available(s.middleware().output_file(l)));
  }
}

TEST(Recompute, SplitCommitsLandInOriginalPartition) {
  auto cfg = workloads::tiny_config(5, 3);
  Scenario s(cfg);
  StrategyConfig sc = strat(Strategy::kRcmpSplit);
  sc.split_factor = 3;
  const auto r = s.run(sc, fail_at({3}));
  ASSERT_TRUE(r.completed);
  // Output partition count never changes (splits write sub-extents of
  // the original partition).
  for (std::uint32_t l = 0; l < 3; ++l) {
    EXPECT_EQ(s.dfs().num_partitions(s.middleware().output_file(l)),
              5u);  // reducers_per_job auto = 5 nodes x 1 slot
  }
}

// --- end-to-end correctness on real records --------------------------

mapred::Checksum reference_checksum(std::uint32_t nodes,
                                    std::uint32_t chain) {
  Scenario s(workloads::payload_config(nodes, chain));
  const auto r = s.run(strat(Strategy::kRcmpSplit));
  EXPECT_TRUE(r.completed);
  return s.final_output_checksum();
}

TEST(RecomputeCorrectness, NoSplitRegeneratesIdenticalData) {
  const auto ref = reference_checksum(5, 4);
  Scenario s(workloads::payload_config(5, 4));
  const auto r = s.run(strat(Strategy::kRcmpNoSplit), fail_at({4}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(RecomputeCorrectness, SplitRegeneratesIdenticalData) {
  const auto ref = reference_checksum(5, 4);
  Scenario s(workloads::payload_config(5, 4));
  StrategyConfig sc = strat(Strategy::kRcmpSplit);
  sc.split_factor = 3;
  const auto r = s.run(sc, fail_at({4}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(RecomputeCorrectness, DoubleFailureStillIdentical) {
  const auto ref = reference_checksum(6, 4);
  Scenario s(workloads::payload_config(6, 4));
  const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({3, 5}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.failures_observed, 2u);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(RecomputeCorrectness, NestedFailureStillIdentical) {
  // Second failure lands while recomputation from the first is running
  // (paper FAIL 4,7-style nested case).
  const auto ref = reference_checksum(6, 5);
  Scenario s(workloads::payload_config(6, 5));
  const auto r = s.run(strat(Strategy::kRcmpSplit), fail_at({4, 6}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(RecomputeCorrectness, ScatterPlacementStillIdentical) {
  const auto ref = reference_checksum(5, 4);
  Scenario s(workloads::payload_config(5, 4));
  const auto r = s.run(strat(Strategy::kRcmpScatter), fail_at({4}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(RecomputeCorrectness, NoReuseStillIdentical) {
  const auto ref = reference_checksum(5, 4);
  Scenario s(workloads::payload_config(5, 4));
  StrategyConfig sc = strat(Strategy::kRcmpSplit);
  sc.reuse_map_outputs = false;
  const auto r = s.run(sc, fail_at({4}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

// --- the Fig. 5 hazard ------------------------------------------------

TEST(Fig5, SplitRecomputationBumpsLayoutVersion) {
  auto cfg = workloads::tiny_config(5, 3);
  Scenario s(cfg);
  StrategyConfig sc = strat(Strategy::kRcmpSplit);
  sc.split_factor = 3;
  const auto r = s.run(sc, fail_at({3}));
  ASSERT_TRUE(r.completed);
  // Some partition of some recomputed file must have a bumped layout.
  bool bumped = false;
  for (std::uint32_t l = 0; l < 2; ++l) {
    const auto f = s.middleware().output_file(l);
    for (std::uint32_t p = 0; p < s.dfs().num_partitions(f); ++p) {
      bumped |= s.dfs().layout_version(f, p) > 0;
    }
  }
  EXPECT_TRUE(bumped);
}

TEST(Fig5, NoSplitRecomputationPreservesLayout) {
  auto cfg = workloads::tiny_config(5, 3);
  Scenario s(cfg);
  const auto r = s.run(strat(Strategy::kRcmpNoSplit), fail_at({3}));
  ASSERT_TRUE(r.completed);
  for (std::uint32_t l = 0; l < 3; ++l) {
    const auto f = s.middleware().output_file(l);
    for (std::uint32_t p = 0; p < s.dfs().num_partitions(f); ++p) {
      EXPECT_EQ(s.dfs().layout_version(f, p), 0u);
    }
  }
}

// Constructs the paper's exact Fig. 5 preconditions, which require a
// *non-local* mapper whose output survives the failure:
//   - input file F with partition 0 stored on node 0 only, large enough
//     that other nodes steal some of its blocks (non-local mappers);
//   - job B runs over F and completes (map outputs persisted);
//   - node 0 dies: F partition 0 and B's outputs on node 0 are lost,
//     but the stolen mappers' outputs survive on other nodes;
//   - F partition 0 is regenerated with a *different* record-to-block
//     layout (what a split recomputation produces);
//   - B is recomputed. Reusing the surviving stale map outputs is
//     incorrect: records are lost/duplicated relative to the new layout.
mapred::Checksum run_fig5_hazard(bool enforce_rule) {
  using namespace rcmp::mapred;
  sim::Simulation sim;
  res::FlowNetwork net(sim);
  cluster::ClusterSpec cspec;
  cspec.nodes = 5;
  cspec.disk_bw = 100e6;
  cspec.nic_bw = 10e9 / 8;
  cluster::Cluster cl(sim, net, cspec);
  dfs::NameNode dfs(cl, 64 * kMiB, 5);
  MapOutputStore outputs;
  PayloadStore payloads;
  // One chain, admitted before the first job bootstraps.
  core::ChainScheduler sched(sim, cl, dfs, nullptr);
  sched.add_chain(1.0, &outputs);
  sched.submit(0, 0.0, [] {});
  Env env{sim, net, cl, dfs, outputs, payloads, sched.broker(0)};

  EngineConfig ecfg;
  ecfg.task_startup = 0.1;
  ecfg.job_setup_time = 0.5;
  ecfg.record_bytes = 16 * kMiB;  // 4 records per 64MiB block

  // F: partition 0 = 4 blocks on node 0; partitions 1..4 = 1 block each.
  const auto F = dfs.create_file("F", 5, 1);
  std::vector<Record> p0_records;
  for (std::uint64_t i = 0; i < 16; ++i) p0_records.push_back({i, i + 100});
  {
    auto plan = dfs.plan_write(F, 0, 4 * 64 * kMiB,
                               dfs::PlacementPolicy::kLocalFirst);
    for (auto& b : plan) b.replicas = {0};  // pin to node 0
    dfs.commit_partition(F, 0, plan);
    payloads.append(F, 0, p0_records, 4);
  }
  for (cluster::NodeId n = 1; n < 5; ++n) {
    auto plan =
        dfs.plan_write(F, n, 64 * kMiB, dfs::PlacementPolicy::kLocalFirst);
    for (auto& b : plan) b.replicas = {n};
    dfs.commit_partition(F, n, plan);
    payloads.append(F, n, {{100 + n, 7}, {200 + n, 8}, {300 + n, 9},
                           {400 + n, 10}},
                    1);
  }

  workloads::IdentityMapper mapper;
  workloads::IdentityReducer reducer;
  JobSpec spec;
  spec.name = "B";
  spec.logical_id = 1;
  spec.set_input(F);
  spec.output = dfs.create_file("B-out", 5, 1);
  spec.num_reducers = 5;
  spec.mapper = &mapper;
  spec.reducer = &reducer;

  // Initial run of B.
  JobRun initial(env, spec, {}, ecfg, 1, 11, [](JobRun&) {});
  initial.start();
  sim.run();
  EXPECT_TRUE(initial.finished());

  // Some of partition 0's mappers must have run off node 0 (stolen) so
  // their outputs survive — the M2 of Fig. 5.
  int surviving_p0_outputs = 0;
  for (std::uint32_t b = 0; b < 4; ++b) {
    const MapOutput* out = outputs.find({1, 0, b});
    if (out != nullptr && out->node != 0) ++surviving_p0_outputs;
  }
  EXPECT_GT(surviving_p0_outputs, 0);

  // Node 0 dies; F partition 0 and B's node-0 outputs are gone.
  cl.kill(0);
  dfs.on_node_failure(0);
  outputs.on_node_failure(0);

  // Regenerate F partition 0 the way a split recomputation would: the
  // same record multiset, the same total size, but records re-bucketed
  // by the split hash — so block k now holds different records than in
  // the original layout. Committed on surviving nodes.
  dfs.clear_partition(F, 0, /*preserve_layout=*/false);
  payloads.clear(F, 0);
  std::vector<Record> reordered;
  for (std::uint32_t split = 0; split < 2; ++split) {
    for (const Record& r : p0_records) {
      if (partition_of(r.key, 2, 0xfeed) == split) reordered.push_back(r);
    }
  }
  {
    auto plan = dfs.plan_write(F, 1, 4 * 64 * kMiB,
                               dfs::PlacementPolicy::kLocalFirst);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      plan[i].replicas = {static_cast<cluster::NodeId>(1 + i)};
    }
    dfs.commit_partition(F, 0, plan);
    payloads.append(F, 0, reordered, 4);
  }

  // Recompute B's damaged output partitions.
  RecomputeDirective dir;
  dir.active = true;
  for (std::uint32_t p = 0; p < 5; ++p) {
    if (!dfs.partition_available(spec.output, p)) {
      dir.damaged_partitions.push_back(p);
    }
  }
  EXPECT_FALSE(dir.damaged_partitions.empty());
  dir.enforce_fig5_rule = enforce_rule;

  JobRun recompute(env, spec, dir, ecfg, 2, 12, [](JobRun&) {});
  recompute.start();
  sim.run();
  EXPECT_TRUE(recompute.finished());
  if (!enforce_rule) {
    // The buggy variant must actually have reused stale outputs,
    // otherwise this test demonstrates nothing.
    EXPECT_GT(recompute.result().mappers_reused,
              0u);
  }
  return payloads.file_checksum(spec.output, 5);
}

TEST(Fig5, DisablingTheRuleCorruptsData) {
  // All 36 input records, pushed through the identity pipeline.
  mapred::Checksum expected;
  for (std::uint64_t i = 0; i < 16; ++i) expected.add({i, i + 100});
  for (std::uint64_t n = 1; n < 5; ++n) {
    expected.add({100 + n, 7});
    expected.add({200 + n, 8});
    expected.add({300 + n, 9});
    expected.add({400 + n, 10});
  }
  EXPECT_EQ(run_fig5_hazard(/*enforce_rule=*/true), expected);
  EXPECT_NE(run_fig5_hazard(/*enforce_rule=*/false), expected);
}

}  // namespace
}  // namespace rcmp
