// Behavioral tests for the job execution engine (single JobRun runs,
// driven directly without the middleware).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fixtures.hpp"
#include "mapred/engine.hpp"
#include "workloads/udfs.hpp"

namespace rcmp::mapred {
namespace {

using namespace rcmp::literals;
using testfx::EngineFixture;

TEST(Engine, CompletesAndCommitsAllPartitions) {
  EngineFixture f;
  const auto spec = f.make_spec(4);
  const auto out = spec.output;
  auto& run = f.run(spec);
  ASSERT_TRUE(run.finished());
  EXPECT_EQ(run.result().status, JobResult::Status::kCompleted);
  EXPECT_TRUE(f.dfs.file_available(out));
  EXPECT_EQ(run.result().mappers_executed, 20u);  // 5 nodes x 4 blocks
  EXPECT_EQ(run.result().reducers_executed, 4u);
  EXPECT_EQ(run.result().mappers_reused, 0u);
}

TEST(Engine, OneToOneRatioPreservesBytes) {
  EngineFixture f;
  const auto spec = f.make_spec(4);
  const auto out = spec.output;
  auto& run = f.run(spec);
  const double input_bytes = static_cast<double>(f.dfs.file_size(f.input));
  EXPECT_NEAR(run.result().shuffle_bytes, input_bytes, input_bytes * 0.01);
  EXPECT_NEAR(static_cast<double>(f.dfs.file_size(out)), input_bytes,
              input_bytes * 0.01);
}

TEST(Engine, TimingsAreOrdered) {
  EngineFixture f;
  auto& run = f.run(f.make_spec(4));
  const auto& r = run.result();
  EXPECT_GT(r.map_phase_end, r.start_time);
  EXPECT_GT(r.end_time, r.map_phase_end);
  for (const auto& t : r.map_timings) {
    EXPECT_GE(t.start, r.start_time);
    EXPECT_GT(t.end, t.start);
    EXPECT_LE(t.end, r.map_phase_end + 1e-9);
  }
  for (const auto& t : r.reduce_timings) {
    EXPECT_GT(t.end, t.start);
    EXPECT_LE(t.end, r.end_time + 1e-9);
  }
}

TEST(Engine, SlotLimitsRespected) {
  EngineFixture f(/*nodes=*/3, /*blocks_per_node=*/6, 1, /*map_slots=*/2);
  auto& run = f.run(f.make_spec(3));
  // At no instant may a node run more concurrent mappers than it has
  // slots: check pairwise interval overlaps per node.
  std::map<cluster::NodeId, std::vector<std::pair<double, double>>> by_node;
  for (const auto& t : run.result().map_timings) {
    by_node[t.node].emplace_back(t.start, t.end);
  }
  for (auto& [node, spans] : by_node) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      int overlap = 0;
      for (std::size_t j = 0; j < spans.size(); ++j) {
        if (spans[j].first <= spans[i].first &&
            spans[i].first < spans[j].second) {
          ++overlap;
        }
      }
      EXPECT_LE(overlap, 2);  // map_slots
    }
  }
}

TEST(Engine, MapWavesExtendPhase) {
  // Same data in 2 blocks/node vs 8 blocks/node: more waves (slots 1-1)
  // must lengthen the map phase.
  EngineFixture two(/*nodes=*/4, /*blocks_per_node=*/2);
  EngineFixture eight(/*nodes=*/4, /*blocks_per_node=*/8);
  auto& a = two.run(two.make_spec(4));
  auto& b = eight.run(eight.make_spec(4));
  const double map_a = a.result().map_phase_end - a.result().start_time;
  const double map_b = b.result().map_phase_end - b.result().start_time;
  EXPECT_GT(map_b, map_a * 1.5);
}

TEST(Engine, ReplicatedOutputHasReplicas) {
  EngineFixture f;
  const auto spec = f.make_spec(4, /*out_repl=*/3);
  const auto out = spec.output;
  f.run(spec);
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (std::uint64_t b : f.dfs.partition(out, p).blocks) {
      EXPECT_EQ(f.dfs.block(b).replicas.size(), 3u);
    }
  }
}

TEST(Engine, ReplicationSlowsJob) {
  EngineFixture f1, f3;
  auto& r1 = f1.run(f1.make_spec(4, 1));
  auto& r3 = f3.run(f3.make_spec(4, 3));
  EXPECT_GT(r3.result().duration(), r1.result().duration() * 1.1);
}

TEST(Engine, RegistersPersistedMapOutputs) {
  EngineFixture f;
  const auto& run = f.run(f.make_spec(4));
  EXPECT_EQ(f.outputs.size(), 20u);  // 5 nodes x 4 blocks
  // Each output is on an alive node, and in a fault-free run the
  // reducers' shares of the outputs shuffle every output byte once.
  double total = 0;
  for (std::uint32_t p = 0; p < 5; ++p) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      const MapOutput* out = f.outputs.find({0, p, b});
      ASSERT_NE(out, nullptr) << p << "/" << b;
      EXPECT_TRUE(f.cluster.alive(out->node));
      total += out->total_bytes;
    }
  }
  EXPECT_GT(total, 0.0);
  EXPECT_NEAR(run.result().shuffle_bytes, total, 1.0);
}

TEST(Engine, PayloadIdentityJobPreservesRecords) {
  EngineFixture f;
  workloads::IdentityMapper mapper;
  workloads::IdentityReducer reducer;
  std::vector<Record> recs;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) recs.push_back({rng(), rng()});
  // Attach payload to every input partition (20 records each).
  for (cluster::NodeId n = 0; n < 5; ++n) {
    std::vector<Record> part(recs.begin() + n * 20,
                             recs.begin() + (n + 1) * 20);
    f.payloads.append(f.input, n, part, 4);
  }
  auto spec = f.make_spec(4);
  spec.mapper = &mapper;
  spec.reducer = &reducer;
  const auto out = spec.output;
  f.run(spec);
  EXPECT_EQ(f.payloads.file_checksum(out, 4), checksum_of(recs));
}

TEST(Engine, PayloadPartitioningRoutesByKey) {
  EngineFixture f;
  workloads::IdentityMapper mapper;
  workloads::IdentityReducer reducer;
  for (cluster::NodeId n = 0; n < 5; ++n) {
    std::vector<Record> part;
    for (int i = 0; i < 25; ++i)
      part.push_back({static_cast<std::uint64_t>(n * 25 + i), 7});
    f.payloads.append(f.input, n, part, 4);
  }
  auto spec = f.make_spec(4);
  spec.mapper = &mapper;
  spec.reducer = &reducer;
  const auto out = spec.output;
  f.run(spec);
  // Every record landed in the partition its key hashes to.
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (const Record& r : f.payloads.partition_records(out, p)) {
      EXPECT_EQ(partition_of(r.key, 4, spec.partition_salt()), p);
    }
  }
}

TEST(Engine, TaskRecoveryWithReplicatedInput) {
  // Hadoop-style: input replicated 2x; a node dies mid-job; the job
  // recovers by re-executing tasks and completes.
  EngineFixture f(/*nodes=*/4, /*blocks_per_node=*/4,
                  /*input_replication=*/2);
  auto spec = f.make_spec(4, /*out_repl=*/2);
  const auto out = spec.output;
  f.runs.push_back(std::make_unique<JobRun>(
      f.env(), std::move(spec), RecomputeDirective{}, f.cfg, 1, 7,
      [](JobRun&) {}));
  JobRun& run = *f.runs.back();
  run.start();
  f.sim.schedule_at(10.0, [&] {
    f.cluster.kill(1);
    f.dfs.on_node_failure(1);
    f.outputs.on_node_failure(1);
    run.on_node_killed(1);
    f.sim.schedule_after(30.0, [&] {
      EXPECT_EQ(run.on_detected_failure(1),
                JobRun::FailureOutcome::kRecovered);
    });
  });
  f.sim.run();
  ASSERT_TRUE(run.finished());
  EXPECT_EQ(run.result().status, JobResult::Status::kCompleted);
  EXPECT_TRUE(f.dfs.file_available(out));
}

TEST(Engine, FailureCostsAtLeastDetectionTime) {
  EngineFixture healthy(/*nodes=*/4, 4, 2);
  auto& base = healthy.run(healthy.make_spec(4, 2));

  EngineFixture f(/*nodes=*/4, 4, 2);
  auto spec = f.make_spec(4, 2);
  f.runs.push_back(std::make_unique<JobRun>(
      f.env(), std::move(spec), RecomputeDirective{}, f.cfg, 1, 7,
      [](JobRun&) {}));
  JobRun& run = *f.runs.back();
  run.start();
  f.sim.schedule_at(10.0, [&] {
    f.cluster.kill(1);
    f.dfs.on_node_failure(1);
    f.outputs.on_node_failure(1);
    run.on_node_killed(1);
    f.sim.schedule_after(30.0, [&] { run.on_detected_failure(1); });
  });
  f.sim.run();
  ASSERT_TRUE(run.finished());
  EXPECT_GT(run.result().duration(), base.result().duration());
}

TEST(Engine, UnreplicatedInputLossAborts) {
  EngineFixture f(/*nodes=*/4, 4, /*input_replication=*/1);
  auto spec = f.make_spec(4);
  f.runs.push_back(std::make_unique<JobRun>(
      f.env(), std::move(spec), RecomputeDirective{}, f.cfg, 1, 7,
      [](JobRun&) {}));
  JobRun& run = *f.runs.back();
  run.start();
  JobRun::FailureOutcome outcome = JobRun::FailureOutcome::kRecovered;
  f.sim.schedule_at(5.0, [&] {
    f.cluster.kill(2);
    f.dfs.on_node_failure(2);
    f.outputs.on_node_failure(2);
    run.on_node_killed(2);
    f.sim.schedule_after(30.0,
                         [&] { outcome = run.on_detected_failure(2); });
  });
  f.sim.run_until(36.0);
  EXPECT_EQ(outcome, JobRun::FailureOutcome::kNeedsAbort);
  run.cancel();
  f.sim.run();
  EXPECT_FALSE(run.finished());
}

TEST(Engine, CancelDiscardsPartialState) {
  EngineFixture f;
  auto spec = f.make_spec(4);
  const auto out = spec.output;
  f.runs.push_back(std::make_unique<JobRun>(
      f.env(), std::move(spec), RecomputeDirective{}, f.cfg, 1, 7,
      [](JobRun&) {}));
  JobRun& run = *f.runs.back();
  run.start();
  f.sim.run_until(20.0);  // mid-flight
  run.cancel();
  f.sim.run();
  EXPECT_FALSE(run.finished());
  EXPECT_EQ(run.result().status, JobResult::Status::kCancelled);
  EXPECT_EQ(f.outputs.size(), 0u);  // partial map outputs dropped
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(f.dfs.partition_available(out, p));
  }
}

TEST(Engine, DroppedOutputWithBufferedContributionIsUnregistered) {
  // A registered map output is erased from the store while each
  // reducer still buffers its contribution below the flush threshold.
  // The next flush of that buffer must fail on the unregistered mapper
  // rather than read the erased output (ASan builds flag such a read).
  EngineFixture f;
  // Threshold = one node's four contributions to a reducer: a lone
  // completed mapper stays buffered.
  f.cfg.shuffle_flush_fraction = 1.0;
  f.runs.push_back(std::make_unique<JobRun>(
      f.env(), f.make_spec(4), RecomputeDirective{}, f.cfg, 1, 7,
      [](JobRun&) {}));
  f.runs.back()->start();
  SimTime t = 0.0;
  while (f.outputs.size() == 0) {
    ASSERT_LT(t, 100.0) << "no map output registered";
    f.sim.run_until(t += 0.01);
  }
  // The first wave's outputs: block 0 of each node's input partition.
  const MapOutputKey dropped{/*logical_job=*/0, /*input_partition=*/0,
                             /*block_index=*/0};
  ASSERT_TRUE(f.outputs.contains(dropped));
  f.outputs.drop(dropped);
  try {
    f.sim.run();
    FAIL() << "flushed a contribution of an erased map output";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "contribution from unregistered mapper"),
              std::string::npos)
        << e.what();
  }
}

TEST(Engine, DoneCallbackFiresExactlyOnceOnCompletion) {
  EngineFixture f;
  int called = 0;
  auto spec = f.make_spec(2);
  f.runs.push_back(std::make_unique<JobRun>(
      f.env(), std::move(spec), RecomputeDirective{}, f.cfg, 1, 7,
      [&called](JobRun&) { ++called; }));
  f.runs.back()->start();
  f.sim.run();
  EXPECT_EQ(called, 1);
}

TEST(Engine, SlowShuffleTailDebtLengthensJob) {
  EngineFixture fast, slow;
  slow.cfg.shuffle_tail_latency = 10.0;
  auto& a = fast.run(fast.make_spec(4));
  auto& b = slow.run(slow.make_spec(4));
  // 20 mappers, parallelism 5 -> ~40 s of serialized tail per reducer.
  EXPECT_GT(b.result().duration(), a.result().duration() + 20.0);
}

TEST(Engine, JobSetupDelaysFirstTask) {
  EngineFixture f;
  f.cfg.job_setup_time = 50.0;
  auto& run = f.run(f.make_spec(2));
  double first_start = 1e18;
  for (const auto& t : run.result().map_timings) {
    first_start = std::min(first_start, t.start);
  }
  EXPECT_GE(first_start, 50.0);
}

}  // namespace
}  // namespace rcmp::mapred
