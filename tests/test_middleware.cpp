// Middleware behavior: strategy semantics, job numbering, hybrid
// replication, storage reclamation, restarts.
#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using core::Strategy;
using core::StrategyConfig;
using mapred::JobResult;
using testfx::fail_at;
using testfx::strat;
using workloads::Scenario;

TEST(Middleware, FailureFreeRunsEachJobOnce) {
  for (auto s : {Strategy::kRcmpSplit, Strategy::kOptimistic}) {
    Scenario sc(workloads::tiny_config(5, 5));
    const auto r = sc.run(strat(s));
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.jobs_started, 5u);
    EXPECT_EQ(r.restarts, 0u);
  }
}

TEST(Middleware, ReplicationFailureFree) {
  Scenario sc(workloads::tiny_config(5, 5));
  const auto r = sc.run(strat(Strategy::kReplication, 3));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.jobs_started, 5u);
  // Every intermediate output triple-replicated.
  for (std::uint32_t l = 0; l < 5; ++l) {
    EXPECT_EQ(sc.dfs().replication(sc.middleware().output_file(l)), 3u);
  }
}

TEST(Middleware, ReplicationIsSlowerFailureFree) {
  double t1, t3;
  {
    Scenario sc(workloads::tiny_config(5, 5));
    t1 = sc.run(strat(Strategy::kRcmpSplit)).total_time;
  }
  {
    Scenario sc(workloads::tiny_config(5, 5));
    t3 = sc.run(strat(Strategy::kReplication, 3)).total_time;
  }
  EXPECT_GT(t3, t1 * 1.15);
}

TEST(Middleware, ReplicationSurvivesSingleFailureInPlace) {
  Scenario sc(workloads::tiny_config(5, 5));
  const auto r = sc.run(strat(Strategy::kReplication, 2), fail_at({3}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.restarts, 0u);
  // Replication never recomputes: same 5 jobs, handled inside runs.
  EXPECT_EQ(r.jobs_started, 5u);
  for (const auto& run : r.runs) {
    EXPECT_FALSE(run.was_recompute);
  }
}

TEST(Middleware, OptimisticRestartsFromScratch) {
  Scenario sc(workloads::tiny_config(5, 5));
  const auto r = sc.run(strat(Strategy::kOptimistic), fail_at({4}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.restarts, 1u);
  // 3 complete + 1 cancelled + 5 rerun = 9 started.
  EXPECT_EQ(r.jobs_started, 9u);
  int cancelled = 0;
  for (const auto& run : r.runs) {
    EXPECT_FALSE(run.was_recompute);  // OPTIMISTIC never recomputes
    cancelled += run.status == JobResult::Status::kCancelled;
  }
  EXPECT_EQ(cancelled, 1);
}

TEST(Middleware, OptimisticLateFailureNearlyDoubles) {
  double clean, late;
  {
    Scenario sc(workloads::tiny_config(5, 6));
    clean = sc.run(strat(Strategy::kOptimistic)).total_time;
  }
  {
    Scenario sc(workloads::tiny_config(5, 6));
    late = sc.run(strat(Strategy::kOptimistic), fail_at({6})).total_time;
  }
  EXPECT_GT(late, clean * 1.6);
}

TEST(Middleware, RcmpBeatsOptimisticOnLateFailure) {
  double rcmp, optimistic;
  {
    Scenario sc(workloads::tiny_config(6, 6));
    rcmp = sc.run(strat(Strategy::kRcmpSplit), fail_at({6})).total_time;
  }
  {
    Scenario sc(workloads::tiny_config(6, 6));
    optimistic =
        sc.run(strat(Strategy::kOptimistic), fail_at({6})).total_time;
  }
  EXPECT_LT(rcmp, optimistic);
}

TEST(Middleware, JobNumberingCountsRecomputations) {
  // The paper's example: failure during the 7th job of a 7-job chain
  // leads to 14 started jobs under RCMP, 7 under replication.
  {
    Scenario sc(workloads::tiny_config(5, 7));
    const auto r = sc.run(strat(Strategy::kRcmpSplit), fail_at({7}));
    EXPECT_EQ(r.jobs_started, 14u);
  }
  {
    Scenario sc(workloads::tiny_config(5, 7));
    const auto r = sc.run(strat(Strategy::kReplication, 3), fail_at({7}));
    EXPECT_EQ(r.jobs_started, 7u);
  }
}

TEST(Middleware, HybridReplicatesEveryKthJob) {
  Scenario sc(workloads::tiny_config(5, 6));
  StrategyConfig cfg = strat(Strategy::kRcmpSplit);
  cfg.hybrid_every = 3;
  cfg.hybrid_replication = 2;
  const auto r = sc.run(cfg);
  ASSERT_TRUE(r.completed);
  // Jobs 3 and 6 (1-based) are replication points.
  for (std::uint32_t l = 0; l < 6; ++l) {
    const auto f = sc.middleware().output_file(l);
    EXPECT_EQ(sc.dfs().replication(f), (l + 1) % 3 == 0 ? 2u : 1u);
  }
}

TEST(Middleware, HybridCascadeStopsAtReplicationPoint) {
  Scenario sc(workloads::tiny_config(5, 7));
  StrategyConfig cfg = strat(Strategy::kRcmpSplit);
  cfg.hybrid_every = 5;
  const auto r = sc.run(cfg, fail_at({7}));
  ASSERT_TRUE(r.completed);
  // Jobs 1..4 damaged but upstream of the replicated job-5 output are
  // still recomputed only if their own outputs were damaged; crucially
  // job 5's output survived, so the cascade need not regenerate it.
  std::uint32_t recomputed = 0;
  for (const auto& run : r.runs) {
    if (run.was_recompute &&
        run.status == JobResult::Status::kCompleted) {
      ++recomputed;
      EXPECT_NE(run.logical_id, 4u);  // job 5 (0-based 4) never recomputed
    }
  }
  // Without hybrid this failure recomputes 6 jobs; with a surviving
  // replication point at job 5, at most jobs {1..4 damaged} + {6}.
  Scenario base(workloads::tiny_config(5, 7));
  const auto rb = base.run(strat(Strategy::kRcmpSplit), fail_at({7}));
  std::uint32_t base_recomputed = 0;
  for (const auto& run : rb.runs) {
    base_recomputed += run.was_recompute &&
                       run.status == JobResult::Status::kCompleted;
  }
  EXPECT_EQ(base_recomputed, 6u);
  EXPECT_LT(recomputed, base_recomputed);
}

TEST(Middleware, ReclamationReducesStorage) {
  StrategyConfig keep = strat(Strategy::kRcmpSplit);
  keep.hybrid_every = 2;
  StrategyConfig reclaim = keep;
  reclaim.reclaim_after_replication = true;
  Bytes keep_peak, reclaim_peak;
  {
    Scenario sc(workloads::tiny_config(5, 6));
    keep_peak = sc.run(keep).peak_storage;
  }
  {
    Scenario sc(workloads::tiny_config(5, 6));
    reclaim_peak = sc.run(reclaim).peak_storage;
  }
  EXPECT_LT(reclaim_peak, keep_peak);
}

TEST(Middleware, ReclamationStillRecoverable) {
  Scenario sc(workloads::payload_config(5, 6));
  StrategyConfig cfg = strat(Strategy::kRcmpSplit);
  cfg.hybrid_every = 2;
  cfg.reclaim_after_replication = true;
  const auto r = sc.run(cfg, fail_at({6}));
  ASSERT_TRUE(r.completed);

  mapred::Checksum ref;
  {
    Scenario clean(workloads::payload_config(5, 6));
    clean.run(strat(Strategy::kRcmpSplit));
    ref = clean.final_output_checksum();
  }
  EXPECT_EQ(sc.final_output_checksum(), ref);
}

// A payload chain of three jobs whose second output is the replication
// point (x2) and whose first output is reclaimed once the point lands.
// While job 3 runs, both replica holders of one block of the point die:
// recomputing that block would read the reclaimed first output, so
// recovery falls back to a full restart. With `crash_master` the
// coordinator crashes right after the kills, before detection, and the
// journal replay reaches the same fallback.
void expect_reclaimed_input_restarts(bool crash_master) {
  workloads::MultiScenarioConfig cfg;
  cfg.base = testfx::chaos_config(8, 3);  // input x4 outlives two kills
  cfg.base.journal = crash_master;
  cfg.chains = 1;
  workloads::MultiScenario ms(cfg);
  StrategyConfig sc = strat(Strategy::kRcmpSplit);
  sc.hybrid_every = 2;
  sc.reclaim_after_replication = true;
  ms.start(sc);
  core::Middleware& mw = ms.middleware(0);
  SimTime t = 0.0;
  while (ms.dfs().file_exists(mw.output_file(0))) {
    ASSERT_FALSE(mw.finished()) << "chain finished before the reclaim";
    t += 0.5;
    ms.sim().run_until(t);
  }
  ASSERT_FALSE(mw.finished());
  const dfs::FileId point = mw.output_file(1);
  ASSERT_EQ(ms.dfs().replication(point), 2u);
  const auto& blocks = ms.dfs().partition(point, 0).blocks;
  ASSERT_FALSE(blocks.empty());
  const auto holders = ms.dfs().block(blocks.front()).replicas;
  ASSERT_EQ(holders.size(), 2u);
  for (const cluster::NodeId n : holders) ms.cluster().kill(n);
  ASSERT_FALSE(ms.dfs().partition_available(point, 0));
  ASSERT_TRUE(ms.dfs().file_available(ms.input_file(0)));
  if (crash_master) {
    ASSERT_TRUE(ms.crash_master());
  }
  const auto results = ms.finish();

  const core::ChainResult& r = results.front();
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.restarts, 1u);
  EXPECT_EQ(r.master_crashes, crash_master ? 1u : 0u);
  const auto input =
      testfx::gather_records(ms.payloads(), ms.dfs(), ms.input_file(0));
  EXPECT_EQ(ms.final_output_checksum(0),
            testfx::oracle_checksum(input, cfg.base.chain_length));
}

TEST(Middleware, ReplanFallsBackToRestartWhenInputWasReclaimed) {
  expect_reclaimed_input_restarts(/*crash_master=*/false);
}

TEST(Middleware, JournalRecoveryFallsBackToRestartWhenInputWasReclaimed) {
  expect_reclaimed_input_restarts(/*crash_master=*/true);
}

TEST(Middleware, ChainAdmittedAfterItsSourceIsLostFailsInsteadOfWedging) {
  // Two chains, one admitted at a time, inputs without replicas: the
  // kill 20 s into the first job takes one partition of both inputs.
  // The running chain replans, finds its source lost and gives up; the
  // waiting chain is admitted only then, with its source already lost,
  // and must give up the same way instead of holding its first job.
  workloads::MultiScenarioConfig cfg;
  cfg.base = workloads::tiny_config(5, 3);
  cfg.base.input_replication = 1;
  cfg.base.seed = 42;
  cfg.base.trace_capacity = 1 << 16;
  cfg.chains = 2;
  cfg.max_concurrent = 1;
  workloads::MultiScenario ms(cfg);
  cluster::FaultSchedule schedule;
  cluster::FaultEvent kill;
  kill.at_job_ordinal = 1;
  kill.delay = 20.0;
  schedule.events.push_back(kill);
  const auto results = ms.run_chaos(StrategyConfig{}, schedule);

  // Precondition: the second chain is admitted after the kill, and no
  // node rejoins, so its source is unavailable at admission.
  SimTime killed_at = -1.0;
  SimTime admitted_at = -1.0;
  for (const obs::TraceEvent& e : ms.obs().tracer.events()) {
    const auto type = static_cast<obs::EventType>(e.type);
    if (type == obs::EventType::kFailure) killed_at = e.time;
    if (type == obs::EventType::kChainAdmit && e.chain == 2) {
      admitted_at = e.time;
    }
    EXPECT_NE(type, obs::EventType::kRecovery);
  }
  ASSERT_GE(killed_at, 0.0);
  EXPECT_LT(killed_at, admitted_at);
  EXPECT_FALSE(ms.dfs().file_available(ms.input_file(1)));

  ASSERT_EQ(results.size(), 2u);
  for (const core::ChainResult& r : results) {
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.fail_reason, core::ChainResult::FailReason::kSourceDataLost);
    EXPECT_EQ(r.restarts, 1u);
  }
  EXPECT_EQ(results[1].jobs_started, 0u);
}

TEST(Middleware, PeakStorageScalesWithReplication) {
  Bytes p1, p3;
  {
    Scenario sc(workloads::tiny_config(5, 4));
    p1 = sc.run(strat(Strategy::kRcmpSplit)).peak_storage;
  }
  {
    Scenario sc(workloads::tiny_config(5, 4));
    p3 = sc.run(strat(Strategy::kReplication, 3)).peak_storage;
  }
  EXPECT_GT(p3, p1);
}

TEST(Middleware, AttemptsTracked) {
  Scenario sc(workloads::tiny_config(5, 4));
  const auto r = sc.run(strat(Strategy::kRcmpSplit), fail_at({4}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sc.middleware().attempts(3), 2u);  // interrupted + rerun
  EXPECT_GE(sc.middleware().attempts(0), 2u);  // initial + recompute
}

TEST(Middleware, RejectsReplicationFactorOne) {
  Scenario sc(workloads::tiny_config(4, 2));
  EXPECT_THROW(sc.run(strat(Strategy::kReplication, 1)), InvariantError);
}

TEST(Middleware, RunsSortedByOrdinal) {
  Scenario sc(workloads::tiny_config(5, 5));
  const auto r = sc.run(strat(Strategy::kRcmpSplit), fail_at({5}));
  for (std::size_t i = 1; i < r.runs.size(); ++i) {
    EXPECT_EQ(r.runs[i].ordinal, r.runs[i - 1].ordinal + 1);
  }
}

}  // namespace
}  // namespace rcmp
