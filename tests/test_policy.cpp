// Tests for the pluggable resilience-policy engine (core/policy.hpp)
// and the chaos-trace backtest harness (analysis/backtest.hpp).
//
// The load-bearing guarantee is the first block: `--policy static` (the
// default) is not "close to" the pre-policy code path, it IS the
// pre-policy code path — same doubles, byte-identical traces — in
// single-tenant, chaos, and multi-tenant runs. Everything adaptive is
// judged by the backtest scoreboard, which must itself be
// seed-deterministic to be worth checking in.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/backtest.hpp"
#include "common/error.hpp"
#include "core/policy.hpp"
#include "fixtures.hpp"
#include "obs/obs.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using testfx::chaos_config;
using testfx::fail_at;
using testfx::multi_config;
using testfx::strat;
using workloads::MultiScenario;
using workloads::Scenario;

// --- static-policy parity --------------------------------------------

struct ParityRun {
  double makespan = 0.0;
  std::string trace;
  std::uint32_t policy_decisions = 0;
};

ParityRun parity_run(const std::shared_ptr<core::IPolicy>& policy,
                     cluster::FailurePlan failures = {}) {
  auto cfg = workloads::payload_config(6, 4, /*records_per_node=*/256);
  cfg.trace_capacity = 1 << 16;
  Scenario s(cfg);
  auto strategy = strat(core::Strategy::kRcmpSplit);
  strategy.policy = policy;
  const auto r = s.run(strategy, std::move(failures));
  EXPECT_TRUE(r.completed);
  return {r.total_time, s.obs().tracer.export_jsonl(),
          r.policy_decisions};
}

TEST(StaticPolicyParity, FaultFreeRunIsByteIdentical) {
  const ParityRun none = parity_run(nullptr);
  const ParityRun shim = parity_run(core::make_policy("static"));
  EXPECT_DOUBLE_EQ(shim.makespan, none.makespan);
  EXPECT_FALSE(none.trace.empty());
  EXPECT_EQ(shim.trace, none.trace);
  EXPECT_EQ(shim.policy_decisions, 0u);
}

TEST(StaticPolicyParity, FailureRunIsByteIdentical) {
  const ParityRun none = parity_run(nullptr, fail_at({2, 3}));
  const ParityRun shim =
      parity_run(core::make_policy("static"), fail_at({2, 3}));
  EXPECT_DOUBLE_EQ(shim.makespan, none.makespan);
  EXPECT_NE(none.trace.find("\"ev\":\"replan\""), std::string::npos);
  EXPECT_EQ(shim.trace, none.trace);
}

TEST(StaticPolicyParity, ChaosScheduleIsByteIdentical) {
  auto traced = [](std::shared_ptr<core::IPolicy> policy) {
    auto cfg = chaos_config(/*nodes=*/6, /*chain=*/4);
    cfg.trace_capacity = 1 << 16;
    Scenario s(cfg);
    auto strategy = strat(core::Strategy::kRcmpSplit);
    strategy.policy = std::move(policy);
    cluster::FaultSchedule sched;
    sched.events.push_back(
        {cluster::FaultMode::kKill, /*at_job_ordinal=*/2, /*delay=*/5.0});
    const auto r = s.run_chaos(strategy, sched);
    EXPECT_TRUE(r.completed);
    return std::make_pair(r.total_time, s.obs().tracer.export_jsonl());
  };
  const auto none = traced(nullptr);
  const auto shim = traced(core::make_policy("static"));
  EXPECT_DOUBLE_EQ(shim.first, none.first);
  EXPECT_EQ(shim.second, none.second);
}

TEST(StaticPolicyParity, MultiTenantRunIsByteIdentical) {
  auto traced = [](std::shared_ptr<core::IPolicy> policy) {
    auto cfg = multi_config(/*chains=*/2, /*nodes=*/6, /*chain_length=*/3,
                            /*records_per_node=*/128);
    cfg.base.trace_capacity = 1 << 16;
    MultiScenario ms(cfg);
    auto strategy = strat(core::Strategy::kRcmpSplit);
    strategy.policy = std::move(policy);
    const auto results = ms.run(strategy);
    std::vector<double> makespans;
    for (const auto& r : results) {
      EXPECT_TRUE(r.completed);
      makespans.push_back(r.total_time);
    }
    return std::make_pair(makespans, ms.obs().tracer.export_jsonl());
  };
  const auto none = traced(nullptr);
  const auto shim = traced(core::make_policy("static"));
  ASSERT_EQ(shim.first.size(), none.first.size());
  for (std::size_t i = 0; i < none.first.size(); ++i) {
    EXPECT_DOUBLE_EQ(shim.first[i], none.first[i]) << "chain " << i;
  }
  EXPECT_FALSE(none.second.empty());
  EXPECT_EQ(shim.second, none.second);
}

// --- adaptive policies on the backtest corpus ------------------------

const analysis::BacktestScene& corpus_scene(
    const std::vector<analysis::BacktestScene>& scenes,
    const std::string& name) {
  for (const auto& s : scenes) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "corpus has no scene named " << name;
  return scenes.front();
}

TEST(Backtest, AtlasBeatsStaticOnFailureHeavyScene) {
  const auto scenes = analysis::default_corpus(42);
  const auto& scene = corpus_scene(scenes, "failure-heavy");
  const auto statik = analysis::run_scene(scene, "static", {});
  const auto atlas = analysis::run_scene(scene, "atlas", {});
  ASSERT_TRUE(statik.completed);
  ASSERT_TRUE(atlas.completed);
  // The acceptance bar: the adaptive policy's pre-replications turn at
  // least one full-prefix recomputation cascade into a short one.
  EXPECT_LT(atlas.makespan, statik.makespan);
  EXPECT_GT(atlas.policy_pre_replications, 0u);
  EXPECT_LT(atlas.replans, statik.replans);
  EXPECT_EQ(statik.policy_decisions, 0u);
  EXPECT_EQ(atlas.violations, 0u);
}

TEST(Backtest, OracleIsTheUpperBoundOnFailureHeavyScene) {
  const auto scenes = analysis::default_corpus(42);
  const auto& scene = corpus_scene(scenes, "failure-heavy");
  const auto statik = analysis::run_scene(scene, "static", {});
  const auto oracle = analysis::run_scene(scene, "oracle", {});
  const auto atlas = analysis::run_scene(scene, "atlas", {});
  ASSERT_TRUE(oracle.completed);
  EXPECT_LT(oracle.makespan, atlas.makespan);
  EXPECT_LT(atlas.makespan, statik.makespan);
}

TEST(Backtest, AtlasPlacesNoPointsOnCleanScenes) {
  const auto scenes = analysis::default_corpus(42);
  for (const char* name : {"calm", "jitter"}) {
    const auto& scene = corpus_scene(scenes, name);
    const auto statik = analysis::run_scene(scene, "static", {});
    const auto atlas = analysis::run_scene(scene, "atlas", {});
    ASSERT_TRUE(atlas.completed) << name;
    // No data was ever lost: an adaptive policy that spends storage (or
    // makespan) here is chasing false positives.
    EXPECT_EQ(atlas.policy_pre_replications, 0u) << name;
    EXPECT_DOUBLE_EQ(atlas.makespan, statik.makespan) << name;
  }
}

TEST(Backtest, OracleSkipsBenignFaultsOnJitterScene) {
  // The jitter scene is two kHeartbeatLoss windows: no data is ever
  // destroyed, so an oracle that reads fault *kinds* (not just
  // ordinals) must place zero replication points and tie static
  // exactly — the PR 6 scoreboard charged it two points here.
  const auto scenes = analysis::default_corpus(42);
  const auto& scene = corpus_scene(scenes, "jitter");
  const auto statik = analysis::run_scene(scene, "static", {});
  const auto oracle = analysis::run_scene(scene, "oracle", {});
  ASSERT_TRUE(statik.completed);
  ASSERT_TRUE(oracle.completed);
  EXPECT_EQ(oracle.policy_pre_replications, 0u);
  EXPECT_DOUBLE_EQ(oracle.makespan, statik.makespan);
}

TEST(OracleFaultKinds, BenignKindsCostNoPointsDestructiveStillDo) {
  // Same heartbeat-loss schedule, same fault ordinal — the only
  // difference is whether the oracle is told the fault kind. Without
  // kinds (historical callers) it defensively buys a replica; with
  // kinds it recognizes the benign event and spends nothing.
  auto run_oracle = [](std::vector<std::uint32_t> kinds) {
    auto cfg = chaos_config(/*nodes=*/8, /*chain=*/4);
    Scenario s(cfg);
    auto strategy = strat(core::Strategy::kRcmpSplit);
    core::PolicyParams params;
    params.oracle_fault_ordinals = {2};
    params.oracle_fault_kinds = std::move(kinds);
    strategy.policy = core::make_policy("oracle", params);
    cluster::FaultSchedule sched;
    sched.events.push_back({cluster::FaultMode::kHeartbeatLoss,
                            /*at_job_ordinal=*/2, /*delay=*/5.0});
    const auto r = s.run_chaos(strategy, sched);
    EXPECT_TRUE(r.completed);
    return r.policy_pre_replications;
  };
  const auto benign = static_cast<std::uint32_t>(
      cluster::FaultMode::kHeartbeatLoss);
  EXPECT_EQ(run_oracle({benign}), 0u);
  EXPECT_GT(run_oracle({}), 0u);  // ordinal-only callers keep old behavior
}

TEST(Backtest, ScoreboardIsByteIdenticalAcrossSameSeedReruns) {
  const auto policies = core::builtin_policy_names();
  const auto r1 =
      analysis::run_backtest(analysis::default_corpus(7), policies, {});
  const auto r2 =
      analysis::run_backtest(analysis::default_corpus(7), policies, {});
  const std::string j1 = analysis::scoreboard_json(r1);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, analysis::scoreboard_json(r2));
  EXPECT_EQ(analysis::scoreboard_table(r1),
            analysis::scoreboard_table(r2));
  // And a different seed actually reaches the generator.
  const auto r3 =
      analysis::run_backtest(analysis::default_corpus(8), policies, {});
  EXPECT_NE(j1, analysis::scoreboard_json(r3));
}

// --- knob validation -------------------------------------------------

TEST(MakePolicy, ValidatesKnobsWithConfigError) {
  core::PolicyParams p;
  EXPECT_NO_THROW(core::make_policy("static", p));
  EXPECT_THROW(core::make_policy("chaos-monkey", p), ConfigError);

  p = {};
  p.atlas.risk_threshold = 0.0;
  EXPECT_THROW(core::make_policy("atlas", p), ConfigError);
  p = {};
  p.atlas.decay = 1.0;
  EXPECT_THROW(core::make_policy("atlas", p), ConfigError);
  p = {};
  p.atlas.jitter_weight = -0.5;
  EXPECT_THROW(core::make_policy("atlas", p), ConfigError);
  p = {};
  p.replication = 1;
  EXPECT_THROW(core::make_policy("oracle", p), ConfigError);
  p = {};
  p.binocular.cost_ratio = 0.0;
  EXPECT_THROW(core::make_policy("binocular", p), ConfigError);
  p = {};
  p.oracle_fault_ordinals = {2, 5};
  p.oracle_fault_kinds = {0};  // must be empty or align one-to-one
  EXPECT_THROW(core::make_policy("oracle", p), ConfigError);
}

// --- auditor cross-check ---------------------------------------------

/// Misbehaving policy: demands a replication point at every boundary
/// without consulting storage_headroom() — exactly what the auditor's
/// budget-legality cross-check exists to catch.
class GreedyPolicy final : public core::IPolicy {
 public:
  const char* name() const override { return "greedy"; }
  std::unique_ptr<core::IPolicy> clone() const override {
    return std::make_unique<GreedyPolicy>(*this);
  }
  core::PolicyDecision on_job_boundary(
      const core::PolicyContext&) override {
    core::PolicyDecision d;
    d.replicate_now = true;
    return d;
  }
};

TEST(PolicyAudit, OverBudgetPreReplicationTripsTheAuditor) {
  auto cfg = workloads::tiny_config(5, 3);
  ASSERT_TRUE(cfg.audit);
  // One byte of budget: the chain input alone puts usage over it, so
  // the very first greedy pre-replication is illegal.
  cfg.storage_budget = 1;
  Scenario s(cfg);
  auto strategy = strat(core::Strategy::kRcmpSplit);
  strategy.policy = std::make_shared<GreedyPolicy>();
  EXPECT_THROW(s.run(strategy), obs::AuditError);
}

TEST(PolicyAudit, BudgetLegalPreReplicationPasses) {
  auto cfg = workloads::tiny_config(5, 3);
  Scenario s(cfg);
  auto strategy = strat(core::Strategy::kRcmpSplit);
  strategy.policy = std::make_shared<GreedyPolicy>();  // budget 0 = unlimited
  const auto r = s.run(strategy);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.policy_pre_replications, 0u);
  EXPECT_GT(s.obs().metrics.counter("audit.policy_replication_checks"),
            0u);
}

}  // namespace
}  // namespace rcmp
