// Scenario: the paper's experiment — one chain on a dedicated cluster
// (simulation, flow network, cluster, DFS, stores, the chain workload, a
// failure plan and a strategy) run start to finish.
//
// A single chain is a one-tenant run: a Scenario is a MultiScenario of
// one chain, and every accessor here pins chain 0 of it. The scheduler's
// tag rule keeps a one-chain run's trace events untagged and its metric
// names bare.
//
// A Scenario is one-shot: construct, optionally tweak, call run() once.
// Benches and tests construct a fresh Scenario per data point, which is
// also what guarantees statistical independence across seeds.
#pragma once

#include "workloads/multi_scenario.hpp"

namespace rcmp::workloads {

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);

  /// Run the chain to completion under a strategy, with optional
  /// injected failures (the plan's kill_schedule on the chaos engine;
  /// ConfigError for a plan it rejects). Returns the chain result;
  /// throws if the simulation deadlocks before the chain completes.
  core::ChainResult run(core::StrategyConfig strategy,
                        cluster::FailurePlan failures = {});

  /// Run under a typed FaultSchedule (the chaos engine) instead of the
  /// paper's ordinal kill plan. Corruption events are wired to the
  /// scenario's stores: kCorruptPartition flips data in a random
  /// *intermediate* chain output (never the final one — nothing re-reads
  /// it, so corruption there is undetectable by read-path verification),
  /// kCorruptMapOutput flips a persisted map-output bucket.
  core::ChainResult run_chaos(core::StrategyConfig strategy,
                              cluster::FaultSchedule schedule);

  // --- introspection for tests and benches ---------------------------
  mapred::Env env() { return ms_.env(0); }
  sim::Simulation& sim() { return ms_.sim(); }
  cluster::Cluster& cluster() { return ms_.cluster(); }
  dfs::NameNode& dfs() { return ms_.dfs(); }
  mapred::MapOutputStore& map_outputs() { return ms_.map_outputs(0); }
  mapred::PayloadStore& payloads() { return ms_.payloads(); }
  dfs::FileId input_file() const { return ms_.input_file(0); }
  const ScenarioConfig& config() const { return ms_.config().base; }
  /// Valid once run()/run_chaos() has started the chain.
  core::Middleware& middleware() { return ms_.middleware(0); }
  /// The chaos engine run() or run_chaos() attached; null when run()
  /// had no failures to inject.
  cluster::ChaosEngine* injector() { return ms_.chaos(); }
  obs::Observability& obs() { return ms_.obs(); }
  /// Null when ScenarioConfig::audit is false.
  obs::Auditor* auditor() { return ms_.auditor(); }
  /// Null when ScenarioConfig::detector.enabled is false.
  cluster::FailureDetector* detector() { return ms_.detector(); }
  /// The one-chain scheduler (slots, storage budget, evictions).
  core::ChainScheduler& scheduler() { return ms_.scheduler(); }
  /// Null unless run with StrategyConfig::result_cache set.
  core::ResultCache* result_cache() { return ms_.result_cache(); }
  /// Null unless ScenarioConfig::journal is set.
  core::DecisionJournal* journal() { return ms_.journal(); }

  /// Crash and recover the coordinator now (MultiScenario::crash_master).
  bool crash_master() { return ms_.crash_master(); }
  /// Crash-point fuzzing (MultiScenario::arm_master_crash).
  void arm_master_crash(std::uint64_t at_record) {
    ms_.arm_master_crash(at_record);
  }

  /// Payload mode: checksum of the final job's output records.
  mapred::Checksum final_output_checksum() {
    return ms_.final_output_checksum(0);
  }
  /// Payload mode: checksum of the source input records.
  mapred::Checksum input_checksum() { return ms_.input_checksum(0); }
  dfs::FileId final_output_file() const { return ms_.final_output_file(0); }

  /// The chain templates (exposed so tests can customize before run()).
  core::ChainSpec& chain() { return ms_.chain(0); }

 private:
  MultiScenario ms_;
};

/// Convenience: run one scenario end to end and return the result.
core::ChainResult run_scenario(const ScenarioConfig& cfg,
                               core::StrategyConfig strategy,
                               cluster::FailurePlan failures = {});

}  // namespace rcmp::workloads
