// MultiScenario: N concurrent chains on one shared cluster, arbitrated
// by a core::ChainScheduler. N = 1 is the paper's setting — one chain on
// a dedicated cluster — and workloads::Scenario is exactly that.
//
// Shares everything a real multi-tenant deployment would share — the
// simulation, the flow network, the cluster, the DFS (globally-unique
// file ids keep the shared PayloadStore safe), the observability sink
// and the shared compute-slot/storage arbitration — while keeping
// everything tenant-scoped separate: each chain has its own input file,
// its own output files, its own persisted-map-output store (MapOutputKey
// is keyed by logical job id, which collides across chains) and its own
// Middleware.
//
// A MultiScenario is one-shot. run() drives every chain to completion;
// start()/finish() split the same flow for tests that need to
// interleave their own events (kills, inspections) with the simulation.
//
// The fault source — the chaos engine, which also runs the paper's
// ordinal kill plan as a cluster::kill_schedule — attaches before or
// after start(); it draws its seed from the scenario's stream at the
// moment it attaches, so the attach point fixes the seed order. Its
// ordinals count job starts globally across chains.
#pragma once

#include <memory>
#include <vector>

#include "cluster/chaos.hpp"
#include "core/journal.hpp"
#include "core/middleware.hpp"
#include "core/result_cache.hpp"
#include "core/scheduler.hpp"
#include "obs/audit.hpp"
#include "workloads/presets.hpp"
#include "workloads/udfs.hpp"

namespace rcmp::workloads {

struct MultiScenarioConfig {
  /// Shared cluster/engine settings plus the per-chain shape (length,
  /// input size, payload mode) every chain replicates.
  ScenarioConfig base;
  std::uint32_t chains = 2;
  /// Fair-share weight per chain; empty = all 1.0.
  std::vector<double> weights;
  /// Submission time per chain; empty = all at t=0.
  std::vector<SimTime> submit_at;
  /// Admission limit (ChainScheduler::Config); 0 = unlimited.
  std::uint32_t max_concurrent = 0;
  /// Result-cache dataset identity per chain; empty = every chain gets
  /// a distinct input, and base.dataset_id labels it (allowed only for
  /// a single chain: distinct inputs cannot share an identity). When
  /// set (one id per chain), chains with equal non-zero ids receive
  /// *byte-identical* input records — the precondition for cross-tenant
  /// cache hits — and the id flows into TenantContext::dataset_id. Id 0
  /// keeps that chain's input distinct and its caching disabled.
  std::vector<std::uint64_t> dataset_ids;
  /// Cache knobs applied when the strategy arms the result cache.
  core::ResultCacheConfig cache;
};

class MultiScenario {
 public:
  explicit MultiScenario(MultiScenarioConfig cfg);

  /// Construct the middlewares and submit every chain through the
  /// scheduler; the caller then drives sim().run() (or calls finish()).
  void start(core::StrategyConfig strategy);
  /// Drain the simulation and collect per-chain results (chain order).
  std::vector<core::ChainResult> finish();
  /// start() + finish().
  std::vector<core::ChainResult> run(core::StrategyConfig strategy);
  /// attach_chaos() + run(): the chaos seed is drawn before the
  /// middlewares' seeds.
  std::vector<core::ChainResult> run_chaos(core::StrategyConfig strategy,
                                           cluster::FaultSchedule schedule);

  /// Arm a typed FaultSchedule (the chaos engine) on global job-start
  /// ordinals. Corruption targets a random chain's intermediate outputs
  /// / map-output store. Throws ConfigError for a schedule the scenario
  /// cannot run (kMasterCrash without base.journal). Before or after
  /// start(), once.
  void attach_chaos(cluster::FaultSchedule schedule);

  // --- introspection --------------------------------------------------
  sim::Simulation& sim() { return sim_; }
  cluster::Cluster& cluster() { return cluster_; }
  dfs::NameNode& dfs() { return dfs_; }
  obs::Observability& obs() { return obs_; }
  obs::Auditor* auditor() { return auditor_.get(); }
  /// Null when base.detector.enabled is false.
  cluster::FailureDetector* detector() { return detector_.get(); }
  core::ChainScheduler& scheduler() { return *scheduler_; }
  /// Null unless started with StrategyConfig::result_cache set.
  core::ResultCache* result_cache() { return result_cache_.get(); }
  /// Null unless base.journal is set (one shared journal, records
  /// carry each tenant's chain tag).
  core::DecisionJournal* journal() { return journal_.get(); }
  /// Null unless attach_chaos() was called.
  cluster::ChaosEngine* chaos() { return chaos_.get(); }

  /// Crash and recover the coordinator (scheduler + all unfinished
  /// middlewares) now. All tenants crash first, the shared registries
  /// reset once, then every tenant replays in chain order — a lease on
  /// an entry whose owner recovers later is simply not re-adopted (the
  /// borrower recomputes; wasted work, never wrong bytes). False when
  /// no journal is attached or no chain is still running. ChaosEngine's
  /// kMasterCrash events land here.
  bool crash_master();

  /// Crash-point fuzzing: seal the journal at record `at_record`
  /// (0-based; that append and everything after it is lost) and crash
  /// the master. The crash itself is deferred through the event queue so
  /// destruction never happens re-entrantly inside the appending call.
  void arm_master_crash(std::uint64_t at_record);

  const MultiScenarioConfig& config() const { return cfg_; }
  std::uint32_t num_chains() const { return cfg_.chains; }

  core::Middleware& middleware(std::uint32_t chain) {
    return *middlewares_.at(chain);
  }
  mapred::MapOutputStore& map_outputs(std::uint32_t chain) {
    return *stores_.at(chain);
  }
  mapred::PayloadStore& payloads() { return payloads_; }
  dfs::FileId input_file(std::uint32_t chain) const {
    return inputs_.at(chain);
  }
  /// The substrate chain `chain`'s engines run on.
  mapred::Env env(std::uint32_t chain);
  /// The chain's job templates; edit them before start().
  core::ChainSpec& chain(std::uint32_t c) { return chains_.at(c); }

  /// Payload mode: checksum of one chain's final job output.
  mapred::Checksum final_output_checksum(std::uint32_t chain);
  mapred::Checksum input_checksum(std::uint32_t chain);
  dfs::FileId final_output_file(std::uint32_t chain) const;

  bool all_finished() const;

 private:
  void generate_input(std::uint32_t chain);
  /// Job-start observer of every middleware: advances the global
  /// ordinal and notifies the attached chaos engine.
  void note_job_start();
  bool corrupt_random_partition(Rng& rng);
  double weight_of(std::uint32_t chain) const;
  SimTime submit_time(std::uint32_t chain) const;
  std::uint64_t dataset_id_of(std::uint32_t chain) const;

  MultiScenarioConfig cfg_;
  sim::Simulation sim_;
  res::FlowNetwork net_;
  cluster::Cluster cluster_;
  dfs::NameNode dfs_;
  std::vector<std::unique_ptr<mapred::MapOutputStore>> stores_;
  mapred::PayloadStore payloads_;
  // Declared after every audited subsystem (hooks die first), before
  // the scheduler and middlewares (which emit through it).
  obs::Observability obs_;
  std::unique_ptr<obs::Auditor> auditor_;
  /// Constructed (when enabled) before the scheduler and middlewares so
  /// its cluster handlers run first: suspicion state is settled before
  /// slot books and engines react to a failure.
  std::unique_ptr<cluster::FailureDetector> detector_;
  Rng rng_;

  ChainMapper mapper_;
  ChainReducer reducer_;
  std::vector<core::ChainSpec> chains_;
  std::vector<dfs::FileId> inputs_;

  // Constructed before any Middleware so its cluster failure handlers
  // run first (slot forfeiture precedes engine reactions).
  std::unique_ptr<core::ChainScheduler> scheduler_;
  /// Constructed in start() when the strategy enables the result cache;
  /// declared before the middlewares that borrow through it.
  std::unique_ptr<core::ResultCache> result_cache_;
  /// One shared decision journal (base.journal); declared before the
  /// middlewares that append to it.
  std::unique_ptr<core::DecisionJournal> journal_;
  std::vector<std::unique_ptr<core::Middleware>> middlewares_;
  std::unique_ptr<cluster::ChaosEngine> chaos_;
  std::uint32_t global_ordinal_ = 0;
  /// Chains still running; the detector stops when it reaches zero.
  std::uint32_t chains_remaining_ = 0;
  std::vector<core::ChainResult> results_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace rcmp::workloads
