// Pluggable resilience policies: the runtime-adaptive layer above the
// static StrategyConfig.
//
// The paper fixes its resilience choices (RCMP vs. replication, split
// factor, persist points) at chain-submission time. The policy engine
// keeps that static configuration as the baseline and lets an IPolicy
// override individual knobs while the chain runs, from decision hooks
// the middleware invokes at chain admission, every job boundary, every
// failure/replan, and every task-attempt charge. Each hook sees a
// PolicyContext — chain progress, cluster capacity, live detector
// statistics, and the storage-budget state — and returns a
// PolicyDecision whose fields default to "keep the static value", so a
// policy only pays for what it overrides.
//
// Built-ins:
//  - StaticPolicy: inert shim over the enum-driven StrategyConfig. The
//    middleware skips every hook for it, so runs are bit-identical to
//    passing no policy at all (pinned by tests).
//  - OraclePolicy: sees the chaos schedule's fault ordinals ahead of
//    time and pre-replicates the output written just before each one —
//    the upper bound adaptive policies chase on a backtest scoreboard.
//  - AtlasAdaptivePolicy: failure-likelihood score from observed
//    failures, suspicions, quarantines and heartbeat jitter (ATLAS:
//    an adaptive failure-aware scheduler for Hadoop). Pre-replicates at
//    the boundary entering a predicted-bad window, tightens the task
//    retry budget inside one, and relaxes it again after clean windows.
//  - BinocularSpeculationPolicy: cost-model-gated reducer speculation
//    (Binocular speculation: watch both the straggler's expected
//    remaining time and the duplicate's expected cost, race only when
//    the save covers the spend). Subsumes the raw speculative_reducers
//    flag.
//
// Policies are carried as a prototype on StrategyConfig::policy; every
// Middleware clones its own instance, so per-chain adaptive state never
// leaks across chains of a multi-tenant run or across reruns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/strategy.hpp"
#include "mapred/job.hpp"

namespace rcmp::core {

/// Sentinel for PolicyDecision's unsigned knobs: keep the static value.
inline constexpr std::uint32_t kPolicyKeep = 0xffffffffu;

/// Which middleware decision point invoked the policy. Stamped into the
/// kind field of kPolicyDecision trace events.
enum class PolicyHook : std::uint8_t {
  kChainAdmission = 0,
  kJobBoundary = 1,
  kFailure = 2,
  kTaskRetry = 3,
};

const char* policy_hook_name(PolicyHook h);

/// Everything a hook may consult. Detector fields are zero when no
/// FailureDetector is attached.
struct PolicyContext {
  SimTime now = 0.0;

  // Chain progress.
  std::uint32_t jobs_total = 0;
  std::uint32_t jobs_completed = 0;  // logical jobs completed at least once
  std::uint32_t next_logical = 0;    // job about to submit (hook-dependent)
  bool recompute = false;            // that submission is a recomputation
  std::uint32_t jobs_started = 0;    // ordinals spent so far
  std::uint32_t replans = 0;
  std::uint32_t restarts = 0;
  std::uint32_t failures_observed = 0;
  /// Mean fault-free job duration observed so far; 0 before the first
  /// completed initial run.
  double avg_job_time = 0.0;

  // Cluster and scheduler.
  std::uint32_t alive_compute = 0;
  std::uint32_t cluster_size = 0;
  /// Chains the ChainScheduler has admitted (1 for a single chain).
  std::uint32_t active_chains = 0;

  // Detector statistics (detector.* metrics feed).
  bool detector_attached = false;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t heartbeats_dropped = 0;
  std::uint32_t suspicions = 0;
  std::uint32_t false_suspicions = 0;
  std::uint32_t reconciliations = 0;
  std::uint32_t quarantines = 0;
  /// Highest per-node failed-attempt count (ATLAS attempt history).
  std::uint32_t worst_node_task_failures = 0;

  // Storage-budget state (the scheduler's budget and ground truth).
  Bytes storage_used = 0;
  Bytes storage_budget = 0;  // 0 = unlimited

  /// Budget legality of adding persisted state right now. Policies must
  /// consult this before asking for a pre-replication — the auditor
  /// cross-checks every one against the same rule.
  bool storage_headroom() const {
    return storage_budget == 0 || storage_used <= storage_budget;
  }
};

/// What a hook may override. Defaults mean "keep the static strategy's
/// value"; the middleware treats an all-default decision as a no-op
/// (no counter, no trace event).
struct PolicyDecision {
  /// Switch the resilience mode (a core::Strategy value); -1 keeps it.
  std::int8_t mode = -1;
  /// Reducer split factor for subsequent recomputation runs; kPolicyKeep
  /// keeps the strategy's split_factor / auto rule.
  std::uint32_t split_factor = kPolicyKeep;
  /// Make the next submission's output a replication point now.
  bool replicate_now = false;
  /// Replicas at that point; kPolicyKeep uses the built-in default (2).
  std::uint32_t replication = kPolicyKeep;
  /// Storage tier for a replicate-now point (cluster::StorageTier
  /// values): -1 keeps the default durable disk replicas; kMemory (1)
  /// turns the point into a memory-tier persistence point instead — no
  /// extra replicas, written and reread at RAM speed, but lost with the
  /// writer's process. Ignored when the cluster has no RAM tier.
  std::int8_t tier = -1;
  /// Reducer speculation aggressiveness: -1 keep, 0 force off, 1 on.
  std::int8_t speculate_reducers = -1;
  /// Per-task attempt budget for subsequent charges (0 = unlimited);
  /// kPolicyKeep keeps EngineConfig::max_task_attempts.
  std::uint32_t max_task_attempts = kPolicyKeep;
  /// Base retry backoff in seconds; negative keeps the engine's.
  double retry_backoff_base = -1.0;
  /// Result-cache admission of the just-completed output: -1 keeps the
  /// cache's admit_by_default, 0 vetoes publication, 1 forces it.
  std::int8_t cache_admit = -1;

  bool overrides() const {
    return mode >= 0 || split_factor != kPolicyKeep || replicate_now ||
           tier >= 0 || speculate_reducers >= 0 ||
           max_task_attempts != kPolicyKeep || retry_backoff_base >= 0.0 ||
           cache_admit >= 0;
  }
};

class IPolicy {
 public:
  virtual ~IPolicy() = default;

  virtual const char* name() const = 0;

  /// The static shim answers true: the middleware then skips every hook
  /// and runs the exact pre-policy code path (bit-identical traces).
  virtual bool inert() const { return false; }

  /// Fresh instance with the same configuration and no accumulated
  /// state. The middleware clones the StrategyConfig prototype so
  /// chains never share adaptive state.
  virtual std::unique_ptr<IPolicy> clone() const = 0;

  virtual PolicyDecision on_chain_admission(const PolicyContext&) {
    return {};
  }
  virtual PolicyDecision on_job_boundary(const PolicyContext&) {
    return {};
  }
  virtual PolicyDecision on_failure(const PolicyContext&) { return {}; }
  virtual PolicyDecision on_task_retry(const PolicyContext&) { return {}; }

  /// Cost-model gate for one reducer-speculation launch (the engine's
  /// slowness test already passed). Default: launch.
  virtual bool allow_reduce_speculation(const PolicyContext&,
                                        const mapred::ReduceSpecCandidate&) {
    return true;
  }
};

/// Bit-identical shim over the enum-driven StrategyConfig (the default).
class StaticPolicy final : public IPolicy {
 public:
  const char* name() const override { return "static"; }
  bool inert() const override { return true; }
  std::unique_ptr<IPolicy> clone() const override {
    return std::make_unique<StaticPolicy>(*this);
  }
};

/// Future knowledge: pre-replicates the output written immediately
/// before each scheduled fault ordinal.
///
/// `fault_kinds` (cluster::FaultMode values, aligned index-by-index
/// with `fault_ordinals` before sorting) tells the oracle which faults
/// actually destroy data: benign kinds — heartbeat loss, network
/// partitions — never cost a replica, so a jitter-only schedule places
/// zero replication points. An empty kinds vector treats every ordinal
/// as destructive (the historical behavior).
class OraclePolicy final : public IPolicy {
 public:
  explicit OraclePolicy(std::vector<std::uint32_t> fault_ordinals,
                        std::uint32_t replication = 2,
                        std::vector<std::uint32_t> fault_kinds = {});
  const char* name() const override { return "oracle"; }
  std::unique_ptr<IPolicy> clone() const override {
    return std::make_unique<OraclePolicy>(*this);
  }
  PolicyDecision on_job_boundary(const PolicyContext& ctx) override;

 private:
  std::vector<std::uint32_t> fault_ordinals_;  // data-destroying; sorted, unique
  std::uint32_t replication_;
};

struct AtlasPolicyConfig {
  /// Risk score at or above which the next window counts as bad:
  /// pre-replicate on entry and tighten the retry budget.
  double risk_threshold = 1.0;
  /// Per-boundary multiplicative decay of the accumulated risk.
  double decay = 0.5;
  // Risk contributed per window by each observed signal.
  double failure_weight = 1.0;
  double suspicion_weight = 0.5;
  double quarantine_weight = 1.0;
  /// Scales the window's heartbeat drop *rate* (0..1) into risk.
  double jitter_weight = 4.0;
  /// Replicas written at a predicted-bad-window replication point.
  std::uint32_t replication = 2;
  /// Retry budget inside a bad window (fail fast into a replan).
  std::uint32_t bad_window_attempts = 2;
  /// Consecutive clean boundaries before retries relax.
  std::uint32_t clean_windows_to_relax = 2;
  /// Relaxed per-task attempt budget; 0 keeps the engine default.
  std::uint32_t relaxed_attempts = 6;
};

/// Per-window failure-likelihood scoring from attempt history and
/// heartbeat jitter, ATLAS-style.
class AtlasAdaptivePolicy final : public IPolicy {
 public:
  explicit AtlasAdaptivePolicy(AtlasPolicyConfig cfg = {});
  const char* name() const override { return "atlas"; }
  std::unique_ptr<IPolicy> clone() const override;
  PolicyDecision on_job_boundary(const PolicyContext& ctx) override;
  PolicyDecision on_failure(const PolicyContext& ctx) override;
  PolicyDecision on_task_retry(const PolicyContext& ctx) override;

  double risk() const { return risk_; }

 private:
  /// Risk contributed by signals observed since the previous call
  /// (consumes the deltas).
  double window_signal(const PolicyContext& ctx);
  PolicyDecision retry_stance() const;

  AtlasPolicyConfig cfg_;
  double risk_ = 0.0;
  std::uint32_t clean_windows_ = 0;
  // Cumulative counters at the last window close.
  std::uint32_t seen_failures_ = 0;
  std::uint32_t seen_suspicions_ = 0;
  std::uint32_t seen_quarantines_ = 0;
  std::uint64_t seen_hb_received_ = 0;
  std::uint64_t seen_hb_dropped_ = 0;
};

struct BinocularPolicyConfig {
  /// Race a duplicate only when the straggler's expected remaining time
  /// exceeds cost_ratio x the duplicate's expected cost (startup + one
  /// average reduce). Higher = more conservative.
  double cost_ratio = 1.0;
};

/// Cost-model-gated reducer speculation: subsumes the raw
/// EngineConfig::speculative_reducers flag.
class BinocularSpeculationPolicy final : public IPolicy {
 public:
  explicit BinocularSpeculationPolicy(BinocularPolicyConfig cfg = {});
  const char* name() const override { return "binocular"; }
  std::unique_ptr<IPolicy> clone() const override {
    return std::make_unique<BinocularSpeculationPolicy>(*this);
  }
  PolicyDecision on_chain_admission(const PolicyContext& ctx) override;
  bool allow_reduce_speculation(
      const PolicyContext& ctx,
      const mapred::ReduceSpecCandidate& cand) override;

 private:
  BinocularPolicyConfig cfg_;
};

/// Knobs for make_policy — one bag so drivers can collect flags first
/// and resolve the name last. Validated with ConfigError.
struct PolicyParams {
  AtlasPolicyConfig atlas;
  BinocularPolicyConfig binocular;
  /// Job ordinals at which faults arm (OraclePolicy's future knowledge;
  /// drivers fill it from the failure plan / chaos schedule).
  std::vector<std::uint32_t> oracle_fault_ordinals;
  /// cluster::FaultMode values aligned with oracle_fault_ordinals, so
  /// the oracle can skip benign (non-data-destroying) faults. Empty =
  /// treat every ordinal as destructive; any other size must match
  /// oracle_fault_ordinals (ConfigError otherwise).
  std::vector<std::uint32_t> oracle_fault_kinds;
  std::uint32_t replication = 2;
};

/// Registered built-in policy names, in scoreboard order.
const std::vector<std::string>& builtin_policy_names();

/// Construct a built-in policy by name ("static", "oracle", "atlas",
/// "binocular"). Throws ConfigError on an unknown name or invalid
/// params, so drivers report bad knobs like any other bad flag.
std::shared_ptr<IPolicy> make_policy(const std::string& name,
                                     const PolicyParams& params = {});

}  // namespace rcmp::core
