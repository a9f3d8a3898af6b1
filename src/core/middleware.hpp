// The RCMP middleware: multi-job orchestration with recomputation-based
// failure resilience.
//
// Mirrors the paper's system design (§IV-A, Fig. 3): the user submits a
// multi-job computation with dependencies; the middleware submits jobs
// one by one; the Master (JobRun) knows only how to run an individual
// job. On a failure that causes irreversible data loss, the middleware
// cancels the running job, infers from the dependency information and
// the current DFS ground truth which jobs must be recomputed and in
// which order, and resubmits them tagged with the damaged reducer
// outputs. Nested failures simply trigger a replan from ground truth.
//
// The same middleware also drives the comparison strategies: replication
// (Hadoop REPL-k: task-level recovery inside jobs, full restart on
// unrecoverable loss) and OPTIMISTIC (restart the chain on any loss).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/policy.hpp"
#include "core/strategy.hpp"
#include "mapred/engine.hpp"

namespace rcmp::core {

class ChainScheduler;
class DecisionJournal;
enum class JournalRecordType : std::uint8_t;
class ResultCache;

/// Sentinel dependency: read the externally generated source input.
inline constexpr std::uint32_t kSourceInput = 0xffffffffu;

/// The middleware's seat in the cluster: its ChainScheduler (required —
/// a single chain is a scheduler serving one chain) plus the shared
/// registries it may use. The scheduler's tag rule decides the chain
/// tag on trace events and the metric-name prefix.
struct TenantContext {
  ChainScheduler* scheduler = nullptr;
  std::uint32_t chain_id = 0;
  /// Shared fingerprint-keyed result cache (null = no cache; also
  /// requires StrategyConfig::result_cache to take effect).
  ResultCache* result_cache = nullptr;
  /// Identity of the source input's *content*. Chains reading
  /// byte-identical inputs must share it; 0 = unknown content, which
  /// disables caching for the chain (a fingerprint built on an unknown
  /// dataset could collide across different inputs).
  std::uint64_t dataset_id = 0;
  /// Write-ahead decision journal (core/journal.hpp). Null (the
  /// default) disables journaling and keeps runs byte-identical to
  /// journal-free builds; non-null makes the coordinator recoverable
  /// from kMasterCrash via crash_master()/recover_from_journal().
  DecisionJournal* journal = nullptr;
};

/// One job (DAG node). Dependencies name the upstream jobs whose
/// outputs are this job's inputs; each must have a smaller logical id
/// (the job list is in topological order). An empty dependency list
/// means "linear": job 0 reads the source input, job j reads job j-1.
struct JobTemplate {
  std::string name;
  std::vector<std::uint32_t> deps;
  /// Initial-granularity reducer count; 0 = one wave on the full
  /// cluster (alive nodes x reduce slots).
  std::uint32_t num_reducers = 0;
  double map_output_ratio = 1.0;
  double reduce_output_ratio = 1.0;
  const mapred::MapUdf* mapper = nullptr;
  const mapred::ReduceUdf* reducer = nullptr;
  /// Stable identity of the UDF pair for the result cache: two jobs
  /// with the same udf_id must compute the same function. 0 = opaque
  /// (the job, and everything downstream of it, is uncacheable).
  std::uint64_t udf_id = 0;
};

/// A multi-job computation: a DAG of jobs in topological order. The
/// paper evaluates a linear chain, but its design (and this middleware)
/// applies to "any big data parallel processing computation model based
/// on DAGs of tasks".
struct ChainSpec {
  std::vector<JobTemplate> jobs;
};
using DagSpec = ChainSpec;

struct ChainResult {
  /// Why an uncompleted chain gave up (kNone while completed or still
  /// running). Structured so drivers/tests can react without parsing
  /// log text.
  enum class FailReason {
    kNone,
    /// The externally generated source input lost its last replica:
    /// nothing can regenerate it.
    kSourceDataLost,
    /// Alive capacity fell below StrategyConfig::min_compute_floor (or
    /// no storage node survives).
    kCapacityFloor,
    /// StrategyConfig::max_replans recomputation replans were spent.
    kRetryBudgetExhausted,
    /// StrategyConfig::max_master_recoveries coordinator crash
    /// recoveries were spent.
    kRecoveryBudgetExhausted,
  };

  bool completed = false;
  FailReason fail_reason = FailReason::kNone;
  /// Human-readable context for fail_reason.
  std::string fail_detail;
  SimTime total_time = 0.0;
  /// Global job-start count — the paper's job numbering: recomputation
  /// runs inflate it (e.g. a failure at job 7 of a 7-job chain yields
  /// 14 started jobs under RCMP).
  std::uint32_t jobs_started = 0;
  std::uint32_t failures_observed = 0;
  /// Nodes that rejoined the cluster while the chain was running.
  std::uint32_t nodes_recovered = 0;
  /// Recomputation replans triggered by detected data loss.
  std::uint32_t replans = 0;
  /// Full-computation restarts (OPTIMISTIC / replication overflow).
  std::uint32_t restarts = 0;
  /// Jobs whose outputs were made replication points by the dynamic
  /// hybrid policy.
  std::uint32_t replication_points = 0;
  /// Every run, in start (ordinal) order, including cancelled ones.
  std::vector<mapred::JobResult> runs;
  /// Max bytes of DFS blocks + persisted map outputs observed at job
  /// boundaries (storage cost of persistence, §IV-C).
  Bytes peak_storage = 0;
  /// Policy engine (StrategyConfig::policy): hook decisions that
  /// overrode the static strategy, pre-replications the policy
  /// triggered, and speculation launches its cost model vetoed. All
  /// zero under the default static shim.
  std::uint32_t policy_decisions = 0;
  std::uint32_t policy_pre_replications = 0;
  std::uint32_t policy_speculation_gated = 0;
  /// Result cache (TenantContext::result_cache): chain positions whose
  /// output was borrowed from the shared cache instead of computed, and
  /// completed outputs this chain published for other tenants.
  std::uint32_t cache_hits = 0;
  std::uint32_t cache_published = 0;
  /// Coordinator crashes this chain survived via journal replay.
  std::uint32_t master_crashes = 0;
};

class Middleware {
 public:
  /// `env.slots` must be `tenant.scheduler`'s broker for
  /// `tenant.chain_id`.
  Middleware(mapred::Env env, ChainSpec chain, dfs::FileId source_input,
             StrategyConfig strategy, mapred::EngineConfig engine_cfg,
             std::uint64_t seed, TenantContext tenant);
  Middleware(const Middleware&) = delete;
  Middleware& operator=(const Middleware&) = delete;

  /// Register a job-start observer (ordinal is 1-based, in start order);
  /// the scenario's chaos engine hooks in here.
  void on_job_start(std::function<void(std::uint32_t)> cb) {
    start_observers_.push_back(std::move(cb));
  }

  /// Plan the chain and submit the first job through the same resume
  /// path a replan takes (a source input that already lost its last
  /// replica fails the chain with kSourceDataLost); the caller then
  /// drives env.sim.run(). The completion callback fires once, when the
  /// chain completes or gives up.
  void run(std::function<void(const ChainResult&)> on_complete);

  bool finished() const { return chain_done_; }
  /// The job the scheduler's kick forwards to; nullptr before the first.
  mapred::JobRun* current_run() { return current_; }
  const ChainResult& result() const { return result_; }

  dfs::FileId output_file(std::uint32_t logical) const {
    return files_.at(logical);
  }
  std::uint32_t attempts(std::uint32_t logical) const {
    return attempt_count_.at(logical);
  }

  /// Some completed job's output has partitions with no surviving copy.
  /// Public so multi-tenant tests can snapshot per-chain damage at the
  /// instant a failure lands (the blast-radius assertion).
  bool has_unresolved_damage() const;

  /// Master crash: destroy every piece of in-flight coordinator state —
  /// the running job is cancelled (its slots return to the scheduler),
  /// the submission queue, completion/borrow/publication beliefs,
  /// policy overrides and the dynamic-hybrid timers are wiped. The
  /// surviving cluster ledger (DFS, map-output stores, payloads) and
  /// the journal itself are untouched; the global start-ordinal counter
  /// and the per-job attempt counters survive too (fault-schedule
  /// ordinals stay meaningful and split salts stay fresh — a real
  /// master derives both from its journal). Returns false when there is
  /// nothing to crash: no journal attached, the chain already finished,
  /// or it was never admitted. Call recover_from_journal() afterwards —
  /// the MultiScenario orchestrates crash -> shared-registry reset ->
  /// recovery for all tenants.
  bool crash_master();

  /// Rebuild coordinator state by replaying the journal against the
  /// surviving cluster ledger: journaled commits are adopted only when
  /// the DFS still fully backs them (verified by the auditor's
  /// journal-replay check), journaled cache publications are
  /// re-registered when their file survives, journaled leases are
  /// re-proven against the rebuilt registry, journaled quarantines are
  /// re-applied to the reset detector — then the chain resumes from the
  /// deepest verified prefix through the ordinary planner (without
  /// spending a replan). No-op when the chain finished or no journal is
  /// attached.
  void recover_from_journal();

 private:
  void on_failure(const cluster::FailureEvent& ev);
  void on_recover(cluster::NodeId n);
  void handle_detection(cluster::NodeId n);
  /// Give up when surviving capacity cannot run the chain; true when
  /// the floor was breached and the chain was failed.
  bool enforce_capacity_floor();
  void submit_next();
  void on_run_done(mapred::JobRun& run);
  void replan();
  /// DFS ground truth for the planner: which jobs completed, and which
  /// partitions of their (unreclaimed) outputs have no surviving copy.
  std::vector<PlannerJobState> ground_truth() const;
  /// The plan for `states`, cut at the deepest usable result-cache entry
  /// when the cache is on.
  std::vector<PlannedSubmission> plan(
      const std::vector<PlannerJobState>& states);
  /// The one way a chain (re)starts — admission, replan and journal
  /// recovery: check that every input the submissions read can be had
  /// (else fall back to a full restart), then queue them, pin the
  /// recompute frontier and submit the first.
  void resume(std::vector<PlannedSubmission> submissions);
  void wipe_and_restart();
  /// Empty job `logical`'s output file for a rerun (clear its
  /// partitions; a deleted file is recreated when `recreate` is set) and
  /// drop its persisted map outputs.
  void reset_output(std::uint32_t logical, bool recreate);
  void reclaim_storage(std::uint32_t replication_point);
  void sample_storage();
  /// Mirror ChainResult into the metrics registry (chain completion).
  void publish_metrics();
  /// Dynamic hybrid: is it time for the next replication point
  /// (Young's optimal checkpoint interval)?
  bool should_replicate_now() const;
  /// Three-way hybrid (memory tier on): is it time for the next disk
  /// persistence point? Same Young's interval shape as replication,
  /// with the (cheaper) disk-checkpoint cost.
  bool should_persist_disk_now() const;
  /// Pin the queued recompute submissions and the live job against
  /// storage eviction: evicting those persisted map outputs would
  /// delete the copies an in-flight replan counts on, or outputs the
  /// live job's reducers are still shuffling.
  void update_pinned_jobs();
  /// Memory-tier bytes demoted to disk on node `n` (spill hook).
  void note_spill(cluster::NodeId n, Bytes bytes);
  std::uint32_t split_factor_now() const;
  /// Snapshot for a policy hook (policy_ is non-null when called).
  PolicyContext policy_context(std::uint32_t next_logical,
                               bool recompute) const;
  /// Fold a hook's decision into the pending overrides; count and trace
  /// it when it actually overrides something.
  void apply_policy_decision(const PolicyDecision& d, PolicyHook hook,
                             std::uint32_t job);
  /// Consume a pending replicate-now for this submission (budget-checked
  /// by the auditor through the observability hook).
  void apply_policy_replication(const PlannedSubmission& sub);
  std::uint32_t file_replication(std::uint32_t logical) const;
  /// A fresh DFS file for job `logical`'s output, owned by this chain.
  dfs::FileId create_output_file(std::uint32_t logical);
  /// Result cache (all no-ops when cache_enabled() is false, keeping
  /// cache-off runs bit-identical to pre-cache builds).
  bool cache_enabled() const;
  /// Precompute the chained structural fingerprint of every cacheable
  /// position (0 = uncacheable: unknown dataset, opaque UDF, or a
  /// non-linear position — and everything downstream of one).
  void compute_fingerprints();
  /// Planner probe: on a usable cache entry for position `logical`,
  /// borrow it (substitute the cached file for the job's output, lease
  /// the entry, trace the hit, hand the auditor its differential
  /// cross-check) and report true so the planner cuts the plan there.
  bool probe_and_borrow(std::uint32_t logical);
  /// Undo a borrow: point the position back at this chain's own (still
  /// empty or stale) file and release the lease. The position reverts
  /// to not-completed so the next plan recomputes it.
  void revert_borrow(std::uint32_t logical);
  /// Replan-time ground-truth check: every borrowed entry must still be
  /// durable and legal; reverted otherwise.
  void revalidate_borrows();
  /// Publish a completed initial output to the shared cache when the
  /// position is cacheable and admission (config default or policy
  /// override) allows it.
  void maybe_publish(std::uint32_t logical);
  /// Resolved dependency list of a job (explicit deps, or the implicit
  /// linear predecessor / source input).
  std::vector<std::uint32_t> deps_of(std::uint32_t logical) const;
  /// DFS files a job reads (source input and/or upstream outputs).
  std::vector<dfs::FileId> input_files(std::uint32_t logical) const;
  bool input_available(std::uint32_t logical) const;
  void finish_chain();
  /// Unrecoverable situation: record the structured reason and stop.
  void fail_chain(ChainResult::FailReason reason, std::string detail);
  /// Append one decision record (no-op without a journal; a sealed
  /// journal drops the append — the crash-point model's lost write).
  void journal_append(JournalRecordType type, std::uint32_t a,
                      std::uint32_t b, std::uint64_t c);

  /// The chain tag carried on every trace event this middleware (and its
  /// engine) emits, from the scheduler's tag rule.
  std::uint16_t chain_tag() const { return env_.chain_tag; }

  mapred::Env env_;
  ChainSpec chain_;
  dfs::FileId source_input_;
  StrategyConfig strategy_;
  /// Pristine copy of the strategy as configured: a recovered master
  /// reloads its config, so crash_master() resets strategy_ (which
  /// policy decisions may have mutated) from this.
  StrategyConfig strategy_boot_;
  mapred::EngineConfig engine_cfg_;
  Rng rng_;
  TenantContext tenant_;
  /// Metric-name prefix from the scheduler's tag rule: "" for a lone
  /// chain, "t<chain>." among several.
  std::string tag_;

  /// Per-chain clone of StrategyConfig::policy; null when no policy (or
  /// the inert static shim) is attached — every policy call site checks
  /// this first, so the static path stays bit-identical to pre-policy
  /// builds.
  std::unique_ptr<IPolicy> policy_;
  // Pending policy overrides (kPolicyKeep / -1 / 0 = keep static).
  std::uint32_t policy_split_override_ = 0;
  bool policy_replicate_next_ = false;
  std::uint32_t policy_replication_ = 2;
  std::int8_t policy_tier_ = -1;
  std::int8_t policy_speculate_ = -1;
  std::uint32_t policy_max_attempts_ = kPolicyKeep;
  double policy_backoff_base_ = -1.0;
  std::int8_t policy_cache_admit_ = -1;
  // What the retry/speculation seams report against (the running job).
  std::uint32_t current_logical_ = 0;
  bool current_recompute_ = false;

  std::vector<dfs::FileId> files_;          // output file per logical job
  std::vector<bool> completed_once_;
  std::vector<std::uint32_t> attempt_count_;
  std::uint32_t reclaimed_below_ = 0;  // files with id < this are deleted

  // Result-cache bookkeeping (all empty/false when cache_enabled() is
  // false). files_[l] aliases another chain's file while borrowed_[l];
  // own_files_[l] keeps this chain's original file for reverts.
  std::vector<std::uint64_t> fps_;   // structural fingerprint, 0 = none
  std::vector<dfs::FileId> own_files_;
  std::vector<bool> borrowed_;
  std::vector<bool> published_;

  // Dynamic hybrid bookkeeping.
  double time_since_repl_point_ = 0.0;
  /// Chain time since the last disk-durable output (three-way hybrid;
  /// maintained only when the memory tier is on).
  double time_since_disk_point_ = 0.0;
  double job_time_sum_ = 0.0;
  std::uint32_t job_time_count_ = 0;

  std::deque<PlannedSubmission> queue_;
  std::vector<std::unique_ptr<mapred::JobRun>> runs_;
  mapred::JobRun* current_ = nullptr;
  std::uint32_t next_ordinal_ = 1;
  bool chain_done_ = false;

  ChainResult result_;
  std::function<void(const ChainResult&)> on_complete_;
  std::vector<std::function<void(std::uint32_t)>> start_observers_;
};

}  // namespace rcmp::core
