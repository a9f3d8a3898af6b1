#include "core/middleware.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/journal.hpp"
#include "core/result_cache.hpp"
#include "core/scheduler.hpp"

namespace rcmp::core {

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kRcmpSplit:
      return "RCMP-SPLIT";
    case Strategy::kRcmpNoSplit:
      return "RCMP-NO-SPLIT";
    case Strategy::kRcmpScatter:
      return "RCMP-SCATTER";
    case Strategy::kReplication:
      return "REPL";
    case Strategy::kOptimistic:
      return "OPTIMISTIC";
  }
  return "?";
}

Middleware::Middleware(mapred::Env env, ChainSpec chain,
                       dfs::FileId source_input, StrategyConfig strategy,
                       mapred::EngineConfig engine_cfg, std::uint64_t seed,
                       TenantContext tenant)
    : env_(env),
      chain_(std::move(chain)),
      source_input_(source_input),
      strategy_(strategy),
      strategy_boot_(strategy),
      engine_cfg_(engine_cfg),
      rng_(seed),
      tenant_(tenant) {
  RCMP_CHECK_MSG(!chain_.jobs.empty(), "empty chain");
  ChainScheduler* const sched = tenant_.scheduler;
  RCMP_CHECK_MSG(
      sched != nullptr && &env_.slots == &sched->broker(tenant_.chain_id),
      "a middleware draws its slots from its ChainScheduler seat");
  // Trace events and metric names follow the scheduler's tag rule, and
  // the scheduler kicks the current run whenever capacity frees up.
  env_.chain_tag = sched->chain_tag(tenant_.chain_id);
  tag_ = sched->metric_prefix(tenant_.chain_id);
  sched->set_kick(tenant_.chain_id, [this](mapred::OpenSlots open) {
    return current_ != nullptr && current_->poke(open);
  });
  if (strategy_.policy != nullptr && !strategy_.policy->inert()) {
    // Per-chain clone: adaptive state never leaks across the chains of
    // a multi-tenant run or across reruns of one StrategyConfig. The
    // engine-side seams (retry budget, speculation gate) are installed
    // on env_ before any JobRun copies it.
    policy_ = strategy_.policy->clone();
    env_.retry_budget = [this](std::uint32_t attempts) -> std::uint32_t {
      (void)attempts;
      apply_policy_decision(
          policy_->on_task_retry(
              policy_context(current_logical_, current_recompute_)),
          PolicyHook::kTaskRetry, current_logical_);
      return policy_max_attempts_ != kPolicyKeep
                 ? policy_max_attempts_
                 : engine_cfg_.max_task_attempts;
    };
    env_.reduce_spec_gate =
        [this](const mapred::ReduceSpecCandidate& cand) {
          const bool launch = policy_->allow_reduce_speculation(
              policy_context(current_logical_, current_recompute_), cand);
          if (!launch) {
            ++result_.policy_speculation_gated;
            if (env_.obs != nullptr) {
              env_.obs->metrics.add(tag_ + "policy.speculation_gated");
            }
          }
          return launch;
        };
  }
  if (strategy_.strategy == Strategy::kReplication) {
    RCMP_CHECK_MSG(strategy_.replication >= 2,
                   "kReplication needs replication >= 2 to survive "
                   "anything; use kOptimistic for factor 1");
  }

  // Validate the DAG: dependencies must point at earlier jobs (the job
  // list is required to be in topological order).
  for (std::uint32_t l = 0; l < chain_.jobs.size(); ++l) {
    for (std::uint32_t d : chain_.jobs[l].deps) {
      if (d != kSourceInput && d >= l) {
        throw ConfigError("job " + chain_.jobs[l].name +
                          " depends on job " + std::to_string(d) +
                          " which is not upstream of it");
      }
    }
  }

  const std::uint32_t default_reducers =
      env_.cluster.alive_compute_count() *
      env_.cluster.spec().reduce_slots;
  files_.reserve(chain_.jobs.size());
  for (std::uint32_t l = 0; l < chain_.jobs.size(); ++l) {
    JobTemplate& t = chain_.jobs[l];
    if (t.num_reducers == 0) t.num_reducers = default_reducers;
    files_.push_back(create_output_file(l));
  }
  completed_once_.assign(chain_.jobs.size(), false);
  attempt_count_.assign(chain_.jobs.size(), 0);
  own_files_ = files_;
  borrowed_.assign(chain_.jobs.size(), false);
  published_.assign(chain_.jobs.size(), false);
  compute_fingerprints();

  env_.cluster.on_failure(
      [this](const cluster::FailureEvent& ev) { on_failure(ev); });
  env_.cluster.on_recover([this](cluster::NodeId n) { on_recover(n); });

  if (env_.detector != nullptr) {
    // Heartbeat detector replaces the oracle's fixed kill-to-detection
    // delay: recovery actions fire when a suspicion is *raised* (which
    // may be a false positive against a straggling or partitioned-but-
    // alive node) and unwind when the node reconciles.
    env_.detector->on_detection([this](cluster::NodeId n,
                                       cluster::DetectionKind kind) {
      if (chain_done_) return;
      if (kind == cluster::DetectionKind::kFalseSuspicion &&
          current_ != nullptr && current_->running()) {
        current_->on_suspected(n);
      }
      handle_detection(n);
    });
    env_.detector->on_reconcile([this](cluster::NodeId n) {
      if (chain_done_) return;
      if (current_ != nullptr && current_->running()) {
        current_->on_node_reconciled(n);
      }
    });
    env_.cluster.on_reachability([this](cluster::NodeId n, bool up) {
      if (chain_done_ || current_ == nullptr || !current_->running())
        return;
      if (up) {
        current_->on_source_reachable(n);
      } else {
        current_->on_source_unreachable(n);
      }
    });
  }

  if (tenant_.journal != nullptr && env_.detector != nullptr) {
    // Quarantine is a durable coordinator decision (the attempt
    // statistics behind it are not): journal it so replay re-blacklists
    // the node after a master crash.
    env_.detector->on_quarantine([this](cluster::NodeId n) {
      if (chain_done_) return;
      journal_append(JournalRecordType::kQuarantine, n, 0, 0);
    });
  }

  // Let lower layers (the engine at shuffle completion) trigger a
  // storage sample without depending on core. Under multi-tenancy every
  // middleware samples the same shared total, so the first one to
  // install the hook serves for all — clobbering would be harmless but
  // wasteful.
  if (env_.obs != nullptr && !env_.obs->storage_sample_hook) {
    env_.obs->storage_sample_hook = [this] { sample_storage(); };
  }

  // Memory-tier spill observability. Under multi-tenancy the per-chain
  // store hook is exact; the shared DFS hook is last-installer-wins
  // (the spill itself is global, only the chain tag may mis-attribute).
  if (env_.cluster.ram_enabled() && env_.obs != nullptr) {
    env_.dfs.set_spill_hook(
        [this](cluster::NodeId n, Bytes b) { note_spill(n, b); });
    env_.map_outputs.set_spill_hook(
        [this](cluster::NodeId n, Bytes b) { note_spill(n, b); });
  }
}

dfs::FileId Middleware::create_output_file(std::uint32_t logical) {
  const JobTemplate& t = chain_.jobs[logical];
  return env_.dfs.create_file("out/" + t.name, t.num_reducers,
                              file_replication(logical), tenant_.chain_id);
}

std::uint32_t Middleware::file_replication(std::uint32_t logical) const {
  if (strategy_.strategy == Strategy::kReplication)
    return strategy_.replication;
  // Hybrid (§IV-C): "replicating the output of a job if its ID modulo a
  // statically chosen value equals 0" — job IDs are 1-based.
  if (strategy_.is_rcmp() && strategy_.hybrid_every > 0 &&
      (logical + 1) % strategy_.hybrid_every == 0) {
    return strategy_.hybrid_replication;
  }
  return 1;
}

bool Middleware::cache_enabled() const {
  return tenant_.result_cache != nullptr && strategy_.result_cache;
}

void Middleware::journal_append(JournalRecordType type, std::uint32_t a,
                                std::uint32_t b, std::uint64_t c) {
  if (tenant_.journal == nullptr) return;
  tenant_.journal->append(type, chain_tag(), a, b, c, env_.sim.now());
}

void Middleware::compute_fingerprints() {
  fps_.assign(chain_.jobs.size(), 0);
  if (!cache_enabled() || tenant_.dataset_id == 0) return;
  std::uint64_t prev = 0;
  for (std::uint32_t l = 0; l < chain_.jobs.size(); ++l) {
    // Only a linear prefix of identified UDFs is cacheable: the chained
    // fingerprint needs exactly one upstream identity, and an opaque
    // (udf_id 0) or multi-input position breaks the chain for
    // everything downstream of it.
    const auto deps = deps_of(l);
    const bool linear = deps.size() == 1 &&
                        deps[0] == (l == 0 ? kSourceInput : l - 1);
    if (!linear || chain_.jobs[l].udf_id == 0) return;
    mapred::JobSpec shape;
    shape.logical_id = l;
    prev = ResultCache::fingerprint(prev, tenant_.dataset_id,
                                    chain_.jobs[l].udf_id,
                                    shape.partition_salt(),
                                    chain_.jobs[l].num_reducers, l);
    fps_[l] = prev;
  }
}

bool Middleware::probe_and_borrow(std::uint32_t logical) {
  if (fps_[logical] == 0 || borrowed_[logical]) return false;
  ResultCache& cache = *tenant_.result_cache;
  const ResultCache::Entry* e = cache.lookup(fps_[logical], chain_tag());
  if (e == nullptr) return false;
  if (e->file == files_[logical]) return false;  // our own output
  cache.lease(fps_[logical]);
  borrowed_[logical] = true;
  files_[logical] = e->file;
  completed_once_[logical] = true;
  ++result_.cache_hits;
  journal_append(JournalRecordType::kCacheLease, logical, e->file,
                 fps_[logical]);
  const Bytes bytes = env_.dfs.file_size(e->file);
  RCMP_INFO() << "t=" << env_.sim.now() << " middleware: " << tag_
              << "job " << logical
              << " satisfied from the result cache (chain "
              << e->owner_chain << ", " << bytes << " bytes)";
  if (env_.obs != nullptr) {
    env_.obs->metrics.add("cache.bytes_served",
                          static_cast<double>(bytes));
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kCacheHit, 0,
                          obs::kNoField, logical, obs::kNoField,
                          static_cast<double>(bytes), chain_tag());
    // Differential cross-check: the auditor recomputes the whole
    // satisfied prefix eagerly and compares checksums against the
    // borrowed bytes (payload mode only — it skips virtual jobs).
    obs::CacheHitCheck chc;
    chc.input_file = source_input_;
    chc.cached_file = e->file;
    chc.position = logical;
    chc.chain = chain_tag();
    bool payload_mode = true;
    for (std::uint32_t i = 0; i <= logical; ++i) {
      const JobTemplate& t = chain_.jobs[i];
      if (t.mapper == nullptr || t.reducer == nullptr) {
        payload_mode = false;
        break;
      }
      chc.mappers.push_back(t.mapper);
      chc.reducers.push_back(t.reducer);
      mapred::JobSpec shape;
      shape.logical_id = i;
      chc.udf_salts.push_back(shape.udf_salt());
    }
    if (payload_mode) env_.obs->check_cache_hit(chc);
  }
  return true;
}

void Middleware::revert_borrow(std::uint32_t logical) {
  if (!borrowed_[logical]) return;
  journal_append(JournalRecordType::kCacheRelease, logical, files_[logical],
                 fps_[logical]);
  tenant_.result_cache->release(fps_[logical]);
  borrowed_[logical] = false;
  files_[logical] = own_files_[logical];
  completed_once_[logical] = false;
  if (!env_.dfs.file_exists(files_[logical])) {
    files_[logical] = create_output_file(logical);
    own_files_[logical] = files_[logical];
  }
  RCMP_INFO() << "t=" << env_.sim.now() << " middleware: " << tag_
              << "reverted cache borrow of job " << logical;
}

void Middleware::revalidate_borrows() {
  if (!cache_enabled()) return;
  for (std::uint32_t l = 0; l < chain_.jobs.size(); ++l) {
    if (!borrowed_[l]) continue;
    if (tenant_.result_cache->validate(fps_[l], files_[l])) continue;
    // The borrowed bytes are gone, rewritten at a different granularity
    // (Fig. 5) or demoted to volatile-only: recompute the position
    // ourselves rather than consuming an illegal entry.
    revert_borrow(l);
  }
}

void Middleware::maybe_publish(std::uint32_t logical) {
  if (!cache_enabled() || fps_[logical] == 0 || borrowed_[logical]) return;
  const bool admit =
      policy_cache_admit_ >= 0
          ? policy_cache_admit_ == 1
          : tenant_.result_cache->config().admit_by_default;
  if (!admit) return;
  const bool is_final = logical + 1 == chain_.jobs.size();
  if (tenant_.result_cache->publish(fps_[logical], files_[logical],
                                    tenant_.chain_id, logical, is_final,
                                    chain_tag())) {
    published_[logical] = true;
    ++result_.cache_published;
    journal_append(JournalRecordType::kCachePublish, logical,
                   files_[logical], fps_[logical]);
  }
}

std::uint32_t Middleware::split_factor_now() const {
  if (policy_split_override_ > 0) return policy_split_override_;
  if (strategy_.strategy != Strategy::kRcmpSplit) return 1;
  if (strategy_.split_factor > 0) return strategy_.split_factor;
  // Surviving compute nodes - 1 (the paper's 8 on STIC, 59 on DCO).
  return std::max(1u, env_.cluster.alive_compute_count() - 1);
}

PolicyContext Middleware::policy_context(std::uint32_t next_logical,
                                         bool recompute) const {
  PolicyContext ctx;
  ctx.now = env_.sim.now();
  ctx.jobs_total = static_cast<std::uint32_t>(chain_.jobs.size());
  for (const bool done : completed_once_) {
    if (done) ++ctx.jobs_completed;
  }
  ctx.next_logical = next_logical;
  ctx.recompute = recompute;
  ctx.jobs_started = next_ordinal_ - 1;
  ctx.replans = result_.replans;
  ctx.restarts = result_.restarts;
  ctx.failures_observed = result_.failures_observed;
  ctx.avg_job_time =
      job_time_count_ > 0 ? job_time_sum_ / job_time_count_ : 0.0;
  ctx.alive_compute = env_.cluster.alive_compute_count();
  ctx.cluster_size = env_.cluster.size();
  ctx.active_chains = tenant_.scheduler->active_chains();
  if (env_.detector != nullptr) {
    const cluster::FailureDetector& d = *env_.detector;
    ctx.detector_attached = true;
    ctx.heartbeats_received = d.heartbeats_received();
    ctx.heartbeats_dropped = d.heartbeats_dropped();
    ctx.suspicions = d.suspicions();
    ctx.false_suspicions = d.false_suspicions();
    ctx.reconciliations = d.reconciliations();
    ctx.quarantines = d.quarantines();
    ctx.worst_node_task_failures = d.max_task_failures();
  }
  ctx.storage_used = tenant_.scheduler->storage_total();
  ctx.storage_budget = tenant_.scheduler->storage_budget();
  return ctx;
}

void Middleware::apply_policy_decision(const PolicyDecision& d,
                                       PolicyHook hook,
                                       std::uint32_t job) {
  if (!d.overrides()) return;  // keep-everything: no counter, no event
  ++result_.policy_decisions;
  if (d.mode >= 0) strategy_.strategy = static_cast<Strategy>(d.mode);
  if (d.split_factor != kPolicyKeep) {
    policy_split_override_ = d.split_factor;
  }
  if (d.replicate_now) {
    policy_replicate_next_ = true;
    policy_replication_ = d.replication != kPolicyKeep ? d.replication : 2;
  }
  if (d.tier >= 0) policy_tier_ = d.tier;
  if (d.speculate_reducers >= 0) policy_speculate_ = d.speculate_reducers;
  if (d.max_task_attempts != kPolicyKeep) {
    policy_max_attempts_ = d.max_task_attempts;
  }
  if (d.retry_backoff_base >= 0.0) {
    policy_backoff_base_ = d.retry_backoff_base;
  }
  if (d.cache_admit >= 0) policy_cache_admit_ = d.cache_admit;
  if (env_.obs != nullptr) {
    env_.obs->metrics.add(tag_ + "policy.decisions");
    env_.obs->metrics.add(tag_ + "policy.decisions." +
                          policy_hook_name(hook));
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kPolicyDecision,
                          static_cast<std::uint8_t>(hook), obs::kNoField,
                          job, obs::kNoField,
                          d.replicate_now ? 1.0 : 0.0, chain_tag());
  }
}

void Middleware::apply_policy_replication(const PlannedSubmission& sub) {
  if (!policy_replicate_next_) return;
  // Mirror the dynamic-hybrid constraints: only an initial-style run
  // whose output is not already replicated can become a point. The
  // flag stays pending across ineligible submissions (the recompute
  // runs of a replan, already-replicated outputs), so a bad-window
  // decision lands on the recompute frontier — the first initial run
  // after the failure — instead of evaporating mid-replan.
  if (sub.recompute ||
      env_.dfs.replication(files_[sub.logical_id]) != 1) {
    return;
  }
  policy_replicate_next_ = false;
  if (policy_tier_ ==
          static_cast<std::int8_t>(cluster::StorageTier::kMemory) &&
      env_.cluster.ram_enabled()) {
    // The policy asked for a memory-tier persistence point instead of
    // durable replicas: no storage cost, RAM-speed reuse, volatile.
    policy_tier_ = -1;
    env_.dfs.set_file_tier(files_[sub.logical_id],
                           cluster::StorageTier::kMemory);
    if (env_.obs != nullptr) {
      env_.obs->metrics.add(tag_ + "policy.memory_points");
      env_.obs->metrics.add("storage.tier.promotions");
      env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kPromote, 1,
                            obs::kNoField, sub.logical_id, obs::kNoField,
                            0.0, chain_tag());
    }
    RCMP_INFO() << "t=" << env_.sim.now() << " middleware: policy "
                << policy_->name()
                << " persists output of job " << sub.logical_id
                << " to the memory tier";
    return;
  }
  policy_tier_ = -1;
  const Bytes used = tenant_.scheduler->storage_total();
  env_.dfs.set_replication(files_[sub.logical_id], policy_replication_);
  ++result_.replication_points;
  ++result_.policy_pre_replications;
  journal_append(JournalRecordType::kReplicationPoint, sub.logical_id,
                 policy_replication_, 0);
  if (env_.obs != nullptr) {
    // The auditor cross-checks budget legality (and throws on an
    // over-budget decision) before the point is traced.
    env_.obs->check_policy_replication(used,
                                       tenant_.scheduler->storage_budget());
    env_.obs->metrics.add(tag_ + "policy.pre_replications");
    env_.obs->tracer.emit(env_.sim.now(),
                          obs::EventType::kReplicationPoint, 1,
                          obs::kNoField, sub.logical_id, obs::kNoField,
                          0.0, chain_tag());
  }
  RCMP_INFO() << "t=" << env_.sim.now() << " middleware: policy "
              << policy_->name() << " pre-replicates output of job "
              << sub.logical_id << " x" << policy_replication_;
}

void Middleware::run(std::function<void(const ChainResult&)> on_complete) {
  on_complete_ = std::move(on_complete);
  journal_append(JournalRecordType::kChainAdmit, 0, 0, chain_.jobs.size());
  if (policy_ != nullptr) {
    // Chain admission: run() is invoked by the scheduler's admission
    // callback, so the hook fires at true admission time.
    apply_policy_decision(
        policy_->on_chain_admission(policy_context(0, false)),
        PolicyHook::kChainAdmission, 0);
  }
  resume(plan(ground_truth()));
}

std::vector<PlannerJobState> Middleware::ground_truth() const {
  std::vector<PlannerJobState> states(chain_.jobs.size());
  for (std::uint32_t l = 0; l < chain_.jobs.size(); ++l) {
    states[l].completed_once = completed_once_[l];
    if (!completed_once_[l]) continue;
    if (!env_.dfs.file_exists(files_[l])) continue;  // reclaimed
    for (std::uint32_t p = 0; p < env_.dfs.num_partitions(files_[l]); ++p) {
      if (!env_.dfs.partition_available(files_[l], p)) {
        states[l].damaged_partitions.push_back(p);
      }
    }
  }
  return states;
}

std::vector<PlannedSubmission> Middleware::plan(
    const std::vector<PlannerJobState>& states) {
  if (!cache_enabled()) return plan_chain(states);
  return plan_chain_with_cache(states, [this](std::uint32_t j) {
           return probe_and_borrow(j);
         }).submissions;
}

void Middleware::resume(std::vector<PlannedSubmission> submissions) {
  // Feasibility: every submission's inputs must exist (they may be
  // damaged only if an earlier submission regenerates them). A lost
  // source or a reclaimed input is unrecoverable by recomputation — fall
  // back to a full restart, which fails the chain if the source is gone.
  for (const auto& s : submissions) {
    for (std::uint32_t d : deps_of(s.logical_id)) {
      if (d == kSourceInput) {
        if (!env_.dfs.file_available(source_input_)) {
          RCMP_WARN() << "middleware: source input lost — cannot recover";
          wipe_and_restart();
          return;
        }
        continue;
      }
      if (!env_.dfs.file_exists(files_[d]) || d < reclaimed_below_) {
        RCMP_WARN() << "middleware: input of job " << s.logical_id
                    << " was reclaimed — full restart";
        wipe_and_restart();
        return;
      }
    }
  }
  queue_.assign(submissions.begin(), submissions.end());
  update_pinned_jobs();
  RCMP_INFO() << "t=" << env_.sim.now() << " middleware: " << tag_
              << queue_.size() << " submission(s) queued";
  submit_next();
}

std::vector<std::uint32_t> Middleware::deps_of(std::uint32_t logical) const {
  const auto& explicit_deps = chain_.jobs[logical].deps;
  if (!explicit_deps.empty()) return explicit_deps;
  if (logical == 0) return {kSourceInput};
  return {logical - 1};
}

std::vector<dfs::FileId> Middleware::input_files(
    std::uint32_t logical) const {
  std::vector<dfs::FileId> inputs;
  for (std::uint32_t d : deps_of(logical)) {
    inputs.push_back(d == kSourceInput ? source_input_ : files_[d]);
  }
  return inputs;
}

bool Middleware::input_available(std::uint32_t logical) const {
  for (dfs::FileId input : input_files(logical)) {
    if (!env_.dfs.file_exists(input)) return false;
    if (!env_.dfs.file_available(input)) return false;
  }
  return true;
}

void Middleware::submit_next() {
  if (chain_done_) return;
  if (queue_.empty()) {
    finish_chain();
    return;
  }
  const PlannedSubmission sub = queue_.front();

  if (!input_available(sub.logical_id)) {
    // A failure damaged this job's input after the plan was made (the
    // window between a kill and its detection). Hold until the pending
    // detection replans.
    // A pending failure detection is guaranteed to exist (only a kill
    // can make an input unavailable) and will replan and resubmit.
    RCMP_INFO() << "t=" << env_.sim.now() << " middleware: holding job "
                << sub.logical_id << " — input not available";
    return;
  }
  queue_.pop_front();

  const JobTemplate& tpl = chain_.jobs[sub.logical_id];
  ++attempt_count_[sub.logical_id];
  current_logical_ = sub.logical_id;
  current_recompute_ = sub.recompute;

  if (policy_ != nullptr) {
    apply_policy_decision(
        policy_->on_job_boundary(
            policy_context(sub.logical_id, sub.recompute)),
        PolicyHook::kJobBoundary, sub.logical_id);
    apply_policy_replication(sub);
  }

  // Persistence-tier choice for this job's output. With the memory
  // tier off this is the original dynamic hybrid (§IV-C future work):
  // per job, decide whether its output becomes a replication point —
  // checkpoint-interval spacing. With StrategyConfig::memory_tier on,
  // the decision is three-way: replicate (survives node loss), persist
  // to disk (survives compute loss), or keep the output in cluster RAM
  // (cheapest — dies with the writer's process), the durable choices
  // each spaced by their own Young's interval.
  const bool tier_eligible =
      strategy_.is_rcmp() &&
      env_.dfs.replication(files_[sub.logical_id]) == 1;
  if (tier_eligible && strategy_.hybrid_dynamic && !sub.recompute &&
      should_replicate_now()) {
    env_.dfs.set_replication(files_[sub.logical_id],
                             strategy_.hybrid_replication);
    ++result_.replication_points;
    journal_append(JournalRecordType::kReplicationPoint, sub.logical_id,
                   strategy_.hybrid_replication, 0);
    if (env_.obs != nullptr) {
      env_.obs->tracer.emit(env_.sim.now(),
                            obs::EventType::kReplicationPoint, 0,
                            obs::kNoField, sub.logical_id, obs::kNoField,
                            0.0, chain_tag());
    }
    RCMP_INFO() << "t=" << env_.sim.now()
                << " middleware: dynamic hybrid replicates output of job "
                << sub.logical_id;
  } else if (tier_eligible && strategy_.memory_tier &&
             env_.cluster.ram_enabled()) {
    if (strategy_.hybrid_dynamic && !sub.recompute &&
        should_persist_disk_now()) {
      // Disk persistence point: leave the output on the disk tier; the
      // interval timer resets when the run completes (on_run_done).
      env_.dfs.set_file_tier(files_[sub.logical_id],
                             cluster::StorageTier::kDisk);
      RCMP_INFO() << "t=" << env_.sim.now()
                  << " middleware: three-way hybrid persists output of "
                     "job "
                  << sub.logical_id << " to disk";
    } else if (env_.dfs.file_tier(files_[sub.logical_id]) !=
               cluster::StorageTier::kMemory) {
      env_.dfs.set_file_tier(files_[sub.logical_id],
                             cluster::StorageTier::kMemory);
      if (env_.obs != nullptr) {
        env_.obs->metrics.add("storage.tier.promotions");
        env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kPromote, 0,
                              obs::kNoField, sub.logical_id, obs::kNoField,
                              0.0, chain_tag());
      }
    }
  }

  mapred::JobSpec spec;
  spec.name = tpl.name;
  spec.logical_id = sub.logical_id;
  spec.inputs = input_files(sub.logical_id);
  spec.output = files_[sub.logical_id];
  spec.num_reducers = tpl.num_reducers;
  spec.map_output_ratio = tpl.map_output_ratio;
  spec.reduce_output_ratio = tpl.reduce_output_ratio;
  spec.mapper = tpl.mapper;
  spec.reducer = tpl.reducer;
  spec.output_placement =
      (strategy_.strategy == Strategy::kRcmpScatter && sub.recompute)
          ? dfs::PlacementPolicy::kScatter
          : dfs::PlacementPolicy::kLocalFirst;
  if (strategy_.is_rcmp() && strategy_.memory_tier &&
      env_.cluster.ram_enabled()) {
    // Persisted map outputs live in the mapper's RAM: shuffles and
    // Fig. 5 reuse run at memory speed, spilling to disk under RAM
    // pressure and dying with the process on compute failure.
    spec.map_output_tier = cluster::StorageTier::kMemory;
  }

  mapred::RecomputeDirective dir;
  if (sub.recompute) {
    dir.active = true;
    dir.damaged_partitions = sub.damaged_partitions;
    dir.split_factor = split_factor_now();
    dir.split_salt = hash_combine(mix64(sub.logical_id),
                                  attempt_count_[sub.logical_id]);
    dir.reuse_map_outputs = strategy_.reuse_map_outputs;
    dir.enforce_fig5_rule = strategy_.enforce_fig5_rule;
  }

  const std::uint32_t ordinal = next_ordinal_++;
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kJobSubmit,
                          sub.recompute ? 1 : 0, obs::kNoField,
                          sub.logical_id, ordinal, 0.0, chain_tag());
    sample_storage();
    env_.obs->audit(obs::AuditPoint::kJobStart, tenant_.chain_id);
  }
  mapred::EngineConfig run_cfg = engine_cfg_;
  if (policy_ != nullptr) {
    if (policy_speculate_ == 1) {
      // Reducer speculation needs the periodic speculation check.
      run_cfg.speculative_execution = true;
      run_cfg.speculative_reducers = true;
    } else if (policy_speculate_ == 0) {
      run_cfg.speculative_reducers = false;
    }
    if (policy_max_attempts_ != kPolicyKeep) {
      run_cfg.max_task_attempts = policy_max_attempts_;
    }
    if (policy_backoff_base_ >= 0.0) {
      run_cfg.retry_backoff_base = policy_backoff_base_;
    }
  }
  auto run = std::make_unique<mapred::JobRun>(
      env_, std::move(spec), std::move(dir), run_cfg, ordinal,
      rng_.fork_seed(),
      [this](mapred::JobRun& r) { on_run_done(r); });
  current_ = run.get();
  runs_.push_back(std::move(run));
  update_pinned_jobs();

  for (auto& cb : start_observers_) cb(ordinal);
  current_->start();
}

void Middleware::on_run_done(mapred::JobRun& run) {
  RCMP_CHECK(&run == current_);
  current_ = nullptr;
  update_pinned_jobs();  // the finished run is no longer live
  const auto& res = run.result();

  if (res.status == mapred::JobResult::Status::kCompleted) {
    completed_once_[res.logical_id] = true;
    // Commit before publish: a prefix-truncated journal must never hold
    // a cache publication whose job-boundary commit it lacks.
    journal_append(JournalRecordType::kJobCommit, res.logical_id,
                   files_[res.logical_id], res.ordinal);
    if (!res.was_recompute) {
      job_time_sum_ += res.duration();
      ++job_time_count_;
      // Fresh full output at initial granularity: offer it to the
      // shared result cache. Recompute runs never publish — their
      // layout may be split (Fig. 5) and their fingerprint already has
      // an authoritative first writer.
      maybe_publish(res.logical_id);
    }
    const std::uint32_t repl =
        env_.dfs.file_exists(files_[res.logical_id])
            ? env_.dfs.replication(files_[res.logical_id])
            : 1;
    if (repl > 1) {
      time_since_repl_point_ = 0.0;
    } else {
      time_since_repl_point_ += res.duration();
    }
    if (strategy_.memory_tier) {
      // Disk-durability timer for the three-way decision: replicated
      // and disk-tier outputs both survive a compute failure.
      const bool disk_durable =
          repl > 1 ||
          (env_.dfs.file_exists(files_[res.logical_id]) &&
           env_.dfs.file_tier(files_[res.logical_id]) ==
               cluster::StorageTier::kDisk);
      if (disk_durable) {
        time_since_disk_point_ = 0.0;
      } else {
        time_since_disk_point_ += res.duration();
      }
    }
    sample_storage();
    tenant_.scheduler->enforce_storage(tenant_.chain_id);
    if (strategy_.is_rcmp() && strategy_.reclaim_after_replication &&
        repl > 1) {
      reclaim_storage(res.logical_id);
    }
    // Job boundary: re-sample (eviction/reclamation may have moved
    // usage) so the auditor's gauge cross-check sees current state.
    if (env_.obs != nullptr) {
      sample_storage();
      env_.obs->audit(obs::AuditPoint::kJobBoundary, tenant_.chain_id);
    }
    submit_next();
    return;
  }

  RCMP_CHECK(res.status == mapred::JobResult::Status::kAbortedDataLoss);
  replan();
}

void Middleware::on_failure(const cluster::FailureEvent& ev) {
  ++result_.failures_observed;
  // Physical effects are immediate: metadata reflects the lost replicas
  // and persisted outputs, and in-flight transfers touching the node
  // stop. The Master only *acts* after the detection timeout.
  if (ev.lost_compute && env_.cluster.ram_enabled()) {
    // The node's RAM died with its process: memory-tier blocks and map
    // outputs on it are gone (the cluster already wiped the physical
    // ledger in dispatch; reconcile the metadata here). Disk-tier state
    // survives a pure compute failure.
    const auto mem_reports = env_.dfs.on_compute_failure(ev.node);
    for (const auto& r : mem_reports) {
      RCMP_INFO() << "middleware: file " << r.file_name << " lost "
                  << r.lost_partitions.size()
                  << " memory-tier partition(s)";
    }
    env_.map_outputs.on_compute_failure(ev.node);
  }
  if (ev.lost_storage) {
    const auto reports = env_.dfs.on_node_failure(ev.node);
    for (const auto& r : reports) {
      RCMP_INFO() << "middleware: file " << r.file_name << " lost "
                  << r.lost_partitions.size() << " partition(s)";
    }
    env_.map_outputs.on_node_failure(ev.node);
  }
  if (current_ != nullptr && current_->running()) {
    if (ev.whole_node()) {
      current_->on_node_killed(ev.node);
    } else if (ev.lost_compute) {
      current_->on_compute_failed(ev.node);
    } else {
      current_->on_disk_failed(ev.node);
    }
  }
  // Oracle detection: a fixed kill-to-detection delay. With a heartbeat
  // detector attached, detection instead arrives through its
  // on_detection callback (missed-deadline suspicion or a loss report
  // riding the next heartbeat).
  if (env_.detector == nullptr) {
    const cluster::NodeId n = ev.node;
    env_.sim.schedule_after(engine_cfg_.detect_timeout,
                            [this, n] { handle_detection(n); });
  }
  // A storage failure moves usage off-ledger instantly; sample here so
  // peak_storage sees pre-detection state, then audit the books.
  if (env_.obs != nullptr) {
    sample_storage();
    env_.obs->audit(obs::AuditPoint::kFailure, tenant_.chain_id);
  }
}

void Middleware::on_recover(cluster::NodeId n) {
  ++result_.nodes_recovered;
  RCMP_INFO() << "t=" << env_.sim.now() << " middleware: node " << n
              << " rejoined (empty disk, full slots)";
  if (current_ != nullptr && current_->running()) {
    current_->on_node_recovered(n);
  }
}

bool Middleware::has_unresolved_damage() const {
  const auto states = ground_truth();
  return std::any_of(states.begin(), states.end(),
                     [](const PlannerJobState& s) {
                       return !s.damaged_partitions.empty();
                     });
}

bool Middleware::enforce_capacity_floor() {
  const std::uint32_t alive_compute = env_.cluster.alive_compute_count();
  const bool storage_gone = env_.cluster.alive_storage_nodes().empty();
  if (alive_compute >= strategy_.min_compute_floor && !storage_gone)
    return false;
  if (current_ != nullptr && current_->running()) {
    current_->cancel();
    current_ = nullptr;
  }
  std::string detail =
      storage_gone
          ? "no storage node left alive"
          : std::to_string(alive_compute) + " compute node(s) alive, floor " +
                std::to_string(strategy_.min_compute_floor);
  RCMP_WARN() << "t=" << env_.sim.now()
              << " middleware: capacity floor breached — " << detail;
  fail_chain(ChainResult::FailReason::kCapacityFloor, std::move(detail));
  return true;
}

void Middleware::handle_detection(cluster::NodeId n) {
  if (chain_done_) return;
  // A transient failure may already have healed by detection time; the
  // epoch-free check here is simply "is the node fully alive now".
  if (env_.cluster.alive(n) && !has_unresolved_damage()) {
    if (current_ == nullptr || !current_->running()) return;
  }
  RCMP_INFO() << "t=" << env_.sim.now()
              << " middleware: failure of node " << n << " detected";
  if (enforce_capacity_floor()) return;
  if (current_ != nullptr && current_->running()) {
    const auto outcome = current_->on_detected_failure(n);
    if (outcome == mapred::JobRun::FailureOutcome::kRecovered &&
        !has_unresolved_damage()) {
      // Task-level recovery sufficed and no completed job's output was
      // irreversibly lost: keep going.
      return;
    }
    // Even if the running job could limp along, data of completed jobs
    // was lost: the paper's middleware "interrupts the currently
    // running job and starts recomputation", tagging it with the
    // reducer outputs damaged by ALL failures so far.
  } else if (!has_unresolved_damage()) {
    return;  // nothing running and nothing lost (e.g. replicated data)
  }
  replan();
}

void Middleware::replan() {
  if (current_ != nullptr && current_->running()) {
    current_->cancel();  // its result stays in the graveyard for stats
    current_ = nullptr;
  }

  ++result_.replans;
  tenant_.scheduler->note_replan(tenant_.chain_id);
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kReplan,
                          obs::kKindReplan, obs::kNoField, obs::kNoField,
                          result_.replans, 0.0, chain_tag());
  }
  if (policy_ != nullptr) {
    apply_policy_decision(policy_->on_failure(policy_context(0, true)),
                          PolicyHook::kFailure, obs::kNoField);
  }
  if (strategy_.max_replans > 0 &&
      result_.replans > strategy_.max_replans) {
    std::string detail = "replan " + std::to_string(result_.replans) +
                         " exceeds budget of " +
                         std::to_string(strategy_.max_replans);
    RCMP_WARN() << "t=" << env_.sim.now()
                << " middleware: retry budget exhausted — " << detail;
    fail_chain(ChainResult::FailReason::kRetryBudgetExhausted,
               std::move(detail));
    return;
  }
  journal_append(JournalRecordType::kReplanCut, result_.replans, 0, 0);

  if (!strategy_.is_rcmp()) {
    // OPTIMISTIC discards everything and restarts from the beginning;
    // replication does the same when the loss exceeded the replication
    // factor (paper §V-B "More failures").
    wipe_and_restart();
    return;
  }

  // Borrowed cache entries must survive the replan on their own merits:
  // DFS ground truth may have killed, rewritten (Fig. 5) or demoted
  // their bytes, in which case the position reverts to this chain's own
  // file and recomputes below.
  revalidate_borrows();
  resume(plan(ground_truth()));
}

void Middleware::wipe_and_restart() {
  ++result_.restarts;
  // A restart voids every earlier journaled commit/publication: replay
  // honors the latest kRestart as a truncation point for adoption.
  journal_append(JournalRecordType::kRestart, result_.restarts, 0, 0);
  tenant_.scheduler->note_restart(tenant_.chain_id);
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kReplan,
                          obs::kKindRestart, obs::kNoField, obs::kNoField,
                          result_.restarts, 0.0, chain_tag());
  }
  for (std::uint32_t l = 0; l < chain_.jobs.size(); ++l) {
    // Never wipe another chain's file: hand borrowed entries back first
    // so the loop below only ever touches this chain's own outputs.
    if (borrowed_[l]) revert_borrow(l);
    if (published_[l]) {
      const ResultCache::Entry* e = tenant_.result_cache->find(fps_[l]);
      if (e != nullptr && e->file == files_[l] && e->leases > 0) {
        // Borrowers hold the bytes: donate the file to the cache (the
        // data is still correct — only this chain is starting over) and
        // restart into a fresh file.
        tenant_.result_cache->detach(fps_[l]);
        files_[l] = create_output_file(l);
        own_files_[l] = files_[l];
      } else {
        // No borrower: the restart reuses (and clears) the file, so the
        // cached entry dies with it.
        tenant_.result_cache->invalidate_file(
            files_[l], CacheInvalidation::kOwnerRestart, chain_tag());
      }
      published_[l] = false;
    }
    // A reclaimed file is recreated so the restart can write it again.
    reset_output(l, /*recreate=*/true);
    completed_once_[l] = false;
  }
  reclaimed_below_ = 0;
  time_since_repl_point_ = 0.0;
  if (!env_.dfs.file_available(source_input_)) {
    // Every replica of some source-input block is gone: nothing —
    // recomputation or replication — can recover this computation.
    RCMP_ERROR() << "middleware: source input lost — computation "
                    "cannot be recovered";
    fail_chain(ChainResult::FailReason::kSourceDataLost,
               "source input has partitions with no surviving replica");
    return;
  }
  const auto restart =
      plan_chain(std::vector<PlannerJobState>(chain_.jobs.size()));
  queue_.assign(restart.begin(), restart.end());
  update_pinned_jobs();  // a restart plan has no recompute frontier
  RCMP_INFO() << "t=" << env_.sim.now()
              << " middleware: full computation restart #"
              << result_.restarts;
  submit_next();
}

void Middleware::reset_output(std::uint32_t logical, bool recreate) {
  if (env_.dfs.file_exists(files_[logical])) {
    for (std::uint32_t p = 0; p < env_.dfs.num_partitions(files_[logical]);
         ++p) {
      env_.dfs.clear_partition(files_[logical], p);
      env_.payloads.clear(files_[logical], p);
    }
  } else if (recreate) {
    files_[logical] = create_output_file(logical);
    own_files_[logical] = files_[logical];
  }
  env_.map_outputs.drop_job(logical);
}

void Middleware::reclaim_storage(std::uint32_t replication_point) {
  // Everything strictly before the replication point can go: cascades
  // will never revert past a surviving replicated output (§IV-C).
  for (std::uint32_t l = 0; l < replication_point; ++l) {
    if (borrowed_[l]) {
      // Borrowed input no longer needed: hand the entry back untouched
      // (the file belongs to its owner, not to this chain's reclaim).
      journal_append(JournalRecordType::kCacheRelease, l, files_[l],
                     fps_[l]);
      tenant_.result_cache->release(fps_[l]);
      borrowed_[l] = false;
      files_[l] = own_files_[l];
    }
    if (published_[l]) {
      const ResultCache::Entry* e = tenant_.result_cache->find(fps_[l]);
      if (e != nullptr && e->file == files_[l] && e->leases > 0) {
        // Borrowers depend on the bytes: keep the file (and the entry)
        // alive instead of reclaiming it.
        env_.map_outputs.drop_job(l);
        continue;
      }
      tenant_.result_cache->invalidate_file(
          files_[l], CacheInvalidation::kFileLost, chain_tag());
      published_[l] = false;
    }
    if (env_.dfs.file_exists(files_[l])) {
      for (std::uint32_t p = 0; p < env_.dfs.num_partitions(files_[l]);
           ++p) {
        env_.payloads.clear(files_[l], p);
      }
      env_.dfs.delete_file(files_[l]);
    }
    env_.map_outputs.drop_job(l);
  }
  env_.map_outputs.drop_job(replication_point);
  reclaimed_below_ = std::max(reclaimed_below_, replication_point);
  journal_append(JournalRecordType::kReclaim, replication_point, 0, 0);
  RCMP_INFO() << "middleware: reclaimed storage below job "
              << replication_point;
}

bool Middleware::should_replicate_now() const {
  if (job_time_count_ == 0) return false;  // no cost estimate yet
  const double avg_job = job_time_sum_ / job_time_count_;
  if (!(avg_job > 0.0)) return false;  // degenerate cost estimate
  // A zero (or negative/NaN) failure rate means an infinite MTBF:
  // checkpointing never pays off. Guarding here also keeps the interval
  // math below out of 0 * inf = NaN territory, where the comparison
  // would silently answer "no" for the wrong reason.
  if (!(strategy_.node_failure_rate_per_day > 0.0)) return false;
  // Replication cost C: the extra time replicating one job's output
  // adds. Cluster MTBF from the per-node daily failure rate.
  const double c = avg_job * strategy_.hybrid_replication_overhead;
  const double mtbf_seconds =
      86400.0 / (strategy_.node_failure_rate_per_day *
                 std::max(1u, env_.cluster.alive_count()));
  const double interval = std::sqrt(2.0 * c * mtbf_seconds);
  if (!std::isfinite(interval)) return false;  // overhead 0 or overflow
  return time_since_repl_point_ + avg_job >= interval;
}

bool Middleware::should_persist_disk_now() const {
  if (job_time_count_ == 0) return false;  // no cost estimate yet
  const double avg_job = job_time_sum_ / job_time_count_;
  if (!(avg_job > 0.0)) return false;
  if (!(strategy_.node_failure_rate_per_day > 0.0)) return false;
  // Same Young's shape as should_replicate_now, with the (much cheaper)
  // disk-checkpoint cost — so disk points land more often than
  // replication points, mirroring the tier cost ordering.
  const double c = avg_job * strategy_.memory_disk_overhead;
  const double mtbf_seconds =
      86400.0 / (strategy_.node_failure_rate_per_day *
                 std::max(1u, env_.cluster.alive_count()));
  const double interval = std::sqrt(2.0 * c * mtbf_seconds);
  if (!std::isfinite(interval)) return false;
  return time_since_disk_point_ + avg_job >= interval;
}

void Middleware::update_pinned_jobs() {
  std::unordered_set<std::uint32_t> pinned;
  for (const PlannedSubmission& s : queue_) {
    if (s.recompute) pinned.insert(s.logical_id);
  }
  // The live job, initial or recompute run alike: its reducers still
  // shuffle the outputs it registered (and reused). submit_next pins it
  // before start(), so this must not wait for running().
  if (current_ != nullptr) pinned.insert(current_logical_);
  env_.map_outputs.set_pinned_jobs(std::move(pinned));
}

void Middleware::note_spill(cluster::NodeId n, Bytes bytes) {
  if (env_.obs == nullptr) return;
  env_.obs->metrics.add("storage.tier.spills");
  env_.obs->metrics.add("storage.tier.spilled_bytes",
                        static_cast<double>(bytes));
  env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kSpill, 0, n,
                        obs::kNoField, obs::kNoField,
                        static_cast<double>(bytes), chain_tag());
}

void Middleware::sample_storage() {
  // The gauge is shared across chains, so it must reflect the shared
  // ground truth (DFS + every chain's store) or the auditor's
  // cross-check would flag a stale sample.
  const Bytes used = tenant_.scheduler->storage_total();
  result_.peak_storage = std::max(result_.peak_storage, used);
  if (env_.obs != nullptr) {
    env_.obs->metrics.add("storage.samples");
    env_.obs->metrics.set_gauge("storage.current_bytes",
                                static_cast<double>(used));
    env_.obs->metrics.set_gauge(
        "storage.peak_bytes", static_cast<double>(result_.peak_storage));
    if (env_.cluster.ram_enabled()) {
      env_.obs->metrics.set_gauge(
          "storage.tier.mem_bytes",
          static_cast<double>(env_.dfs.total_mem_used() +
                              env_.map_outputs.total_mem_used()));
    }
  }
}

void Middleware::publish_metrics() {
  if (env_.obs == nullptr) return;
  auto& m = env_.obs->metrics;
  // tag_ is "" for a lone chain and "t<chain>." among several, so
  // concurrent chains never overwrite each other's gauges.
  m.set_gauge(tag_ + "chain.completed", result_.completed ? 1.0 : 0.0);
  m.set_gauge(tag_ + "chain.fail_reason",
              static_cast<double>(static_cast<int>(result_.fail_reason)));
  m.set_gauge(tag_ + "chain.total_time_seconds", result_.total_time);
  m.set_gauge(tag_ + "chain.jobs_started",
              static_cast<double>(result_.jobs_started));
  m.set_gauge(tag_ + "chain.failures_observed",
              static_cast<double>(result_.failures_observed));
  m.set_gauge(tag_ + "chain.nodes_recovered",
              static_cast<double>(result_.nodes_recovered));
  m.set_gauge(tag_ + "chain.replans",
              static_cast<double>(result_.replans));
  m.set_gauge(tag_ + "chain.restarts",
              static_cast<double>(result_.restarts));
  m.set_gauge(tag_ + "chain.replication_points",
              static_cast<double>(result_.replication_points));
  m.set_gauge(tag_ + "chain.peak_storage_bytes",
              static_cast<double>(result_.peak_storage));
  if (cache_enabled()) {
    m.set_gauge(tag_ + "chain.cache_hits",
                static_cast<double>(result_.cache_hits));
    m.set_gauge(tag_ + "chain.cache_published",
                static_cast<double>(result_.cache_published));
  }
  for (const auto& r : result_.runs) {
    m.add(tag_ + "jobs.mappers_executed", r.mappers_executed);
    m.add(tag_ + "jobs.mappers_reused", r.mappers_reused);
    m.add(tag_ + "jobs.reducers_executed", r.reducers_executed);
    m.add(tag_ + "jobs.corrupt_blocks_detected",
          r.corrupt_blocks_detected);
    m.add(tag_ + "jobs.corrupt_map_outputs_detected",
          r.corrupt_map_outputs_detected);
    m.add(tag_ + "jobs.speculative.launched", r.speculative_launched);
    m.add(tag_ + "jobs.speculative.won", r.speculative_won);
    if (r.status == mapred::JobResult::Status::kCompleted) {
      m.observe(tag_ + "jobs.duration_seconds", r.duration());
    }
  }
}

void Middleware::fail_chain(ChainResult::FailReason reason,
                            std::string detail) {
  chain_done_ = true;
  result_.completed = false;
  result_.fail_reason = reason;
  result_.fail_detail = std::move(detail);
  result_.total_time = env_.sim.now();
  result_.jobs_started = next_ordinal_ - 1;
  result_.runs.clear();
  for (const auto& run : runs_) result_.runs.push_back(run->result());
  if (cache_enabled()) {
    for (std::uint32_t l = 0; l < chain_.jobs.size(); ++l) {
      if (borrowed_[l]) tenant_.result_cache->release(fps_[l]);
    }
    tenant_.result_cache->owner_finished(tenant_.chain_id);
  }
  publish_metrics();
  if (env_.obs != nullptr) {
    sample_storage();
    env_.obs->audit(obs::AuditPoint::kFinal, tenant_.chain_id);
  }
  tenant_.scheduler->chain_done(tenant_.chain_id);
  if (on_complete_) on_complete_(result_);
}

void Middleware::finish_chain() {
  chain_done_ = true;
  result_.completed = true;
  result_.total_time = env_.sim.now();
  result_.jobs_started = next_ordinal_ - 1;
  result_.runs.clear();
  for (const auto& run : runs_) result_.runs.push_back(run->result());
  std::sort(result_.runs.begin(), result_.runs.end(),
            [](const mapred::JobResult& a, const mapred::JobResult& b) {
              return a.ordinal < b.ordinal;
            });
  RCMP_INFO() << "t=" << env_.sim.now() << " middleware: chain complete ("
              << result_.jobs_started << " jobs started, "
              << result_.failures_observed << " failures)";
  if (cache_enabled()) {
    // Leases drop (the chain consumed what it borrowed) and this
    // chain's own entries become eviction-eligible; its final output
    // stays protected by the is_final rule.
    for (std::uint32_t l = 0; l < chain_.jobs.size(); ++l) {
      if (borrowed_[l]) tenant_.result_cache->release(fps_[l]);
    }
    tenant_.result_cache->owner_finished(tenant_.chain_id);
  }
  publish_metrics();
  if (env_.obs != nullptr) {
    sample_storage();
    env_.obs->audit(obs::AuditPoint::kFinal, tenant_.chain_id);
  }
  tenant_.scheduler->chain_done(tenant_.chain_id);
  if (on_complete_) on_complete_(result_);
}

bool Middleware::crash_master() {
  if (tenant_.journal == nullptr || chain_done_) return false;
  if (!on_complete_) return false;  // never admitted: nothing in flight
  ++result_.master_crashes;
  RCMP_WARN() << "t=" << env_.sim.now() << " middleware: " << tag_
              << "MASTER CRASH — coordinator state destroyed ("
              << tenant_.journal->size() << " journal records durable)";
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kMasterCrash, 0,
                          obs::kNoField, obs::kNoField, obs::kNoField,
                          static_cast<double>(tenant_.journal->size()),
                          chain_tag());
    env_.obs->metrics.add(tag_ + "master.recovery.crashes");
  }
  // The running job dies with the master (its slots return through the
  // engine's cancellation path; the graveyard keeps its result).
  if (current_ != nullptr && current_->running()) current_->cancel();
  current_ = nullptr;
  current_logical_ = 0;
  current_recompute_ = false;
  queue_.clear();
  update_pinned_jobs();
  // Every belief is volatile: completion, borrows (the shared-registry
  // lease dies when the scenario resets the cache), publications,
  // dynamic-hybrid timers, reclamation watermark, cost estimates.
  for (std::uint32_t l = 0; l < chain_.jobs.size(); ++l) {
    completed_once_[l] = false;
    if (borrowed_[l]) {
      borrowed_[l] = false;
      files_[l] = own_files_[l];
    }
    published_[l] = false;
  }
  reclaimed_below_ = 0;
  time_since_repl_point_ = 0.0;
  time_since_disk_point_ = 0.0;
  job_time_sum_ = 0.0;
  job_time_count_ = 0;
  // A restarted master reloads its configuration: policy mutations to
  // the strategy (mode flips, learned overrides) do not survive.
  strategy_ = strategy_boot_;
  policy_split_override_ = 0;
  policy_replicate_next_ = false;
  policy_replication_ = 2;
  policy_tier_ = -1;
  policy_speculate_ = -1;
  policy_max_attempts_ = kPolicyKeep;
  policy_backoff_base_ = -1.0;
  policy_cache_admit_ = -1;
  if (policy_ != nullptr) policy_ = strategy_.policy->clone();
  // Survivors: the journal itself, the physical ledgers (DFS, map
  // outputs, payloads), next_ordinal_ (fault-schedule ordinals stay
  // meaningful), attempt_count_ (split salts stay fresh), rng_, and the
  // accumulated result_/runs_ statistics — a real master derives the
  // first two from its journal on restart.
  return true;
}

void Middleware::recover_from_journal() {
  if (tenant_.journal == nullptr || chain_done_) return;
  DecisionJournal& journal = *tenant_.journal;
  journal.unseal();

  if (strategy_.max_master_recoveries > 0 &&
      result_.master_crashes > strategy_.max_master_recoveries) {
    std::string detail =
        "master crash " + std::to_string(result_.master_crashes) +
        " exceeds recovery budget of " +
        std::to_string(strategy_.max_master_recoveries);
    RCMP_WARN() << "t=" << env_.sim.now()
                << " middleware: recovery budget exhausted — " << detail;
    fail_chain(ChainResult::FailReason::kRecoveryBudgetExhausted,
               std::move(detail));
    return;
  }

  // Sequential replay of this chain's records. Later records supersede
  // earlier ones; a kRestart voids everything journaled before it (the
  // restart wiped those outputs), mirroring what the live coordinator
  // believed at its last append.
  const std::size_t n_jobs = chain_.jobs.size();
  std::vector<bool> commit_seen(n_jobs, false);
  std::vector<dfs::FileId> commit_file(n_jobs, 0);
  std::vector<bool> publish_seen(n_jobs, false);
  std::vector<dfs::FileId> publish_file(n_jobs, 0);
  std::vector<bool> borrow_live(n_jobs, false);
  std::vector<dfs::FileId> borrow_file(n_jobs, 0);
  std::uint64_t replayed = 0;
  for (const JournalRecord& r : journal.records()) {
    if (r.chain != chain_tag()) continue;  // shared journal, other tenant
    ++replayed;
    switch (r.type) {
      case JournalRecordType::kJobCommit:
        if (r.a < n_jobs) {
          commit_seen[r.a] = true;
          commit_file[r.a] = r.b;
        }
        break;
      case JournalRecordType::kCachePublish:
        if (r.a < n_jobs) {
          publish_seen[r.a] = true;
          publish_file[r.a] = r.b;
        }
        break;
      case JournalRecordType::kCacheLease:
        if (r.a < n_jobs) {
          borrow_live[r.a] = true;
          borrow_file[r.a] = r.b;
        }
        break;
      case JournalRecordType::kCacheRelease:
        if (r.a < n_jobs) borrow_live[r.a] = false;
        break;
      case JournalRecordType::kRestart:
        std::fill(commit_seen.begin(), commit_seen.end(), false);
        std::fill(publish_seen.begin(), publish_seen.end(), false);
        std::fill(borrow_live.begin(), borrow_live.end(), false);
        reclaimed_below_ = 0;
        break;
      case JournalRecordType::kReclaim:
        reclaimed_below_ = std::max(reclaimed_below_, r.a);
        break;
      case JournalRecordType::kQuarantine:
        // The blacklisting decision is durable even though the attempt
        // statistics behind it are not.
        if (env_.detector != nullptr) {
          env_.detector->restore_quarantine(r.a);
        }
        break;
      default:
        break;  // admission / eviction / replication / replan cuts:
                // informational — ground truth supersedes them.
    }
  }

  // Adopt a journaled commit only when the surviving ledger fully backs
  // it: the chain's own file with every partition written (damage is
  // fine — the ordinary replan scan below schedules the recompute), or
  // a commit legitimately reclaimed below a replication point. A commit
  // into a file that is no longer this chain's own (pre-restart id the
  // replay failed to void) is never adopted.
  obs::JournalReplayCheck jrc;
  jrc.chain = chain_tag();
  jrc.replayed_records = replayed;
  for (std::uint32_t l = 0; l < n_jobs; ++l) {
    if (!commit_seen[l] || commit_file[l] != own_files_[l]) continue;
    if (env_.dfs.file_exists(files_[l])) {
      bool fully_written = true;
      for (std::uint32_t p = 0; p < env_.dfs.num_partitions(files_[l]);
           ++p) {
        if (!env_.dfs.partition(files_[l], p).written) {
          fully_written = false;
          break;
        }
      }
      if (!fully_written) continue;
      completed_once_[l] = true;
      jrc.positions.push_back(l);
      jrc.files.push_back(files_[l]);
    } else if (l < reclaimed_below_) {
      completed_once_[l] = true;  // reclaimed by design, not lost
    }
  }

  // Write-ahead discipline: bytes without a durable commit are garbage.
  // The dropped journal suffix may hide a run that completed (or partly
  // wrote) just before the crash; re-running such a job into a file
  // that still holds those partitions would append duplicate blocks.
  // Clear every non-adopted job's own output (and its persisted map
  // outputs) before the planner scan — wasted work, never wrong bytes.
  // No position is borrowed yet, so files_ are the chain's own; a file
  // deleted above the reclamation watermark is recreated for the plan.
  for (std::uint32_t l = 0; l < n_jobs; ++l) {
    if (!completed_once_[l]) reset_output(l, l >= reclaimed_below_);
  }

  if (cache_enabled()) {
    // Re-register journaled publications the DFS still backs (the
    // scenario reset the shared registry before recovery). The
    // journaled file id is authoritative — it may name a file this
    // chain donated to its borrowers before the crash.
    for (std::uint32_t l = 0; l < n_jobs; ++l) {
      if (!publish_seen[l] || fps_[l] == 0) continue;
      if (!env_.dfs.file_exists(publish_file[l]) ||
          !env_.dfs.file_available(publish_file[l])) {
        continue;
      }
      const bool is_final = l + 1 == n_jobs;
      if (tenant_.result_cache->publish(fps_[l], publish_file[l],
                                        tenant_.chain_id, l, is_final,
                                        chain_tag()) &&
          publish_file[l] == files_[l]) {
        published_[l] = true;
      }
    }
    // Re-prove journaled leases against the rebuilt registry. A lease
    // whose entry did not come back (its owner recovers later, or its
    // bytes died) is simply not re-adopted: the position recomputes.
    for (std::uint32_t l = 0; l < n_jobs; ++l) {
      if (!borrow_live[l] || fps_[l] == 0 || borrowed_[l]) continue;
      const ResultCache::Entry* e = tenant_.result_cache->find(fps_[l]);
      if (e == nullptr || e->file != borrow_file[l] ||
          e->file == own_files_[l] ||
          !tenant_.result_cache->validate(fps_[l], e->file)) {
        continue;
      }
      tenant_.result_cache->lease(fps_[l]);
      borrowed_[l] = true;
      files_[l] = e->file;
      completed_once_[l] = true;
    }
  }

  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kJournalReplay,
                          0, obs::kNoField, obs::kNoField, obs::kNoField,
                          static_cast<double>(replayed), chain_tag());
    env_.obs->metrics.add(tag_ + "master.recovery.replays");
    env_.obs->metrics.add(tag_ + "master.recovery.replayed_records",
                          replayed);
    // The auditor holds the replayed ledger view to a live
    // coordinator's standard (throws AuditError on an unbacked claim).
    env_.obs->check_journal_replay(jrc);
  }
  RCMP_INFO() << "t=" << env_.sim.now() << " middleware: " << tag_
              << "recovered from journal (" << replayed
              << " records replayed, " << jrc.positions.size()
              << " commits adopted)";

  // Resume from the deepest verified prefix through the ordinary
  // planner. This is deliberately NOT a replan: no replan is spent and
  // no kReplanCut is journaled — the crash was the master's fault, not
  // data loss (any real damage is picked up by the ground-truth scan
  // exactly as a replan would).
  resume(plan(ground_truth()));
}

}  // namespace rcmp::core
