#include "workloads/multi_scenario.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace rcmp::workloads {

MultiScenario::MultiScenario(MultiScenarioConfig cfg)
    : cfg_(std::move(cfg)),
      net_(sim_),
      cluster_(sim_, net_, cfg_.base.cluster),
      dfs_(cluster_, cfg_.base.block_size, cfg_.base.seed ^ 0xdf5dULL),
      rng_(cfg_.base.seed) {
  RCMP_CHECK_MSG(cfg_.chains > 0, "need at least one chain");
  RCMP_CHECK_MSG(cfg_.weights.empty() || cfg_.weights.size() == cfg_.chains,
                 "weights must be empty or one per chain");
  RCMP_CHECK_MSG(
      cfg_.submit_at.empty() || cfg_.submit_at.size() == cfg_.chains,
      "submit_at must be empty or one per chain");
  RCMP_CHECK_MSG(
      cfg_.dataset_ids.empty() || cfg_.dataset_ids.size() == cfg_.chains,
      "dataset_ids must be empty or one per chain");
  RCMP_CHECK_MSG(cfg_.base.dataset_id == 0 || cfg_.chains == 1 ||
                     !cfg_.dataset_ids.empty(),
                 "base.dataset_id labels a single chain's input; give "
                 "several chains dataset_ids");

  if (cfg_.base.trace_capacity > 0) {
    obs_.tracer.enable(cfg_.base.trace_capacity);
  }
  cluster_.set_tracer(&obs_.tracer);
  if (cfg_.base.journal) {
    journal_ = std::make_unique<core::DecisionJournal>();
  }

  for (std::uint32_t c = 0; c < cfg_.chains; ++c) {
    stores_.push_back(std::make_unique<mapred::MapOutputStore>());
    // All chains share RAM namespace 1: identical persisted outputs
    // (same packed key) are held once physically and refcounted, the
    // cross-chain in-memory de-duplication of the memory tier.
    if (cluster_.ram_enabled()) stores_.back()->attach_ram(&cluster_, 1);
  }
  if (cfg_.base.audit) {
    obs::Auditor::Refs refs;
    refs.sim = &sim_;
    refs.net = &net_;
    refs.cluster = &cluster_;
    refs.dfs = &dfs_;
    for (auto& s : stores_) refs.tenant_stores.push_back(s.get());
    refs.payloads = &payloads_;
    auditor_ = std::make_unique<obs::Auditor>(refs, obs_);
  }

  if (cfg_.base.detector.enabled) {
    detector_ = std::make_unique<cluster::FailureDetector>(
        sim_, cluster_, cfg_.base.detector, &obs_);
    if (cfg_.base.detector.audit_reconcile && auditor_ != nullptr) {
      detector_->on_detection(
          [this](cluster::NodeId n, cluster::DetectionKind kind) {
            if (kind == cluster::DetectionKind::kFalseSuspicion) {
              auditor_->note_suspicion(n);
            }
          });
      detector_->on_reconcile(
          [this](cluster::NodeId n) { auditor_->check_reconcile(n); });
    }
  }

  // The scheduler's failure/recover handlers register now — before any
  // middleware's — so slot books settle first on every failure.
  scheduler_ = std::make_unique<core::ChainScheduler>(
      sim_, cluster_, dfs_, &obs_,
      core::ChainScheduler::Config{cfg_.max_concurrent,
                                   cfg_.base.storage_budget});
  if (detector_ != nullptr) scheduler_->set_detector(detector_.get());
  scheduler_->set_journal(journal_.get());

  for (std::uint32_t c = 0; c < cfg_.chains; ++c) {
    scheduler_->add_chain(weight_of(c), stores_[c].get());
    generate_input(c);

    core::ChainSpec chain;
    chain.jobs.reserve(cfg_.base.chain_length);
    for (std::uint32_t j = 0; j < cfg_.base.chain_length; ++j) {
      core::JobTemplate t;
      // A lone chain's jobs are plain "job<j>"; among several they are
      // "c<chain>.job<j>". Appended in place: GCC 12 raises a false
      // -Wrestrict on "c" + std::to_string(c).
      if (cfg_.chains > 1) {
        t.name = "c";
        t.name += std::to_string(c);
        t.name += '.';
      }
      t.name += "job";
      t.name += std::to_string(j + 1);
      t.num_reducers = cfg_.base.reducers_per_job;
      t.map_output_ratio = 1.0;
      t.reduce_output_ratio = 1.0;
      t.udf_id = kChainUdfId;
      if (cfg_.base.payload) {
        t.mapper = &mapper_;
        t.reducer = &reducer_;
      }
      chain.jobs.push_back(std::move(t));
    }
    chains_.push_back(std::move(chain));
  }
}

double MultiScenario::weight_of(std::uint32_t chain) const {
  return cfg_.weights.empty() ? 1.0 : cfg_.weights[chain];
}

SimTime MultiScenario::submit_time(std::uint32_t chain) const {
  return cfg_.submit_at.empty() ? 0.0 : cfg_.submit_at[chain];
}

std::uint64_t MultiScenario::dataset_id_of(std::uint32_t chain) const {
  return cfg_.dataset_ids.empty() ? cfg_.base.dataset_id
                                  : cfg_.dataset_ids[chain];
}

mapred::Env MultiScenario::env(std::uint32_t chain) {
  mapred::Env e{sim_, net_, cluster_, dfs_, *stores_.at(chain), payloads_,
                scheduler_->broker(chain), &obs_};
  e.detector = detector_.get();
  return e;
}

void MultiScenario::generate_input(std::uint32_t chain) {
  // "randomly generated, triple replicated, binary input data",
  // distributed evenly: one partition local to each storage node (in
  // the collocated default, every node). One input file per chain —
  // tenants do not share inputs.
  const auto& storage = cluster_.alive_storage_nodes();
  const auto nodes = static_cast<std::uint32_t>(storage.size());
  const dfs::FileId input = dfs_.create_file(
      cfg_.chains > 1 ? "input.c" + std::to_string(chain) : "input", nodes,
      cfg_.base.input_replication, chain);
  for (std::uint32_t p = 0; p < nodes; ++p) {
    const cluster::NodeId writer = storage[p];
    auto plan = dfs_.plan_write(input, writer, cfg_.base.per_node_input,
                                dfs::PlacementPolicy::kLocalFirst);
    const auto blocks = static_cast<std::uint32_t>(plan.size());
    dfs_.commit_partition(input, p, std::move(plan));
    if (cfg_.base.payload) {
      const std::uint64_t count =
          cfg_.base.per_node_input / cfg_.base.engine.record_bytes;
      std::vector<mapred::Record> records;
      records.reserve(count);
      if (cfg_.dataset_ids.empty()) {
        for (std::uint64_t r = 0; r < count; ++r) {
          records.push_back(mapred::Record{rng_(), rng_()});
        }
      } else {
        // Dataset-keyed content: chains with equal non-zero ids must
        // read byte-identical records (the cache's correctness
        // precondition), so the stream is a function of (seed, id,
        // partition) alone. Id 0 = "unknown content" — keep it distinct
        // per chain so no accidental sharing can look like a dataset.
        const std::uint64_t id = dataset_id_of(chain);
        Rng ds_rng(hash_combine(hash_combine(cfg_.base.seed, id),
                                hash_combine(id == 0 ? chain + 1 : 0, p)));
        for (std::uint64_t r = 0; r < count; ++r) {
          records.push_back(mapred::Record{ds_rng(), ds_rng()});
        }
      }
      payloads_.append(input, p, std::move(records), blocks);
    }
  }
  inputs_.push_back(input);
}

void MultiScenario::start(core::StrategyConfig strategy) {
  RCMP_CHECK_MSG(!started_,
                 "MultiScenario is one-shot; construct a fresh one");
  started_ = true;
  results_.resize(cfg_.chains);
  chains_remaining_ = cfg_.chains;
  if (detector_ != nullptr) detector_->start();

  if (strategy.result_cache) {
    result_cache_ =
        std::make_unique<core::ResultCache>(dfs_, sim_, &obs_, cfg_.cache);
    scheduler_->set_result_cache(result_cache_.get());
  }
  for (std::uint32_t c = 0; c < cfg_.chains; ++c) {
    core::TenantContext tenant{scheduler_.get(), c, result_cache_.get(),
                               dataset_id_of(c)};
    tenant.journal = journal_.get();
    middlewares_.push_back(std::make_unique<core::Middleware>(
        env(c), chains_[c], inputs_[c], strategy, cfg_.base.engine,
        rng_.fork_seed(), tenant));
    middlewares_.back()->on_job_start(
        [this](std::uint32_t) { note_job_start(); });
  }
  for (std::uint32_t c = 0; c < cfg_.chains; ++c) {
    scheduler_->submit(c, submit_time(c), [this, c] {
      middlewares_[c]->run([this, c](const core::ChainResult& r) {
        results_[c] = r;
        // Last chain decided: silence heartbeats so the sim drains.
        if (--chains_remaining_ == 0 && detector_ != nullptr) {
          detector_->stop();
        }
      });
    });
  }
}

std::vector<core::ChainResult> MultiScenario::finish() {
  RCMP_CHECK_MSG(started_ && !finished_, "finish() follows one start()");
  finished_ = true;
  sim_.run();
  RCMP_CHECK_MSG(all_finished(),
                 "simulation drained before every chain completed "
                 "(scheduler or engine deadlock)");
  // finish() runs once: hand the results (every run's task timings)
  // over rather than copy them.
  return std::move(results_);
}

std::vector<core::ChainResult> MultiScenario::run(
    core::StrategyConfig strategy) {
  start(strategy);
  return finish();
}

std::vector<core::ChainResult> MultiScenario::run_chaos(
    core::StrategyConfig strategy, cluster::FaultSchedule schedule) {
  attach_chaos(std::move(schedule));
  return run(strategy);
}

void MultiScenario::attach_chaos(cluster::FaultSchedule schedule) {
  RCMP_CHECK_MSG(chaos_ == nullptr && !finished_,
                 "attach_chaos: once, before finish()");
  // Reject master-crash events up front when no journal is attached: a
  // crashed coordinator without a write-ahead journal cannot recover.
  cluster::validate_fault_schedule(schedule, journal_ != nullptr);
  chaos_ = std::make_unique<cluster::ChaosEngine>(
      cluster_, std::move(schedule), rng_.fork_seed());
  chaos_->set_detector(detector_.get());
  chaos_->set_master_crasher([this] { return crash_master(); });
  chaos_->set_partition_corrupter(
      [this](Rng& rng) { return corrupt_random_partition(rng); });
  chaos_->set_map_output_corrupter([this](Rng& rng) {
    // Spread corruption across tenants: start at a random chain (no
    // draw when there is no choice) and take the first store that still
    // holds something corruptible.
    const auto start =
        cfg_.chains > 1 ? static_cast<std::uint32_t>(rng.below(cfg_.chains))
                        : 0u;
    for (std::uint32_t i = 0; i < cfg_.chains; ++i) {
      const std::uint32_t c = (start + i) % cfg_.chains;
      if (stores_[c]->corrupt_one(rng)) return true;
    }
    return false;
  });
}

void MultiScenario::note_job_start() {
  // Fault ordinals are global job starts across all chains: "the 5th
  // job the cluster started", whichever tenant owns it.
  ++global_ordinal_;
  if (chaos_ != nullptr) chaos_->notify_job_start(global_ordinal_);
}

bool MultiScenario::crash_master() {
  if (journal_ == nullptr || middlewares_.empty()) return false;
  // Every tenant's volatile state dies together (one coordinator
  // process hosts them all), the shared registries reset exactly once,
  // then each tenant replays in chain order. A borrower whose lease
  // targets an entry owned by a later-recovering chain simply fails
  // re-adoption and recomputes — wasted work, never wrong bytes.
  std::vector<bool> crashed(middlewares_.size(), false);
  bool any = false;
  for (std::size_t c = 0; c < middlewares_.size(); ++c) {
    crashed[c] = middlewares_[c]->crash_master();
    any = any || crashed[c];
  }
  if (!any) return false;
  if (result_cache_ != nullptr) result_cache_->master_crash_reset();
  if (detector_ != nullptr) detector_->master_crash_reset();
  for (std::size_t c = 0; c < middlewares_.size(); ++c) {
    if (crashed[c]) middlewares_[c]->recover_from_journal();
  }
  return true;
}

void MultiScenario::arm_master_crash(std::uint64_t at_record) {
  RCMP_CHECK_MSG(journal_ != nullptr,
                 "arm_master_crash needs ScenarioConfig::journal");
  journal_->arm_crash(at_record, [this] {
    // Defer through the queue: the sealing append sits somewhere inside
    // the coordinator's own call stack, and destroying that state
    // re-entrantly would be use-after-free by design.
    sim_.schedule_after(0.0, [this] { crash_master(); });
  });
}

bool MultiScenario::corrupt_random_partition(Rng& rng) {
  // Candidates: written, available partitions of every chain's
  // *intermediate* outputs. Final outputs are excluded — nothing
  // re-reads them, so read-path verification could never catch the flip
  // and the campaign's final checksum would be silently wrong.
  std::vector<std::pair<dfs::FileId, dfs::PartitionIndex>> candidates;
  for (std::uint32_t c = 0; c < cfg_.chains; ++c) {
    if (c >= middlewares_.size()) break;
    const auto njobs =
        static_cast<std::uint32_t>(chains_[c].jobs.size());
    for (std::uint32_t l = 0; l + 1 < njobs; ++l) {
      const dfs::FileId f = middlewares_[c]->output_file(l);
      if (!dfs_.file_exists(f)) continue;
      for (dfs::PartitionIndex p = 0; p < dfs_.num_partitions(f); ++p) {
        if (!dfs_.partition(f, p).written) continue;
        if (!dfs_.partition_available(f, p)) continue;
        candidates.emplace_back(f, p);
      }
    }
  }
  if (candidates.empty()) return false;
  const auto [f, p] = candidates[rng.below(candidates.size())];
  if (cfg_.base.payload && payloads_.has(f, p)) {
    return payloads_.corrupt_record(f, p);
  }
  dfs_.mark_corrupt(f, p);
  return true;
}

bool MultiScenario::all_finished() const {
  for (const auto& mw : middlewares_) {
    if (!mw->finished()) return false;
  }
  return !middlewares_.empty();
}

dfs::FileId MultiScenario::final_output_file(std::uint32_t chain) const {
  RCMP_CHECK(chain < middlewares_.size());
  return middlewares_[chain]->output_file(
      static_cast<std::uint32_t>(chains_[chain].jobs.size() - 1));
}

mapred::Checksum MultiScenario::final_output_checksum(
    std::uint32_t chain) {
  RCMP_CHECK(cfg_.base.payload);
  const dfs::FileId f = final_output_file(chain);
  return payloads_.file_checksum(f, dfs_.num_partitions(f));
}

mapred::Checksum MultiScenario::input_checksum(std::uint32_t chain) {
  RCMP_CHECK(cfg_.base.payload);
  const dfs::FileId f = inputs_.at(chain);
  return payloads_.file_checksum(f, dfs_.num_partitions(f));
}

}  // namespace rcmp::workloads
