#include "obs/audit.hpp"

#include <algorithm>
#include <sstream>

#include "mapred/record.hpp"

namespace rcmp::obs {

namespace {

const char* point_name(AuditPoint p) {
  switch (p) {
    case AuditPoint::kJobStart: return "job_start";
    case AuditPoint::kJobBoundary: return "job_boundary";
    case AuditPoint::kFailure: return "failure";
    case AuditPoint::kFinal: return "final";
  }
  return "unknown";
}

}  // namespace

Auditor::Auditor(const Refs& refs, Observability& obs)
    : refs_(refs),
      obs_(obs),
      finished_(refs.tenant_stores.size(), false),
      unfinished_(refs.tenant_stores.size()) {
  obs_.audit_hook = [this](AuditPoint p, std::uint32_t chain) {
    run_checks(p, chain);
  };
  obs_.violation_hook = [this](const std::string& what) {
    obs_.metrics.add("audit.violations");
    throw AuditError("invariant audit failed (reported violation):\n  - " +
                     what);
  };
  obs_.policy_replication_hook = [this](Bytes used, Bytes budget) {
    check_policy_replication(used, budget);
  };
  obs_.eviction_check_hook = [this](bool pinned, std::uint32_t job) {
    check_eviction(pinned, job);
  };
  obs_.cache_hit_hook = [this](const CacheHitCheck& chc) {
    check_cache_hit(chc);
  };
  obs_.journal_replay_hook = [this](const JournalReplayCheck& jrc) {
    check_journal_replay(jrc);
  };
  obs_.reuse_hook = [this](const ReuseCheck& rc) {
    ++reuse_checks_;
    obs_.metrics.add("audit.reuse_checks");
    if (rc.fig5_enforced &&
        rc.stored_layout_version != rc.current_layout_version) {
      std::ostringstream os;
      os << "Fig.5 reuse violation: map output (job=" << rc.logical_job
         << ", partition=" << rc.input_partition
         << ", block=" << rc.block_index << ") captured at layout version "
         << rc.stored_layout_version << " but the input partition is now at "
         << rc.current_layout_version
         << " — a split-invalidated output must never be reused or fetched";
      fail(AuditPoint::kJobBoundary, {os.str()});
    }
  };
}

void Auditor::run_checks(AuditPoint point, std::uint32_t chain) {
  RCMP_CHECK_MSG(chain < refs_.tenant_stores.size(),
                 "audit point of unknown chain " << chain);
  // A failure can move any chain's books, and the last final point ends
  // the run: the first point of a failure event and the end of the run
  // recount everything. Other points, the later points of one failure
  // event included, recount the books of the chain that reached them.
  const bool everything =
      (point == AuditPoint::kFailure && note_failure_point()) ||
      (point == AuditPoint::kFinal && note_final(chain));
  std::vector<std::string> violations;
  check_event_queue(&violations);
  check_storage(everything ? kEveryChain : chain, &violations);
  if (refs_.net != nullptr) {
    for (std::string& v : refs_.net->audit()) {
      violations.push_back(std::move(v));
    }
  }
  if (!violations.empty()) fail(point, violations);
  ++checks_run_;
  obs_.metrics.add("audit.checks");
}

void Auditor::check_event_queue(std::vector<std::string>* violations) {
  if (refs_.sim == nullptr) return;
  const sim::Simulation& sim = *refs_.sim;
  // Conservation: every scheduled event is processed, cancelled, or
  // still pending — nothing leaks, nothing fires twice.
  const std::uint64_t accounted = sim.events_processed() +
                                  sim.events_cancelled() +
                                  sim.events_pending();
  if (sim.events_scheduled() != accounted) {
    std::ostringstream os;
    os << "event-queue conservation broken: scheduled="
       << sim.events_scheduled() << " != processed="
       << sim.events_processed() << " + cancelled="
       << sim.events_cancelled() << " + pending=" << sim.events_pending();
    violations->push_back(os.str());
  }
  // Monotonicity: the clock never runs backwards, and no pending event
  // sits in the past.
  if (sim.now() < last_audit_now_) {
    std::ostringstream os;
    os << "simulated clock ran backwards: now=" << sim.now()
       << " < previously audited " << last_audit_now_;
    violations->push_back(os.str());
  }
  if (sim.next_event_time() < sim.now()) {
    std::ostringstream os;
    os << "pending event in the past: next=" << sim.next_event_time()
       << " < now=" << sim.now();
    violations->push_back(os.str());
  }
  last_audit_now_ = sim.now();
}

bool Auditor::note_failure_point() {
  if (refs_.cluster == nullptr) return true;
  const std::uint64_t event = refs_.cluster->failure_events();
  if (event == recounted_failure_event_) return false;
  recounted_failure_event_ = event;
  return true;
}

bool Auditor::note_final(std::uint32_t chain) {
  if (!finished_[chain]) {
    finished_[chain] = true;
    --unfinished_;
  }
  return unfinished_ == 0;
}

void Auditor::check_storage(std::uint32_t chain,
                            std::vector<std::string>* violations) {
  if (refs_.dfs != nullptr) {
    std::uint64_t visited = 0;
    for (std::string& v : refs_.dfs->audit_ledger(chain, &visited)) {
      violations->push_back(std::move(v));
    }
    obs_.metrics.add("audit.dfs_blocks_recounted", visited);
  }
  const bool everything = chain == kEveryChain;
  const std::size_t first = everything ? 0 : chain;
  const std::size_t last = everything ? refs_.tenant_stores.size() : chain + 1;
  std::uint64_t recounted = 0;
  for (std::size_t c = first; c < last; ++c) {
    const mapred::MapOutputStore* store = refs_.tenant_stores[c];
    if (store == nullptr) continue;
    for (std::string& v : store->audit_ledger()) {
      violations->push_back(std::move(v));
    }
    ++recounted;
  }
  obs_.metrics.add("audit.store_recounts", recounted);
  // Cross-check the middleware's storage sampling: the middleware
  // samples immediately before every audit point, so the current-use
  // gauge must equal the ground truth and the peak must dominate it.
  const double* current = obs_.metrics.find_gauge("storage.current_bytes");
  if (current != nullptr && refs_.dfs != nullptr &&
      !refs_.tenant_stores.empty()) {
    Bytes outputs = 0;
    for (mapred::MapOutputStore* store : refs_.tenant_stores) {
      if (store != nullptr) outputs += store->total_used();
    }
    const double truth = static_cast<double>(refs_.dfs->total_used()) +
                         static_cast<double>(outputs);
    if (*current != truth) {
      std::ostringstream os;
      os << "storage sample out of date: sampled gauge=" << *current
         << " != live DFS blocks + persisted map outputs=" << truth;
      violations->push_back(os.str());
    }
    const double* peak = obs_.metrics.find_gauge("storage.peak_bytes");
    if (peak != nullptr && *peak < *current) {
      std::ostringstream os;
      os << "peak-storage accounting broken: peak=" << *peak
         << " < current sample=" << *current;
      violations->push_back(os.str());
    }
  }
  // Memory-tier cross-check: the cluster's physical RAM ledger against
  // the consumers' logical mirrors. De-dup means physical <= logical
  // (shared bytes are held once); physical above the logical sum, or
  // above capacity, is a missed discharge / overcommit.
  if (refs_.cluster != nullptr && refs_.cluster->ram_enabled()) {
    for (cluster::NodeId n = 0; n < refs_.cluster->size(); ++n) {
      const Bytes physical = refs_.cluster->ram_used(n);
      Bytes logical = 0;
      if (refs_.dfs != nullptr) logical += refs_.dfs->mem_used_on_node(n);
      for (mapred::MapOutputStore* store : refs_.tenant_stores) {
        if (store != nullptr) logical += store->mem_used_on_node(n);
      }
      if (physical > logical) {
        std::ostringstream os;
        os << "RAM ledger drifted on node " << n << ": physical="
           << physical << " B exceeds the consumers' logical sum="
           << logical << " B (missed discharge)";
        violations->push_back(os.str());
      }
      if (physical > refs_.cluster->ram_capacity()) {
        std::ostringstream os;
        os << "RAM overcommitted on node " << n << ": " << physical
           << " B resident over the " << refs_.cluster->ram_capacity()
           << "-byte capacity";
        violations->push_back(os.str());
      }
    }
  }
}

std::string Auditor::ledger_digest(cluster::NodeId n) const {
  std::ostringstream os;
  if (refs_.dfs != nullptr) {
    os << "dfs=" << refs_.dfs->used_on_node(n) << ",mem="
       << refs_.dfs->mem_used_on_node(n);
  }
  for (const mapred::MapOutputStore* store : refs_.tenant_stores) {
    if (store == nullptr) continue;
    os << ";out=" << store->used_on_node(n) << ",mem="
       << store->mem_used_on_node(n);
  }
  return os.str();
}

void Auditor::note_suspicion(cluster::NodeId n) {
  suspicion_digests_[n] = ledger_digest(n);
}

void Auditor::check_reconcile(cluster::NodeId n) {
  const auto it = suspicion_digests_.find(n);
  if (it == suspicion_digests_.end()) return;
  const std::string before = std::move(it->second);
  suspicion_digests_.erase(it);
  const std::string after = ledger_digest(n);
  if (before != after) {
    std::ostringstream os;
    os << "reconciled false suspicion of node " << n
       << " drifted the suspect's storage ledgers: at suspicion {"
       << before << "} but after reconcile {" << after
       << "} — its persisted data was not re-admitted intact";
    fail(AuditPoint::kFailure, {os.str()});
  }
  ++reconcile_checks_;
  obs_.metrics.add("audit.reconcile_checks");
}

void Auditor::check_eviction(bool pinned, std::uint32_t logical_job) {
  ++eviction_checks_;
  obs_.metrics.add("audit.eviction_checks");
  if (pinned) {
    std::ostringstream os;
    os << "storage eviction chose job " << logical_job
       << " whose outputs sit on the live recompute frontier of an "
          "in-flight replan — deleting the sole surviving copy the "
          "replan counts on";
    fail(AuditPoint::kJobBoundary, {os.str()});
  }
}

void Auditor::check_cache_hit(const CacheHitCheck& chc) {
  if (refs_.payloads == nullptr || refs_.dfs == nullptr) return;
  const mapred::PayloadStore& payloads = *refs_.payloads;
  if (!payloads.file_has_payload(chc.input_file)) return;  // virtual mode
  // Eager differential oracle, entirely outside the simulator: the
  // borrower's own UDF prefix over its source input must give exactly
  // the record multiset the cached bytes carry.
  hit_source_.clear();
  for (std::uint32_t p = 0; p < refs_.dfs->num_partitions(chc.input_file);
       ++p) {
    const auto span = payloads.partition_records(chc.input_file, p);
    hit_source_.insert(hit_source_.end(), span.begin(), span.end());
  }
  const mapred::Checksum expected = expected_prefix_checksum(chc, hit_source_);
  const mapred::Checksum cached = payloads.file_checksum(
      chc.cached_file, refs_.dfs->num_partitions(chc.cached_file));
  if (!(expected == cached)) {
    std::ostringstream os;
    os << "result-cache hit served wrong bytes: chain "
       << static_cast<int>(chc.chain) << " borrowed file "
       << chc.cached_file << " for position " << chc.position
       << " but the eagerly recomputed prefix disagrees (expected {md5="
       << expected.md5_acc << ", sum=" << expected.sum_acc
       << ", keys=" << expected.key_acc << ", n=" << expected.count
       << "} got {md5=" << cached.md5_acc << ", sum=" << cached.sum_acc
       << ", keys=" << cached.key_acc << ", n=" << cached.count << "})";
    fail(AuditPoint::kJobStart, {os.str()});
  }
  ++cache_hit_checks_;
  obs_.metrics.add("audit.cache_hit_checks");
}

mapred::Checksum Auditor::expected_prefix_checksum(
    const CacheHitCheck& chc, std::span<const mapred::Record> source) {
  // A prefix's replay depends on nothing but the source records, the
  // UDFs and their salts, so one replay per distinct pair serves every
  // later hit on it. Sources match element by element, never by a hash.
  auto src = std::find_if(replay_memo_.begin(), replay_memo_.end(),
                          [&](const ReplaySource& s) {
                            return std::ranges::equal(s.records, source);
                          });
  if (src == replay_memo_.end()) {
    src = replay_memo_.insert(
        src, ReplaySource{{source.begin(), source.end()}, {}});
  }
  std::vector<PrefixStep> steps;
  for (std::size_t j = 0; j < chc.mappers.size(); ++j) {
    steps.push_back({chc.mappers[j], chc.reducers[j], chc.udf_salts[j]});
  }
  for (const ReplayedPrefix& p : src->prefixes) {
    if (p.steps == steps) return p.expected;
  }
  // Replay: global group-by with sorted values, the canonical MapReduce
  // semantics.
  std::vector<mapred::Record> records;
  std::span<const mapred::Record> in = src->records;
  for (const PrefixStep& s : steps) {
    mapred::Emitter mapped;
    s.mapper->map_all(in, s.salt, mapped);
    // (key, value) order puts each key's values in one sorted run.
    std::sort(mapped.records().begin(), mapped.records().end());
    mapred::Emitter reduced;
    s.reducer->reduce_all(mapped.records(), s.salt, reduced);
    records = std::move(reduced.records());
    in = records;
  }
  obs_.metrics.add("audit.cache_hit_replays");
  src->prefixes.push_back({std::move(steps), mapred::checksum_of(in)});
  return src->prefixes.back().expected;
}

void Auditor::check_journal_replay(const JournalReplayCheck& jrc) {
  if (refs_.dfs == nullptr) return;
  const dfs::NameNode& dfs = *refs_.dfs;
  std::vector<std::string> violations;
  for (std::size_t i = 0; i < jrc.positions.size(); ++i) {
    const std::uint32_t pos = jrc.positions[i];
    const dfs::FileId file = jrc.files[i];
    if (!dfs.file_exists(file)) {
      std::ostringstream os;
      os << "journal replay (chain tag " << jrc.chain << ") adopted position "
         << pos << " as completed, but its journaled file " << file
         << " no longer exists in the DFS ledger";
      violations.push_back(os.str());
      continue;
    }
    for (std::uint32_t p = 0; p < dfs.num_partitions(file); ++p) {
      if (dfs.partition(file, p).written) continue;
      std::ostringstream os;
      os << "journal replay (chain tag " << jrc.chain << ") adopted position "
         << pos << " as completed, but partition " << p
         << " of its journaled file " << file
         << " was never written — the replayed commit is not backed by the "
            "surviving ledger";
      violations.push_back(os.str());
    }
  }
  if (!violations.empty()) fail(AuditPoint::kFailure, violations);
  ++journal_replay_checks_;
  obs_.metrics.add("audit.journal_replay_checks");
}

void Auditor::check_policy_replication(Bytes used, Bytes budget) {
  if (budget != 0 && used > budget) {
    std::ostringstream os;
    os << "policy pre-replication over budget: " << used
       << " bytes of persisted state already exceed the " << budget
       << "-byte storage budget — a policy must not add replicas it has "
          "no headroom for";
    fail(AuditPoint::kJobStart, {os.str()});
  }
  ++policy_replication_checks_;
  obs_.metrics.add("audit.policy_replication_checks");
}

void Auditor::fail(AuditPoint point,
                   const std::vector<std::string>& violations) const {
  obs_.metrics.add("audit.violations", violations.size());
  std::ostringstream os;
  os << "invariant audit failed at t="
     << (refs_.sim != nullptr ? refs_.sim->now() : 0.0)
     << " point=" << point_name(point) << " (" << violations.size()
     << " violation(s)):";
  for (const std::string& v : violations) os << "\n  - " << v;
  throw AuditError(os.str());
}

}  // namespace rcmp::obs
