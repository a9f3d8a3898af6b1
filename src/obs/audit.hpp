// Invariant auditor: recompute ground truth, compare with the
// incremental books.
//
// The simulator keeps several incrementally-maintained accounts whose
// correctness RCMP's results depend on: the DFS per-node storage
// ledger, the persisted-map-output ledger, the flow network's max-min
// rates, and the event queue's conservation counters. Each is fast
// precisely because it is incremental — and therefore can silently
// drift if any update path is missed. The auditor recomputes each from
// first principles (scan the blocks, scan the outputs, re-derive the
// max-min conditions) at every audit point and aborts with a
// structured report on mismatch.
//
// A storage recount costs what it checks. A chain's job-start,
// job-boundary and final points recount that chain's map-output store
// and the DFS blocks of the files it owns (against its DFS
// sub-ledgers), and check that each node's DFS totals equal the sum of
// every owner's sub-ledgers. The first point of each failure event (every
// chain raises one), and the last chain's final point (the end of the
// run), recount every store and the whole block table; the event's
// later points recount the reaching chain's books, as job boundaries
// do, so one event over C chains recounts C + (C - 1) stores. Drift in
// a ledger entry is therefore reported at the first of: its owning
// chain's next audit point, the next failure event, or the end of the
// run; drift in the shared DFS totals at the next point of any chain.
// Recount work grows linearly with the chain count
// (`audit.store_recounts`, `audit.dfs_blocks_recounted`).
// The event-queue, flow-network, storage-gauge and RAM cross-checks run
// in full at every point.
//
// It also enforces the paper's Fig. 5 reuse rule *online*: every reuse
// decision and shuffle fetch reports a ReuseCheck through the
// Observability hooks, and a stale layout version under an enforcing
// directive is a hard violation.
//
// The auditor sits above every subsystem it inspects, so the low
// layers never see it: construction installs it into the shared
// Observability hooks (obs.hpp explains the inversion).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "dfs/namenode.hpp"
#include "mapred/map_output_store.hpp"
#include "mapred/payload_store.hpp"
#include "obs/obs.hpp"
#include "resources/flow_network.hpp"
#include "sim/simulation.hpp"

namespace rcmp::obs {

class Auditor {
 public:
  struct Refs {
    sim::Simulation* sim = nullptr;
    res::FlowNetwork* net = nullptr;
    cluster::Cluster* cluster = nullptr;
    dfs::NameNode* dfs = nullptr;
    /// Every chain's persisted-map-output store, indexed by chain id
    /// (the DFS owner id of the chain's files). A chain's own audit
    /// points recount its store, the first point of a failure event and
    /// the end of the run recount them all, and the storage-gauge
    /// cross-check sums them all at every point.
    std::vector<mapred::MapOutputStore*> tenant_stores;
    /// Payload store (payload-backed runs): enables the result-cache
    /// differential cross-check. Null = virtual mode, hit checks skip.
    mapred::PayloadStore* payloads = nullptr;
  };

  /// Installs itself into `obs`'s audit/reuse/violation hooks. The
  /// Auditor must outlive every layer that dispatches through `obs`.
  Auditor(const Refs& refs, Observability& obs);

  /// Full invariant passes completed without a violation.
  std::uint64_t checks_run() const { return checks_run_; }
  /// Reuse/fetch legality checks validated.
  std::uint64_t reuse_checks() const { return reuse_checks_; }

  /// Run every check now, at a point `chain` reached, with the storage
  /// recounts scoped as the header describes; throws AuditError with a
  /// structured report on the first violating pass. Normally invoked
  /// through the hooks.
  void run_checks(AuditPoint point, std::uint32_t chain);

  /// Deterministic snapshot of node `n`'s storage ledger entries: its
  /// DFS usage plus its share of each map-output store. Two equal
  /// digests mean the node's ledgers are byte-identical. Scoped to one
  /// node on purpose — the rest of the cluster legitimately makes
  /// progress while `n` is suspected, but nothing may touch the
  /// suspect's own persisted bytes.
  std::string ledger_digest(cluster::NodeId n) const;

  /// Record node `n`'s ledger digest at the instant it was suspected.
  /// Pairs with check_reconcile: a reconciled false suspicion must
  /// leave the suspect's ledgers exactly as they were when suspicion
  /// was raised — its data was re-admitted, not re-created or dropped.
  void note_suspicion(cluster::NodeId n);

  /// Compare the current digest against the one captured at suspicion
  /// time; throws AuditError on drift. No-op when `n` was never noted
  /// (a real failure, or the check is disarmed).
  void check_reconcile(cluster::NodeId n);

  /// Reconcile-digest comparisons that passed.
  std::uint64_t reconcile_checks() const { return reconcile_checks_; }

  /// Validate one policy-triggered pre-replication: at decision time the
  /// persisted-state footprint must have been within the storage budget
  /// (0 = unlimited). Throws AuditError otherwise. Normally invoked
  /// through Observability::check_policy_replication.
  void check_policy_replication(Bytes used, Bytes budget);

  /// Pre-replication budget-legality checks that passed.
  std::uint64_t policy_replication_checks() const {
    return policy_replication_checks_;
  }

  /// Validate one storage-eviction victim choice: evicting a job whose
  /// outputs sit on the live recompute frontier of an in-flight replan
  /// would delete the sole surviving copy the replan counts on. Throws
  /// AuditError when `pinned` is true. Normally invoked through
  /// Observability::check_eviction.
  void check_eviction(bool pinned, std::uint32_t logical_job);

  /// Eviction victim-legality checks that passed.
  std::uint64_t eviction_checks() const { return eviction_checks_; }

  /// Differential cross-check of one result-cache hit: eagerly replay
  /// the satisfied prefix (jobs 0..position over the borrower's source
  /// input, with the borrower's own UDFs) and compare the
  /// order-independent checksum against the cached bytes. A mismatch
  /// means the cache served data that is not what the borrower would
  /// have computed — a fingerprint collision or invalidation bug —
  /// and throws AuditError. Skipped in virtual (no-payload) mode.
  /// Normally invoked through Observability::check_cache_hit.
  ///
  /// The replay is memoized: the same UDF prefix over the same source
  /// records yields the same checksum, so each distinct (source
  /// records, prefix) pair is replayed once (`audit.cache_hit_replays`).
  /// Every hit still gathers its source records, compares them element
  /// by element against the memo's, and checksums the cached file's
  /// current bytes.
  void check_cache_hit(const CacheHitCheck& chc);

  /// Cache-hit differential checks that passed.
  std::uint64_t cache_hit_checks() const { return cache_hit_checks_; }

  /// Validate one journal replay: a recovered coordinator may only
  /// adopt a position as completed when the surviving cluster ledger
  /// fully backs the claim — the journaled DFS file exists and every
  /// partition was written (damaged-but-written is fine: the ordinary
  /// replan machinery handles damage; a never-written partition means
  /// the replay resurrected a commit the ledger cannot support). A
  /// replayed coordinator's ledger view must match a live one's
  /// exactly; throws AuditError otherwise. Normally invoked through
  /// Observability::check_journal_replay.
  void check_journal_replay(const JournalReplayCheck& jrc);

  /// Journal-replay ledger checks that passed.
  std::uint64_t journal_replay_checks() const {
    return journal_replay_checks_;
  }

 private:
  /// Scope of a storage recount that covers every chain.
  static constexpr std::uint32_t kEveryChain = dfs::NameNode::kEveryOwner;

  void check_event_queue(std::vector<std::string>* violations);
  /// Storage checks, recounting `chain`'s ledgers or kEveryChain's.
  void check_storage(std::uint32_t chain,
                     std::vector<std::string>* violations);
  /// Record a failure point; true for the first point of its failure
  /// event (Cluster::failure_events), or always without a cluster.
  bool note_failure_point();
  /// Record that `chain` reached its final point; true when it was the
  /// last chain to, which ends the run.
  bool note_final(std::uint32_t chain);
  [[noreturn]] void fail(AuditPoint point,
                         const std::vector<std::string>& violations) const;

  /// One position of a replayed UDF prefix, as CacheHitCheck carries it.
  struct PrefixStep {
    const mapred::MapUdf* mapper;
    const mapred::ReduceUdf* reducer;
    std::uint64_t salt;
    bool operator==(const PrefixStep&) const = default;
  };
  /// A UDF prefix replayed over one source, and the checksum it gave.
  struct ReplayedPrefix {
    std::vector<PrefixStep> steps;
    mapred::Checksum expected;
  };
  /// One distinct source record sequence (a copy, in partition order)
  /// and every prefix replayed over it.
  struct ReplaySource {
    std::vector<mapred::Record> records;
    std::vector<ReplayedPrefix> prefixes;
  };
  /// The expected checksum of `chc`'s prefix over `source`, replaying it
  /// only when the memo has no entry for the pair.
  mapred::Checksum expected_prefix_checksum(
      const CacheHitCheck& chc, std::span<const mapred::Record> source);

  Refs refs_;
  Observability& obs_;
  std::uint64_t checks_run_ = 0;
  std::uint64_t reuse_checks_ = 0;
  std::uint64_t reconcile_checks_ = 0;
  std::uint64_t policy_replication_checks_ = 0;
  std::uint64_t eviction_checks_ = 0;
  std::uint64_t cache_hit_checks_ = 0;
  std::uint64_t journal_replay_checks_ = 0;
  SimTime last_audit_now_ = 0.0;
  /// The failure event whose first point recounted everything.
  std::uint64_t recounted_failure_event_ = 0;
  /// Chains that reached their final point, by chain id.
  std::vector<bool> finished_;
  std::size_t unfinished_ = 0;
  /// Ledger digests captured at suspicion time, by suspected node.
  std::unordered_map<cluster::NodeId, std::string> suspicion_digests_;
  /// Cache-hit replay memo, one entry per distinct source.
  std::vector<ReplaySource> replay_memo_;
  /// The current hit's source records (capacity kept across hits).
  std::vector<mapred::Record> hit_source_;
};

}  // namespace rcmp::obs
