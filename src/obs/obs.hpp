// Observability: the one struct the simulation layers share.
//
// An Observability instance bundles the tracer, the metrics registry
// and a set of optional hooks. It is owned by the scenario (or any
// driver) and handed to the engine via Env::obs and to the cluster via
// set_tracer(); layers that emit events never know who is listening.
//
// The hooks invert the layering problem: the auditor (obs/audit.hpp)
// depends on every subsystem it inspects, so the low layers cannot call
// it directly — instead they call the null-safe dispatch helpers below
// and the auditor installs itself into the hooks at construction. The
// middleware likewise installs storage_sample_hook so the engine can
// trigger a mid-job storage sample at shuffle completion without a
// dependency on core::Middleware.
//
// Everything is optional: a default-constructed Observability with the
// tracer disabled and no hooks costs one pointer/bool compare per
// emission site.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcmp::mapred {
class MapUdf;
class ReduceUdf;
}  // namespace rcmp::mapred

namespace rcmp::obs {

/// Thrown by the auditor when an invariant check fails; what() carries
/// the structured report.
class AuditError : public Error {
 public:
  using Error::Error;
};

/// Where in the chain lifecycle an audit pass runs. Every point carries
/// the chain that reached it (obs/audit.hpp explains what each point
/// recounts).
enum class AuditPoint : std::uint8_t {
  kJobStart = 0,
  kJobBoundary = 1,  // after a job completes, before the next submits
  kFailure = 2,      // after a failure event was fully applied
  kFinal = 3,        // chain finished or failed
};

/// Evidence for one map-output reuse / fetch decision, checked against
/// the paper's Fig. 5 rule by the auditor.
struct ReuseCheck {
  std::uint32_t logical_job;
  std::uint32_t input_partition;
  std::uint32_t block_index;
  std::uint64_t stored_layout_version;
  std::uint64_t current_layout_version;
  bool fig5_enforced;  // directive asked for the Fig. 5 legality rule
};

/// Evidence for one result-cache hit: the borrowing chain satisfied its
/// prefix [0, position] from `cached_file`, which some other chain
/// computed from the same source dataset. The auditor eagerly replays
/// the whole prefix with the borrower's own UDFs and compares the
/// order-independent checksum of `cached_file` against the replay
/// (payload mode only — virtual-size runs have no records to compare).
struct CacheHitCheck {
  std::uint32_t input_file = 0;   // dfs::FileId of the source dataset
  std::uint32_t cached_file = 0;  // dfs::FileId of the borrowed output
  std::uint32_t position = 0;     // chain position the entry satisfies
  /// Per-position UDFs and salts for jobs 0..position (linear chains;
  /// non-linear dependency graphs skip the eager cross-check).
  std::vector<const mapred::MapUdf*> mappers;
  std::vector<const mapred::ReduceUdf*> reducers;
  std::vector<std::uint64_t> udf_salts;
  std::uint16_t chain = 0;  // borrower's chain tag; 0 = a lone chain
};

/// Evidence for one journal replay: the positions a recovered
/// coordinator adopted as completed (with the DFS file backing each
/// claim) after replaying `replayed_records` journal records. The
/// auditor holds the replayed ledger view to the same standard as a
/// live coordinator's: every adopted claim must be fully backed by the
/// surviving cluster ledger.
struct JournalReplayCheck {
  std::uint16_t chain = 0;  // chain tag; 0 = a lone chain
  std::uint64_t replayed_records = 0;
  std::vector<std::uint32_t> positions;  // adopted as completed
  std::vector<std::uint32_t> files;      // dfs::FileId per position
};

struct Observability {
  Tracer tracer;
  MetricsRegistry metrics;

  /// Installed by the auditor: run invariant checks now, at a point
  /// `chain` reached.
  std::function<void(AuditPoint, std::uint32_t chain)> audit_hook;
  /// Installed by the auditor: validate one reuse/fetch decision.
  std::function<void(const ReuseCheck&)> reuse_hook;
  /// Installed by the middleware: take a storage sample now.
  std::function<void()> storage_sample_hook;
  /// Installed by the auditor: record a violation report (throws).
  std::function<void(const std::string&)> violation_hook;
  /// Installed by the auditor: verify a policy-triggered pre-replication
  /// was budget-legal (storage used at decision time vs. the configured
  /// budget; 0 budget = unlimited).
  std::function<void(Bytes used, Bytes budget)> policy_replication_hook;
  /// Installed by the auditor: validate one storage-eviction victim
  /// choice before outputs are deleted. `pinned` = the job sits on the
  /// live recompute frontier of an in-flight replan (evicting it would
  /// delete the sole surviving copy the replan counts on — a violation).
  std::function<void(bool pinned, std::uint32_t logical_job)>
      eviction_check_hook;
  /// Installed by the auditor: differentially verify one result-cache
  /// hit (eager prefix recompute vs. the cached bytes).
  std::function<void(const CacheHitCheck&)> cache_hit_hook;
  /// Installed by the auditor: verify a recovered coordinator's
  /// replayed ledger view exactly matches the surviving cluster ledger.
  std::function<void(const JournalReplayCheck&)> journal_replay_hook;

  // Null-safe dispatch used by the emitting layers.
  void audit(AuditPoint p, std::uint32_t chain) {
    if (audit_hook) audit_hook(p, chain);
  }
  void check_reuse(const ReuseCheck& rc) {
    if (reuse_hook) reuse_hook(rc);
  }
  void sample_storage() {
    if (storage_sample_hook) storage_sample_hook();
  }
  void report_violation(const std::string& what) {
    if (violation_hook) violation_hook(what);
  }
  void check_policy_replication(Bytes used, Bytes budget) {
    if (policy_replication_hook) policy_replication_hook(used, budget);
  }
  void check_eviction(bool pinned, std::uint32_t logical_job) {
    if (eviction_check_hook) eviction_check_hook(pinned, logical_job);
  }
  void check_cache_hit(const CacheHitCheck& chc) {
    if (cache_hit_hook) cache_hit_hook(chc);
  }
  void check_journal_replay(const JournalReplayCheck& jrc) {
    if (journal_replay_hook) journal_replay_hook(jrc);
  }
};

}  // namespace rcmp::obs
