// Write-ahead decision journal: the coordinator's durable memory.
//
// Every fault the chaos engine injects hits workers; the coordinator
// (Middleware + ChainScheduler + ResultCache registry) has been immortal
// by construction — exactly the single point of failure the paper's
// recomputation argument leaves unexamined. The journal closes that gap:
// each *durable* coordinator decision (chain admission, job-boundary
// commit, replication-point placement, storage eviction, cache
// publication/lease, quarantine, replan cut, restart, reclamation) is
// appended as a typed POD record before the decision's effects are
// relied upon. After a master crash (cluster::FaultMode::kMasterCrash),
// a fresh coordinator replays the journal against the surviving cluster
// ledger — DFS metadata, persisted map outputs, detector re-registration
// — and resumes from the deepest journaled-and-verified prefix.
//
// Crash-point fuzzing: arm_crash(k) models the canonical WAL failure
// mode — the (k+1)-th append never becomes durable. When that append is
// attempted the journal *seals* (the record and everything after it is
// dropped, a pure prefix truncation) and the registered callback fires
// once; the callback typically defers the actual master crash through
// the simulation queue so state destruction never happens re-entrantly
// inside the appending call stack. Recovery unseals the journal so
// post-recovery decisions append again.
//
// The journal is pure bookkeeping: appends draw no randomness, emit no
// trace events and touch no simulation state, so a journal-attached run
// that never crashes is byte-identical to a journal-free run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rcmp::core {

/// Typed vocabulary of durable coordinator decisions. Values are stable
/// (they appear in JSONL exports).
enum class JournalRecordType : std::uint8_t {
  kChainAdmit = 0,        // chain admitted; c = chain length
  kJobCommit = 1,         // job boundary: a = logical, b = file, c = ordinal
  kReplicationPoint = 2,  // a = logical, b = replication factor
  kEviction = 3,          // a = logical (0xffffffff: cache), c = bytes
  kCachePublish = 4,      // a = position, b = file, c = fingerprint
  kCacheLease = 5,        // a = position, b = file, c = fingerprint
  kCacheRelease = 6,      // a = position, b = file, c = fingerprint
  kQuarantine = 7,        // a = node blacklisted by the detector
  kReplanCut = 8,         // a = replan count when the cut was made
  kRestart = 9,           // full restart: earlier commits are void
  kReclaim = 10,          // a = reclaimed_below watermark
};

const char* journal_record_type_name(JournalRecordType t);

/// Fixed-size POD record. The a/b/c operands are record-type-specific
/// (see the enum); `chain` is the chain tag (0 for a lone chain) of the
/// tenant the decision concerns — the appending middleware's own, or an
/// eviction victim's — so one shared journal serves many tenants.
struct JournalRecord {
  double time = 0.0;      // simulated seconds at append
  std::uint64_t lsn = 0;  // log sequence number, dense from 0
  std::uint64_t c = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint16_t chain = 0;
  JournalRecordType type = JournalRecordType::kChainAdmit;
};
static_assert(sizeof(JournalRecord) == 40,
              "JournalRecord must stay compact");

class DecisionJournal {
 public:
  /// Append one record. Returns false (and drops the record) when the
  /// journal is sealed — either by a previous crash point or because
  /// this very append hit the armed crash point, in which case the
  /// crash callback fires exactly once before returning.
  bool append(JournalRecordType type, std::uint16_t chain, std::uint32_t a,
              std::uint32_t b, std::uint64_t c, double time);

  /// Crash-point fuzzing: the append that would create record number
  /// `at_record` (0-based) never becomes durable — the journal seals
  /// with the first `at_record` records and `on_crash` fires once.
  void arm_crash(std::uint64_t at_record, std::function<void()> on_crash);

  /// Recovery reopened the log: post-replay decisions append again.
  void unseal() { sealed_ = false; }
  bool sealed() const { return sealed_; }

  const std::vector<JournalRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  /// Appends lost to a sealed journal (un-durable writes).
  std::uint64_t dropped_appends() const { return dropped_; }

  /// One JSON object per line, append order; deterministic formatting
  /// (%.17g doubles), so same-seed runs export byte-identical logs.
  std::string export_jsonl() const;

 private:
  std::vector<JournalRecord> records_;
  std::uint64_t next_lsn_ = 0;
  std::uint64_t dropped_ = 0;
  bool sealed_ = false;
  bool armed_ = false;
  std::uint64_t crash_at_ = 0;
  std::function<void()> on_crash_;
};

}  // namespace rcmp::core
