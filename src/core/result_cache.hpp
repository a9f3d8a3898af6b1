// Cluster-wide fingerprint-keyed result cache (ReStore, PAPERS.md).
//
// RCMP persists job outputs as a per-chain recovery asset; ReStore's
// observation is that in a busy cluster the same sub-computations recur
// across tenants, so the same outputs double as a shared cache. An
// entry is keyed by a *structural fingerprint* of everything that
// determines a job's bytes: the source dataset, the UDF pair, the
// partition function (salt + reducer granularity) and the job's
// position in its chain. Fingerprints chain — position j's fingerprint
// folds in position j-1's — so one probe of the deepest position
// resolves a whole prefix in O(1).
//
// The cache stores metadata only; the bytes stay in the DFS file the
// owning chain wrote. Every lookup re-validates the entry against DFS
// ground truth, which is what makes the composition rules fall out:
//   - Fig. 5 legality: the entry snapshots every partition's
//     layout_version at publish time; a partition rewritten at a
//     different reducer granularity bumps the version and permanently
//     invalidates the entry (kLayoutChanged).
//   - Durability: a partition with no alive replica is a miss (the
//     bytes may come back on reconcile, so the entry survives); a
//     deleted file invalidates permanently (kFileLost).
//   - Memory tier: an entry with any memory-tier block is volatile —
//     it never satisfies a hit as durable (unless explicitly allowed),
//     but a spill that demotes the bytes to disk makes it durable
//     without republication, because volatility is re-derived per
//     lookup.
// Borrowers lease the entries they consume; a leased entry (and any
// chain's final output) is never evicted by the cache's own budget
// fall-through — the sole-surviving-copy protection the scheduler's
// map-output eviction already honors.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.hpp"
#include "dfs/namenode.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"

namespace rcmp::core {

/// Why a cache entry stopped being usable (TraceEvent::kind of
/// kCacheInvalidate).
enum class CacheInvalidation : std::uint8_t {
  kLayoutChanged = 0,  // Fig. 5: partition rewritten at a different
                       // granularity (layout_version bumped)
  kFileLost = 1,       // backing file deleted or vanished
  kEvicted = 2,        // cache freed it under storage-budget pressure
  kOwnerRestart = 3,   // owning chain wiped and restarted
};

struct ResultCacheConfig {
  /// Publish every completed initial job output unless a policy vetoes
  /// it (PolicyDecision::cache_admit = 0). When false, only a policy
  /// force (cache_admit = 1) publishes.
  bool admit_by_default = true;
  /// Let entries whose blocks sit on the volatile memory tier satisfy
  /// hits. Off by default: a borrower must never treat another chain's
  /// RAM-resident bytes as durable input.
  bool allow_volatile_hits = false;
};

class ResultCache {
 public:
  struct Entry {
    std::uint64_t fingerprint = 0;
    dfs::FileId file = dfs::kInvalidFile;
    std::uint32_t owner_chain = 0;  // 0-based; a lone chain is 0
    std::uint32_t position = 0;     // chain position of the job
    bool is_final = false;          // last job of the owning chain
    bool owner_done = false;
    std::uint32_t leases = 0;  // borrowers currently depending on it
    std::uint64_t seq = 0;     // publish order (eviction age)
    /// Per-partition layout versions snapshotted at publish time.
    std::vector<std::uint64_t> layout_versions;
  };

  ResultCache(dfs::NameNode& dfs, sim::Simulation& sim,
              obs::Observability* obs, ResultCacheConfig config = {});

  const ResultCacheConfig& config() const { return config_; }

  /// Chained structural fingerprint of chain position `position`:
  /// `prev` is position-1's fingerprint (0 for position 0, where the
  /// source dataset id anchors the chain). Folds in everything that
  /// determines the output bytes: the upstream computation, the UDF
  /// pair, the partition function and the reducer granularity — so a
  /// different granularity is a structural miss, never an illegal hit.
  static std::uint64_t fingerprint(std::uint64_t prev,
                                   std::uint64_t dataset_id,
                                   std::uint64_t udf_id,
                                   std::uint64_t partition_salt,
                                   std::uint32_t num_reducers,
                                   std::uint32_t position);

  /// Register a completed job output. First writer wins: a fingerprint
  /// already backed by a valid entry counts a duplicate and keeps the
  /// existing one; an invalid stale entry is replaced. Returns whether
  /// this call created the live entry.
  bool publish(std::uint64_t fp, dfs::FileId file, std::uint32_t owner_chain,
               std::uint32_t position, bool is_final,
               std::uint16_t trace_chain);

  /// Probe for a durable, legal entry. Counts cache.hits / cache.misses
  /// and permanently invalidates entries that DFS ground truth proves
  /// dead (file gone, layout changed). Returns nullptr on miss.
  const Entry* lookup(std::uint64_t fp, std::uint16_t trace_chain);

  /// Re-validate a previously borrowed entry without touching hit/miss
  /// counters (replan-time check). False when the entry is gone,
  /// backs a different file, or no longer satisfies the hit rules.
  bool validate(std::uint64_t fp, dfs::FileId file);

  /// Raw entry access without validity checks or counters (owner-side
  /// bookkeeping and tests). Null when absent.
  const Entry* find(std::uint64_t fp) const;

  /// The owner stops managing the entry's file (it donated the file to
  /// its borrowers during a restart): the entry becomes
  /// eviction-eligible once unleased, as if the owner had finished.
  void detach(std::uint64_t fp);

  /// Borrow accounting: a leased entry is never cache-evicted.
  void lease(std::uint64_t fp);
  void release(std::uint64_t fp);

  /// Permanently drop every entry backed by `file` (owner restart,
  /// storage reclamation, external deletion).
  void invalidate_file(dfs::FileId file, CacheInvalidation reason,
                       std::uint16_t trace_chain);

  /// The owning chain finished (or failed): its entries become
  /// eviction-eligible once unleased. Publishing chains still running
  /// may replan onto their files, so those stay protected.
  void owner_finished(std::uint32_t owner_chain);

  /// Storage-budget fall-through: delete the backing file of the oldest
  /// evictable entry (owner done, no leases, not a final output).
  /// Returns the bytes freed, 0 when nothing is evictable.
  Bytes evict_one();

  /// Master crash: the registry is coordinator state, so every entry
  /// and every lease dies with the master. The backing DFS files are
  /// untouched (they belong to the surviving cluster ledger); journal
  /// replay re-publishes the entries whose files still exist, and
  /// borrowers must re-prove their leases — never assume them. The
  /// publish-order clock keeps ticking so recovered entries age after
  /// pre-crash ones.
  void master_crash_reset();

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t invalidations() const { return invalidations_; }

 private:
  enum class Validity { kUsable, kMiss, kDead };

  /// Classify an entry against DFS ground truth. kDead also reports the
  /// reason the entry must be dropped.
  Validity check(const Entry& e, CacheInvalidation* reason) const;
  void drop(std::map<std::uint64_t, Entry>::iterator it,
            CacheInvalidation reason, std::uint16_t trace_chain);
  void update_gauge();

  dfs::NameNode& dfs_;
  sim::Simulation& sim_;
  obs::Observability* obs_;
  ResultCacheConfig config_;
  /// Ordered map: deterministic iteration for eviction and audits.
  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace rcmp::core
