// Persisted map outputs (RCMP §IV-A: "RCMP persists this data across
// jobs ... trading off storage space for recomputation speed-up").
//
// In stock Hadoop a mapper's output lives on the mapper's local disk
// only until the job finishes. RCMP keeps it: on a recomputation run,
// JobInit "checks the metadata on the list of already persisted map
// outputs and readies for execution only the minimum necessary number of
// mappers".
//
// A map output is identified by its input coordinates: (logical job,
// input partition, block index). Reuse is valid only if
//   - the output is not lost (its node is alive), and
//   - the input partition's layout version still matches the one the
//     mapper saw. A partition recomputed by reducer *splits* gets a new
//     layout, which invalidates downstream map outputs — this is the
//     paper's Fig. 5 correctness rule, generalized: "not re-using the
//     map outputs for which the reducer they depend on has been split".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "mapred/record.hpp"

namespace rcmp::mapred {

struct MapOutputKey {
  std::uint32_t logical_job = 0;
  std::uint32_t input_partition = 0;
  std::uint32_t block_index = 0;

  bool operator==(const MapOutputKey&) const = default;
  std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(logical_job) << 44) |
           (static_cast<std::uint64_t>(input_partition) << 22) |
           block_index;
  }
};

struct MapOutput {
  cluster::NodeId node = cluster::kInvalidNode;
  /// Layout version of the input partition when the mapper ran.
  std::uint64_t input_layout_version = 0;
  double total_bytes = 0.0;
  /// Payload mode: records bucketed per initial reducer partition.
  std::vector<std::vector<Record>> buckets;
  /// Per-bucket checksums captured at registration; verified by reducers
  /// at shuffle-fetch time (payload mode only).
  std::vector<Checksum> bucket_sums;
  bool lost = false;
  /// Silent corruption marker for virtual-size mode (payload mode flips
  /// real record bytes instead). Invisible to usable(); only the
  /// shuffle-time verifier reacts.
  bool corrupt = false;
  /// Memory-tier outputs live in the producing process's RAM: cheap to
  /// persist and shuffle, but gone on compute failure (usable() checks
  /// compute liveness for them) and demoted to disk under RAM pressure.
  cluster::StorageTier tier = cluster::StorageTier::kDisk;
};

/// Verdict of a shuffle-time bucket integrity check. kMissingSum means
/// the output carries payload but no checksum was ever captured for the
/// requested bucket: the read is unverifiable, which the engine treats
/// as corrupt and the auditor treats as a violation (a silently-passing
/// unverifiable fetch was the bug this state replaces).
enum class BucketState : std::uint8_t {
  kIntact,
  kCorrupt,
  kMissingSum,
};

class MapOutputStore {
 public:
  /// Enable the memory tier: charge memory-tier outputs against the
  /// cluster's shared RAM ledger under `ram_namespace` (>= 1; namespace
  /// 0 belongs to the DFS). Stores of chains that intentionally share
  /// identical outputs may use the same namespace — the refcounted
  /// ledger then holds each output's bytes once (cross-chain de-dup).
  void attach_ram(cluster::Cluster* cluster, std::uint32_t ram_namespace);

  /// Stores a map output. A memory-tier output is charged to the RAM
  /// ledger; under RAM pressure the oldest memory outputs on that node
  /// are demoted (spilled) to disk first, and if headroom still does
  /// not suffice the new output itself falls back to the disk tier.
  void put(const MapOutputKey& key, MapOutput output);
  bool contains(const MapOutputKey& key) const;
  /// nullptr if absent. The pointer stays valid, and sees every later
  /// change to the output (put over the same key included), until
  /// erasures() changes: an output's slot never moves, a put over its
  /// key replaces it in place, and only an erase frees the slot.
  const MapOutput* find(const MapOutputKey& key) const;
  /// Outputs erased so far: drop, drop_job and evict_upto, the store's
  /// only erase sites, bump it once per output. A caller holding a
  /// find() pointer re-finds only when this count has moved.
  std::uint64_t erasures() const { return erasures_; }

  /// Reuse check: present, not lost, node alive, and layout matches.
  bool usable(const MapOutputKey& key, std::uint64_t input_layout_version,
              const cluster::Cluster& cluster) const;

  void drop(const MapOutputKey& key);
  /// Drop every output of a logical job (storage reclamation, and
  /// discarding a cancelled attempt's partial outputs).
  void drop_job(std::uint32_t logical_job);

  /// Quarantine an output detected as corrupt: it stays readable for
  /// still-in-flight fetches of clean buckets but is refused for any
  /// new reuse or shuffle readiness.
  void mark_lost(const MapOutputKey& key);

  /// Shuffle-time integrity check of one bucket: recompute its checksum
  /// against the one captured at registration (payload mode), or consult
  /// the corruption marker (virtual mode). A payload bucket with no
  /// captured checksum is kMissingSum — never silently intact.
  BucketState bucket_state(const MapOutputKey& key,
                           std::uint32_t partition) const;
  /// The same check on an output the caller already holds.
  static BucketState bucket_state(const MapOutput& out,
                                  std::uint32_t partition);
  /// A bucket bucket_states decides by its checksum: the output's
  /// index in `outs` and the bucket's sum.
  struct PendingBucket {
    std::size_t out = 0;
    Checksum sum;
  };
  /// bucket_state(*outs[i], partition) for every non-null outs[i],
  /// written to verdicts[i], with all the buckets' checksums in shared
  /// lane passes (PackedChecksums): a shuffle fetch's segments hold a
  /// few records each. `pending` is scratch, at least outs.size() long,
  /// so a caller that keeps it allocates nothing per call.
  static void bucket_states(std::span<const MapOutput* const> outs,
                            std::uint32_t partition,
                            std::span<PendingBucket> pending,
                            std::span<BucketState> verdicts);
  /// True iff bucket_state is kIntact.
  bool bucket_intact(const MapOutputKey& key, std::uint32_t partition) const {
    return bucket_state(key, partition) == BucketState::kIntact;
  }

  /// Chaos support: silently corrupt one bucket of one stored output,
  /// chosen deterministically from `rng`. Returns false if nothing is
  /// stored.
  bool corrupt_one(Rng& rng);

  /// Evict outputs of one job until at least `bytes` are freed or the
  /// job has none left; returns the exact bytes actually freed (integer
  /// arithmetic — a double accumulator loses precision beyond 2^53 and
  /// over/under-evicts large stores). Eviction order is deterministic
  /// (descending key), i.e. roughly wave by wave from the latest
  /// mappers backwards — the paper's proposed "deleting persisted
  /// outputs at the granularity of waves". Only disk-tier outputs are
  /// deleted (they are what the shared budget charges; memory outputs
  /// are reclaimed by demotion under RAM pressure instead), and a
  /// pinned job is never evicted — returns 0 for it.
  Bytes evict_upto(std::uint32_t logical_job, Bytes bytes);

  /// Pin jobs whose outputs must survive eviction: the live job (its
  /// reducers are still shuffling them) and the recompute frontier of
  /// an in-flight replan (they may be the sole surviving copy the
  /// replan counts on). Replaces the previous pin set.
  void set_pinned_jobs(std::unordered_set<std::uint32_t> jobs) {
    pinned_jobs_ = std::move(jobs);
  }
  bool job_pinned(std::uint32_t logical_job) const {
    return pinned_jobs_.count(logical_job) > 0;
  }

  /// Mark disk-tier outputs stored on a dead node as lost (physical
  /// truth; the engine learns about it only after the detection
  /// timeout). Memory-tier outputs survive a disk swap.
  void on_node_failure(cluster::NodeId dead);

  /// Memory-tier counterpart: the node's process died, so every
  /// memory-tier output there is lost. No-op without memory outputs.
  void on_compute_failure(cluster::NodeId dead);

  // O(1) reads off the incrementally maintained integer ledger; each
  // output is charged llround(total_bytes) while present and not lost.
  // Disk tier only — the shared storage budget governs disk; RAM is
  // accounted separately below.
  Bytes used_on_node(cluster::NodeId n) const;
  Bytes total_used() const { return total_used_; }
  /// Bytes persisted for one logical job (eviction accounting).
  Bytes used_for_job(std::uint32_t logical_job) const;
  /// One past the highest logical job the store has ever held: every
  /// job with used_for_job() > 0 is below it (a per-job scan's bound).
  std::uint32_t job_span() const {
    return static_cast<std::uint32_t>(job_used_.size());
  }
  /// Memory-tier bytes (mirror of this store's share of the cluster
  /// RAM ledger, audited against it).
  Bytes total_mem_used() const { return total_mem_used_; }
  Bytes mem_used_on_node(cluster::NodeId n) const;
  std::size_t size() const { return index_.size(); }

  /// Observability hook fired when RAM pressure demotes a memory-tier
  /// output to disk (bytes spilled on that node).
  void set_spill_hook(std::function<void(cluster::NodeId, Bytes)> h) {
    spill_hook_ = std::move(h);
  }

  /// Invariant audit: recount total / per-job / per-node usage from the
  /// stored outputs (the ground truth) and compare with the ledger.
  /// One message per mismatch, per-id ledgers in ascending id order;
  /// empty = consistent. Used by obs::Auditor.
  std::vector<std::string> audit_ledger() const;

  /// The ledgers audit_ledger() recounts: the disk and memory-tier
  /// totals, and the per-job, per-node and per-node memory-tier ones.
  enum class Ledger : std::uint8_t {
    kTotal,
    kMemoryTotal,
    kJob,
    kNode,
    kNodeMemory,
  };
  /// Test hooks: corrupt one ledger by `delta` bytes (the entry of job
  /// or node `id` for a per-id ledger; `id` is ignored for a total), so
  /// tests can prove the auditor catches drift. The one-argument form
  /// corrupts the disk total. Never called outside tests.
  void debug_corrupt_ledger(Ledger ledger, std::uint32_t id,
                            std::int64_t delta);
  void debug_corrupt_ledger(std::int64_t delta) {
    debug_corrupt_ledger(Ledger::kTotal, 0, delta);
  }

 private:
  struct KeyHash {
    std::size_t operator()(const MapOutputKey& k) const {
      return static_cast<std::size_t>(k.packed() * 0x9e3779b97f4a7c15ULL);
    }
  };

  /// One output's home in the arena. Slots sit in fixed-size chunks
  /// that never move, so a stored output keeps its address until an
  /// erase frees its slot for a later put.
  struct Slot {
    MapOutput out;
    MapOutputKey key;
    bool live = false;
  };
  static constexpr std::uint32_t kChunkSlots = 128;

  Slot& slot(std::uint32_t id) {
    return chunks_[id / kChunkSlots][id % kChunkSlots];
  }
  const Slot& slot(std::uint32_t id) const {
    return chunks_[id / kChunkSlots][id % kChunkSlots];
  }
  /// Calls f(slot) for every live slot, in slot order: one linear scan
  /// over the chunks, the store's only whole-store walk. Slot order
  /// depends on the put/erase history, so every caller either
  /// accumulates order-free sums or sorts by key before choosing.
  template <typename Self, typename F>
  static void for_each_live(Self& self, F&& f) {
    for (std::uint32_t id = 0; id < self.slots_used_; ++id) {
      auto& s = self.slot(id);
      if (s.live) f(s);
    }
  }
  /// A free slot for a new key: the most recently freed one, else the
  /// next never-used one (a new chunk every kChunkSlots).
  std::uint32_t acquire_slot();
  /// The store's one erase: discharge the ledgers, drop the key from
  /// the index, release the output's vectors, free the slot and bump
  /// erasures().
  void erase(Slot& s);

  /// Integer bytes an output occupies in the ledger.
  static Bytes charged_bytes(const MapOutput& out);
  /// Tier-dispatched ledger maintenance. ledger_remove of a memory
  /// output also drops its RAM-ledger reference (idempotent — a
  /// compute failure may have wiped the node wholesale already);
  /// ledger_add does NOT charge RAM, put() handles that with its
  /// spill/fallback logic.
  void ledger_add(const MapOutputKey& key, const MapOutput& out);
  void ledger_remove(const MapOutputKey& key, const MapOutput& out);
  /// Demote the oldest memory-tier outputs on `node` to disk until RAM
  /// headroom fits `need` more bytes (or none are left).
  void spill_node(cluster::NodeId node, Bytes need);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Slots handed out so far (live or freed); walks stop here.
  std::uint32_t slots_used_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<MapOutputKey, std::uint32_t, KeyHash> index_;
  std::uint64_t erasures_ = 0;
  // Per-id ledgers are dense: logical job and node ids are small
  // integers, so each is a vector indexed by id, grown on demand.
  Bytes total_used_ = 0;
  std::vector<Bytes> job_used_;
  std::vector<Bytes> node_used_;
  cluster::Cluster* ram_cluster_ = nullptr;
  std::uint32_t ram_ns_ = 0;
  Bytes total_mem_used_ = 0;
  std::vector<Bytes> node_mem_used_;
  std::unordered_set<std::uint32_t> pinned_jobs_;
  std::function<void(cluster::NodeId, Bytes)> spill_hook_;
};

}  // namespace rcmp::mapred
