// Distributed file system metadata service (HDFS-like).
//
// Job inputs and reducer outputs live in the DFS as files; a file is an
// ordered set of logical partitions — one per reducer of the job that
// wrote it (paper §IV: "dividing the job output file into separate
// partitions with one partition per reducer" lets lost key-value pairs
// be traced back to the reducer that created them). Partitions are
// stored as fixed-size blocks, each with `replication` replicas placed
// by a policy. Only metadata lives here; the bytes are simulated (and
// optionally materialized as real records by the engine's payload mode).
//
// A partition is *available* iff every one of its blocks still has at
// least one replica on an alive node. Node failures produce loss
// reports: the per-file list of partitions that just became unavailable
// — exactly the information RCMP's middleware needs to plan a
// recomputation cascade.
//
// Every file has an owner, a small integer the creator passes (a chain
// id in a multi-tenant run; 0 for a file created outside any chain).
// Beside the per-node storage totals the NameNode keeps one disk and one
// memory sub-ledger per owner, so an auditor can recount one owner's
// blocks without walking the whole block table.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace rcmp::dfs {

using FileId = std::uint32_t;
using PartitionIndex = std::uint32_t;
inline constexpr FileId kInvalidFile = 0xffffffffu;

/// Cluster RAM-ledger namespace for DFS blocks (ids are block ids).
/// Map-output stores use namespaces >= 1.
inline constexpr std::uint32_t kRamNamespaceDfs = 0;

enum class PlacementPolicy {
  /// First replica on the writer node, remaining replicas on distinct
  /// random alive nodes (rack-aware when racks > 1). Hadoop's default.
  kLocalFirst,
  /// Spread blocks round-robin over all alive nodes regardless of the
  /// writer — the paper's alternative hot-spot mitigation (§IV-B2):
  /// "RCMP can tell the reducers belonging to recomputed jobs to spread
  /// their output over many nodes".
  kScatter,
};

struct BlockInfo {
  Bytes size = 0;
  std::vector<cluster::NodeId> replicas;  // all ever-placed replicas
  /// Memory-tier blocks live in process RAM on their (single) replica
  /// node: faster to read/write, but lost on *compute* failure and
  /// never durable on a dead node — Fig. 5 reuse must not treat them
  /// as persisted.
  cluster::StorageTier tier = cluster::StorageTier::kDisk;
  /// Owner of the file the block was committed to.
  std::uint32_t owner = 0;
};

struct PartitionInfo {
  Bytes size = 0;
  std::vector<std::uint64_t> blocks;  // indices into the block table
  bool written = false;
  /// Incremented every time the partition is cleared for rewrite. A
  /// recomputation that changes the partition's record-to-block layout
  /// (reducer splitting) therefore invalidates downstream map outputs
  /// keyed to the old version — the generalized Fig. 5 rule.
  std::uint64_t layout_version = 0;
  /// Silent corruption marker used by the chaos engine in virtual-size
  /// mode (payload mode flips real record bytes instead). Deliberately
  /// NOT part of partition_available(): nothing notices until a reader
  /// verifies checksums on the read path. Cleared on rewrite.
  bool corrupt = false;
};

struct LossReport {
  FileId file = kInvalidFile;
  std::string file_name;
  std::vector<PartitionIndex> lost_partitions;
};

class NameNode {
 public:
  NameNode(cluster::Cluster& cluster, Bytes block_size, std::uint64_t seed);

  Bytes block_size() const { return block_size_; }

  /// Create an empty file with a fixed partition count and replication
  /// factor for subsequently written blocks. Its blocks are charged to
  /// `owner`'s sub-ledgers for the file's whole life.
  FileId create_file(std::string name, std::uint32_t num_partitions,
                     std::uint32_t replication, std::uint32_t owner = 0);
  void delete_file(FileId f);
  bool file_exists(FileId f) const;
  const std::string& file_name(FileId f) const;
  std::uint32_t num_partitions(FileId f) const;
  std::uint32_t replication(FileId f) const;
  /// Change the replication factor applied to future writes into this
  /// file (existing blocks keep their replicas). Used by the dynamic
  /// hybrid policy to upgrade a job's output before it runs.
  void set_replication(FileId f, std::uint32_t replication);
  /// Preferred tier for future writes into this file. Memory placement
  /// only takes effect for replication == 1 (a replication point is a
  /// durability point and always goes to disk) and when the cluster's
  /// RAM tier is enabled; otherwise writes fall back to disk.
  void set_file_tier(FileId f, cluster::StorageTier tier);
  cluster::StorageTier file_tier(FileId f) const;
  Bytes file_size(FileId f) const;

  /// Plan replica placements for writing `size` bytes into a partition
  /// from `writer`. Does not mutate metadata — the engine uses the plan
  /// to price the replication pipeline flows, then commits. Memory-tier
  /// blocks are planned onto the writer itself (partition-stable, so
  /// iterative chains shuffle locally) while plan-time RAM headroom
  /// lasts; the remainder of the write spills to disk placement.
  struct PlannedBlock {
    Bytes size = 0;
    std::vector<cluster::NodeId> replicas;
    cluster::StorageTier tier = cluster::StorageTier::kDisk;
  };
  std::vector<PlannedBlock> plan_write(FileId f, cluster::NodeId writer,
                                       Bytes size, PlacementPolicy policy);

  /// Commit planned blocks into a partition. Multiple commits accumulate
  /// (reducer splits each commit their sub-partition). The replica
  /// lists move into the block table: pass a plan the caller no longer
  /// needs as an rvalue, and a plan it keeps is copied.
  void commit_partition(FileId f, PartitionIndex p,
                        std::vector<PlannedBlock> blocks);

  /// Drop a partition's blocks (before a recomputation overwrites it).
  /// preserve_layout: the caller guarantees the upcoming rewrite will
  /// regenerate the identical record-to-block layout (a deterministic
  /// NO-SPLIT recompute), so downstream map outputs remain reusable.
  /// A split recompute must pass false, bumping the layout version —
  /// the generalized Fig. 5 invalidation.
  void clear_partition(FileId f, PartitionIndex p,
                       bool preserve_layout = false);

  const PartitionInfo& partition(FileId f, PartitionIndex p) const;
  const BlockInfo& block(std::uint64_t block_id) const;
  /// Block-table entries, cleared ones included: what a full audit walks.
  std::uint64_t block_count() const { return blocks_.size(); }
  /// Bumped whenever existing blocks' replica lists change:
  /// clear_partition() and the disk- and memory-loss strips. Indexes
  /// keyed by replica node (the engine's locality index) rebuild when
  /// it has moved. Committing new blocks does not bump it.
  std::uint64_t replica_version() const { return replica_version_; }
  std::uint64_t layout_version(FileId f, PartitionIndex p) const {
    return partition(f, p).layout_version;
  }

  bool partition_available(FileId f, PartitionIndex p) const;
  bool file_available(FileId f) const;

  /// Alive replica locations of a block into `out`, cleared first (empty
  /// = lost); a caller keeps one list's capacity across reads. A node
  /// counts while its storage is up, even if its compute has failed.
  void alive_locations(std::uint64_t block_id,
                       std::vector<cluster::NodeId>* out) const;
  /// alive_locations() would be non-empty; builds no list.
  bool has_live_replica(std::uint64_t block_id) const;

  /// Chaos support: silently mark a partition corrupt (virtual-size
  /// mode). Readers that verify checksums detect it; availability
  /// checks do not.
  void mark_corrupt(FileId f, PartitionIndex p);
  bool partition_corrupt(FileId f, PartitionIndex p) const;

  /// Partitions per file that became unavailable because of this node's
  /// storage loss. Each middleware calls it from its Cluster::on_failure
  /// handler when the event lost storage (a kill or a disk failure);
  /// also callable directly from tests. Strips *disk-tier* replicas only:
  /// a disk-only failure leaves process RAM intact.
  std::vector<LossReport> on_node_failure(cluster::NodeId dead);

  /// The memory-tier counterpart: a compute failure (or whole-node
  /// kill) wipes the node's process RAM, so every memory-tier replica
  /// there is gone. Returns the partitions that became unavailable.
  /// Idempotent; a no-op when the node holds no memory replicas.
  std::vector<LossReport> on_compute_failure(cluster::NodeId dead);

  /// Bytes of block replicas currently stored on a node (storage
  /// accounting for the reclamation extension). Disk tier only: the
  /// shared storage budget governs disk, RAM has its own capacity.
  Bytes used_on_node(cluster::NodeId n) const;
  Bytes total_used() const;
  /// Memory-tier bytes resident on a node / in total (mirror of the
  /// cluster RAM ledger's DFS namespace, audited against it).
  Bytes mem_used_on_node(cluster::NodeId n) const;
  Bytes total_mem_used() const;

  /// Observability hook fired when a commit demotes a planned
  /// memory-tier block to disk because RAM filled up since the plan.
  void set_spill_hook(std::function<void(cluster::NodeId, Bytes)> h) {
    spill_hook_ = std::move(h);
  }

  /// audit_ledger's scope: the whole block table.
  static constexpr std::uint32_t kEveryOwner = 0xffffffffu;

  /// Invariant audit: recount usage from the block table (the ground
  /// truth) and compare with the incrementally maintained ledgers.
  /// Scoped to one owner it walks only that owner's files and recounts
  /// its disk and memory sub-ledgers; kEveryOwner walks the whole block
  /// table and recounts every owner's. Either scope checks that each
  /// node's totals equal the sum of the owners' sub-ledgers, which ties
  /// the totals to the block table once every sub-ledger is recounted.
  /// Adds the block-table entries walked to *visited. One message per
  /// mismatch; empty = consistent. Used by obs::Auditor.
  std::vector<std::string> audit_ledger(std::uint32_t owner,
                                        std::uint64_t* visited) const;

  /// Test hooks: corrupt the incremental ledgers by `delta` bytes on
  /// one node, so tests can prove the auditor catches drift. The first
  /// form corrupts the per-node disk total alone; the second corrupts
  /// `owner`'s disk sub-ledger together with the total, as a missed
  /// update of one of its blocks would. Never called outside tests.
  void debug_corrupt_ledger(cluster::NodeId n, std::int64_t delta);
  void debug_corrupt_ledger(std::uint32_t owner, cluster::NodeId n,
                            std::int64_t delta);

 private:
  struct File {
    std::string name;
    std::uint32_t replication = 1;
    cluster::StorageTier tier = cluster::StorageTier::kDisk;
    std::uint32_t owner = 0;
    std::vector<PartitionInfo> partitions;
    bool deleted = false;
  };

  /// One owner's files and its share of the per-node totals.
  struct OwnerBooks {
    std::vector<FileId> files;
    std::vector<Bytes> used_per_node;
    std::vector<Bytes> mem_per_node;
  };

  OwnerBooks& books_of(std::uint32_t owner);

  /// Can replica `n` of `bi` serve now? The tier decides: a memory
  /// replica needs the process alive, a disk replica the drive up.
  bool replica_live(const BlockInfo& bi, cluster::NodeId n) const;

  std::vector<cluster::NodeId> pick_replicas(cluster::NodeId writer,
                                             std::uint32_t replication,
                                             PlacementPolicy policy);

  cluster::Cluster& cluster_;
  Bytes block_size_;
  Rng rng_;
  std::vector<File> files_;
  std::vector<BlockInfo> blocks_;
  std::vector<Bytes> used_per_node_;
  std::vector<Bytes> mem_per_node_;
  /// Indexed by owner, grown on demand by create_file.
  std::vector<OwnerBooks> owners_;
  std::function<void(cluster::NodeId, Bytes)> spill_hook_;
  std::uint64_t scatter_cursor_ = 0;
  std::uint64_t replica_version_ = 0;
};

}  // namespace rcmp::dfs
