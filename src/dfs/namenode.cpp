#include "dfs/namenode.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace rcmp::dfs {

NameNode::NameNode(cluster::Cluster& cluster, Bytes block_size,
                   std::uint64_t seed)
    : cluster_(cluster), block_size_(block_size), rng_(seed) {
  RCMP_CHECK_MSG(block_size_ > 0, "block size must be positive");
  used_per_node_.assign(cluster_.size(), 0);
  mem_per_node_.assign(cluster_.size(), 0);
}

FileId NameNode::create_file(std::string name, std::uint32_t num_partitions,
                             std::uint32_t replication, std::uint32_t owner) {
  RCMP_CHECK(num_partitions >= 1);
  RCMP_CHECK(owner != kEveryOwner);
  if (replication < 1 || replication > cluster_.size()) {
    throw ConfigError("replication factor " + std::to_string(replication) +
                      " infeasible on " + std::to_string(cluster_.size()) +
                      " nodes");
  }
  File f;
  f.name = std::move(name);
  f.replication = replication;
  f.owner = owner;
  f.partitions.resize(num_partitions);
  files_.push_back(std::move(f));
  const auto id = static_cast<FileId>(files_.size() - 1);
  books_of(owner).files.push_back(id);
  return id;
}

NameNode::OwnerBooks& NameNode::books_of(std::uint32_t owner) {
  while (owners_.size() <= owner) {
    OwnerBooks& books = owners_.emplace_back();
    books.used_per_node.assign(cluster_.size(), 0);
    books.mem_per_node.assign(cluster_.size(), 0);
  }
  return owners_[owner];
}

void NameNode::delete_file(FileId f) {
  RCMP_CHECK(f < files_.size() && !files_[f].deleted);
  for (std::uint32_t p = 0; p < files_[f].partitions.size(); ++p) {
    clear_partition(f, p);
  }
  files_[f].deleted = true;
}

bool NameNode::file_exists(FileId f) const {
  return f < files_.size() && !files_[f].deleted;
}

const std::string& NameNode::file_name(FileId f) const {
  RCMP_CHECK(f < files_.size());
  return files_[f].name;
}

std::uint32_t NameNode::num_partitions(FileId f) const {
  RCMP_CHECK(file_exists(f));
  return static_cast<std::uint32_t>(files_[f].partitions.size());
}

std::uint32_t NameNode::replication(FileId f) const {
  RCMP_CHECK(file_exists(f));
  return files_[f].replication;
}

void NameNode::set_replication(FileId f, std::uint32_t replication) {
  RCMP_CHECK(file_exists(f));
  if (replication < 1 || replication > cluster_.size()) {
    throw ConfigError("replication factor " + std::to_string(replication) +
                      " infeasible on " + std::to_string(cluster_.size()) +
                      " nodes");
  }
  files_[f].replication = replication;
}

void NameNode::set_file_tier(FileId f, cluster::StorageTier tier) {
  RCMP_CHECK(file_exists(f));
  files_[f].tier = tier;
}

cluster::StorageTier NameNode::file_tier(FileId f) const {
  RCMP_CHECK(file_exists(f));
  return files_[f].tier;
}

Bytes NameNode::file_size(FileId f) const {
  RCMP_CHECK(file_exists(f));
  Bytes total = 0;
  for (const auto& p : files_[f].partitions) total += p.size;
  return total;
}

std::vector<cluster::NodeId> NameNode::pick_replicas(
    cluster::NodeId writer, std::uint32_t replication,
    PlacementPolicy policy) {
  const auto& alive = cluster_.alive_storage_nodes();
  RCMP_CHECK_MSG(!alive.empty(), "no alive storage node to write to");
  if (alive.size() < replication) {
    // Degraded write: fewer replicas than requested is survivable (the
    // blocks are under-replicated); refusing the write would stall the
    // chain under heavy chaos.
    RCMP_WARN() << "dfs: only " << alive.size()
                << " alive storage nodes for replication " << replication
                << "; writing under-replicated";
    replication = static_cast<std::uint32_t>(alive.size());
  }
  std::vector<cluster::NodeId> replicas;
  replicas.reserve(replication);

  if (policy == PlacementPolicy::kScatter) {
    // Round-robin over alive nodes; additional replicas continue the
    // rotation so they land on distinct nodes.
    for (std::uint32_t r = 0; r < replication; ++r) {
      replicas.push_back(
          alive[(scatter_cursor_ + r) % alive.size()]);
    }
    ++scatter_cursor_;
    return replicas;
  }

  // kLocalFirst: writer first (if it is an alive storage node — in the
  // non-collocated case a compute node's writes always go remote).
  if (cluster_.storage_alive(writer) && cluster_.is_storage_node(writer)) {
    replicas.push_back(writer);
  } else {
    replicas.push_back(alive[rng_.below(alive.size())]);
  }
  const std::uint32_t writer_rack = cluster_.rack_of(replicas[0]);
  bool have_offrack = cluster_.spec().racks <= 1;
  while (replicas.size() < replication) {
    // Bias the second replica off-rack when the topology has racks,
    // mirroring HDFS's rack-aware policy.
    cluster::NodeId pick = alive[rng_.below(alive.size())];
    if (std::find(replicas.begin(), replicas.end(), pick) != replicas.end())
      continue;
    if (!have_offrack && cluster_.rack_of(pick) == writer_rack &&
        alive.size() > replicas.size() + 1) {
      // Try again for an off-rack node; give up eventually via the
      // have_offrack flag once one lands off-rack.
      if (rng_.chance(0.75)) continue;
    }
    if (cluster_.rack_of(pick) != writer_rack) have_offrack = true;
    replicas.push_back(pick);
  }
  if (!have_offrack && replication >= 2) {
    // The bias above is probabilistic; a replicated block with every
    // copy in one rack would make a single rack outage unrecoverable.
    // Guarantee the HDFS invariant: if any alive off-rack node exists,
    // force the last replica onto one.
    std::vector<cluster::NodeId> offrack;
    for (cluster::NodeId n : alive) {
      if (cluster_.rack_of(n) != writer_rack &&
          std::find(replicas.begin(), replicas.end(), n) == replicas.end())
        offrack.push_back(n);
    }
    if (!offrack.empty()) {
      replicas.back() = offrack[rng_.below(offrack.size())];
    }
  }
  return replicas;
}

std::vector<NameNode::PlannedBlock> NameNode::plan_write(
    FileId f, cluster::NodeId writer, Bytes size, PlacementPolicy policy) {
  RCMP_CHECK(file_exists(f));
  std::vector<PlannedBlock> plan;
  if (size == 0) return plan;
  const std::uint64_t nblocks = ceil_div(size, block_size_);
  plan.reserve(nblocks);
  // Memory placement: single replica in the writer's process RAM while
  // plan-time headroom lasts; the remainder spills to disk placement.
  // A replicated file always goes to disk — the replicas ARE the
  // durability the caller asked for.
  const bool want_mem = files_[f].tier == cluster::StorageTier::kMemory &&
                        files_[f].replication == 1 &&
                        cluster_.ram_enabled() &&
                        cluster_.compute_alive(writer);
  Bytes mem_headroom =
      want_mem ? cluster_.ram_capacity() - cluster_.ram_used(writer) : 0;
  Bytes left = size;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    PlannedBlock pb;
    pb.size = std::min<Bytes>(left, block_size_);
    left -= pb.size;
    if (want_mem && pb.size <= mem_headroom) {
      pb.tier = cluster::StorageTier::kMemory;
      pb.replicas = {writer};
      mem_headroom -= pb.size;
    } else {
      pb.replicas = pick_replicas(writer, files_[f].replication, policy);
    }
    plan.push_back(std::move(pb));
  }
  return plan;
}

void NameNode::commit_partition(FileId f, PartitionIndex p,
                                std::vector<PlannedBlock> blocks) {
  RCMP_CHECK(file_exists(f));
  RCMP_CHECK(p < files_[f].partitions.size());
  PartitionInfo& part = files_[f].partitions[p];
  const std::uint32_t owner = files_[f].owner;
  OwnerBooks& books = owners_[owner];
  auto charge_disk = [&](const BlockInfo& bi) {
    for (cluster::NodeId n : bi.replicas) {
      used_per_node_[n] += bi.size;
      books.used_per_node[n] += bi.size;
    }
  };
  for (auto& pb : blocks) {
    BlockInfo bi;
    bi.size = pb.size;
    bi.replicas = std::move(pb.replicas);
    bi.tier = pb.tier;
    bi.owner = owner;
    const std::uint64_t id = blocks_.size();
    if (bi.tier == cluster::StorageTier::kMemory) {
      RCMP_CHECK(bi.replicas.size() == 1);
      const cluster::NodeId n = bi.replicas[0];
      if (cluster_.ram_try_charge(n, kRamNamespaceDfs, id, pb.size)) {
        mem_per_node_[n] += pb.size;
        books.mem_per_node[n] += pb.size;
      } else {
        // RAM filled up between plan and commit (a concurrent writer
        // won the headroom): spill this block to disk instead.
        bi.tier = cluster::StorageTier::kDisk;
        charge_disk(bi);
        if (spill_hook_) spill_hook_(n, pb.size);
      }
    } else {
      charge_disk(bi);
    }
    blocks_.push_back(std::move(bi));
    part.blocks.push_back(id);
    part.size += pb.size;
  }
  part.written = true;
}

void NameNode::clear_partition(FileId f, PartitionIndex p,
                               bool preserve_layout) {
  RCMP_CHECK(f < files_.size());
  RCMP_CHECK(p < files_[f].partitions.size());
  PartitionInfo& part = files_[f].partitions[p];
  OwnerBooks& books = owners_[files_[f].owner];
  for (std::uint64_t b : part.blocks) {
    BlockInfo& bi = blocks_[b];
    if (bi.tier == cluster::StorageTier::kMemory) {
      for (cluster::NodeId n : bi.replicas) {
        if (cluster_.compute_alive(n)) {
          RCMP_CHECK(mem_per_node_[n] >= bi.size &&
                     books.mem_per_node[n] >= bi.size);
          mem_per_node_[n] -= bi.size;
          books.mem_per_node[n] -= bi.size;
          cluster_.ram_discharge(n, kRamNamespaceDfs, b);
        }
      }
      bi.tier = cluster::StorageTier::kDisk;
    } else {
      for (cluster::NodeId n : bi.replicas) {
        if (cluster_.storage_alive(n)) {
          RCMP_CHECK(used_per_node_[n] >= bi.size &&
                     books.used_per_node[n] >= bi.size);
          used_per_node_[n] -= bi.size;
          books.used_per_node[n] -= bi.size;
        }
      }
    }
    bi.replicas.clear();
    bi.size = 0;
  }
  ++replica_version_;
  part.blocks.clear();
  part.size = 0;
  part.written = false;
  part.corrupt = false;
  if (!preserve_layout) ++part.layout_version;
}

const PartitionInfo& NameNode::partition(FileId f, PartitionIndex p) const {
  RCMP_CHECK(f < files_.size());
  RCMP_CHECK(p < files_[f].partitions.size());
  return files_[f].partitions[p];
}

const BlockInfo& NameNode::block(std::uint64_t block_id) const {
  RCMP_CHECK(block_id < blocks_.size());
  return blocks_[block_id];
}

bool NameNode::replica_live(const BlockInfo& bi, cluster::NodeId n) const {
  return bi.tier == cluster::StorageTier::kMemory ? cluster_.compute_alive(n)
                                                  : cluster_.storage_alive(n);
}

void NameNode::alive_locations(std::uint64_t block_id,
                               std::vector<cluster::NodeId>* out) const {
  RCMP_CHECK(block_id < blocks_.size());
  const BlockInfo& bi = blocks_[block_id];
  out->clear();
  for (cluster::NodeId n : bi.replicas) {
    if (replica_live(bi, n)) out->push_back(n);
  }
}

bool NameNode::has_live_replica(std::uint64_t block_id) const {
  RCMP_CHECK(block_id < blocks_.size());
  const BlockInfo& bi = blocks_[block_id];
  for (cluster::NodeId n : bi.replicas) {
    if (replica_live(bi, n)) return true;
  }
  return false;
}

void NameNode::mark_corrupt(FileId f, PartitionIndex p) {
  RCMP_CHECK(file_exists(f));
  RCMP_CHECK(p < files_[f].partitions.size());
  files_[f].partitions[p].corrupt = true;
}

bool NameNode::partition_corrupt(FileId f, PartitionIndex p) const {
  return partition(f, p).corrupt;
}

bool NameNode::partition_available(FileId f, PartitionIndex p) const {
  const PartitionInfo& part = partition(f, p);
  if (!part.written) return false;
  for (std::uint64_t b : part.blocks) {
    if (!has_live_replica(b)) return false;
  }
  return true;
}

bool NameNode::file_available(FileId f) const {
  RCMP_CHECK(file_exists(f));
  for (std::uint32_t p = 0; p < files_[f].partitions.size(); ++p) {
    if (!partition_available(f, p)) return false;
  }
  return true;
}

std::vector<LossReport> NameNode::on_node_failure(cluster::NodeId dead) {
  // Account the dead node's stored bytes as gone.
  used_per_node_[dead] = 0;
  for (OwnerBooks& books : owners_) books.used_per_node[dead] = 0;

  // First pass: which written partitions had a disk replica on the lost
  // drive (i.e. the loss is attributable to this failure event)? Memory
  // replicas are untouched here: process RAM survives a disk swap, and
  // whole-node kills wipe them through on_compute_failure.
  std::vector<std::vector<PartitionIndex>> touched(files_.size());
  for (FileId f = 0; f < files_.size(); ++f) {
    if (files_[f].deleted) continue;
    for (PartitionIndex p = 0;
         p < static_cast<PartitionIndex>(files_[f].partitions.size()); ++p) {
      const PartitionInfo& part = files_[f].partitions[p];
      if (!part.written) continue;
      for (std::uint64_t b : part.blocks) {
        if (blocks_[b].tier != cluster::StorageTier::kDisk) continue;
        const auto& reps = blocks_[b].replicas;
        if (std::find(reps.begin(), reps.end(), dead) != reps.end()) {
          touched[f].push_back(p);
          break;
        }
      }
    }
  }

  // The bytes on the lost disk are gone for good: drop its replicas from
  // the metadata. This matters for disk-only failures (the node is still
  // a valid write target, so liveness filtering alone would hide the
  // loss) and for transient rejoins (a node returning with an empty disk
  // must not resurrect stale replicas).
  ++replica_version_;
  for (BlockInfo& bi : blocks_) {
    if (bi.tier != cluster::StorageTier::kDisk) continue;
    bi.replicas.erase(std::remove(bi.replicas.begin(), bi.replicas.end(),
                                  dead),
                      bi.replicas.end());
  }

  // Second pass: report the touched partitions that are now unavailable.
  std::vector<LossReport> reports;
  for (FileId f = 0; f < files_.size(); ++f) {
    LossReport report;
    for (PartitionIndex p : touched[f]) {
      if (!partition_available(f, p)) report.lost_partitions.push_back(p);
    }
    if (!report.lost_partitions.empty()) {
      report.file = f;
      report.file_name = files_[f].name;
      reports.push_back(std::move(report));
    }
  }
  if (!reports.empty()) {
    RCMP_INFO() << "dfs: node " << dead << " failure lost partitions in "
                << reports.size() << " file(s)";
  }
  return reports;
}

std::vector<LossReport> NameNode::on_compute_failure(cluster::NodeId dead) {
  RCMP_CHECK(dead < mem_per_node_.size());
  if (mem_per_node_[dead] == 0) return {};  // no memory replicas here
  mem_per_node_[dead] = 0;
  for (OwnerBooks& books : owners_) books.mem_per_node[dead] = 0;

  // Which written partitions held a memory replica in the dead process?
  // The cluster wiped the physical RAM ledger already (dispatch_failure
  // runs before handlers), so only the metadata needs stripping.
  std::vector<std::vector<PartitionIndex>> touched(files_.size());
  for (FileId f = 0; f < files_.size(); ++f) {
    if (files_[f].deleted) continue;
    for (PartitionIndex p = 0;
         p < static_cast<PartitionIndex>(files_[f].partitions.size()); ++p) {
      const PartitionInfo& part = files_[f].partitions[p];
      if (!part.written) continue;
      for (std::uint64_t b : part.blocks) {
        if (blocks_[b].tier != cluster::StorageTier::kMemory) continue;
        const auto& reps = blocks_[b].replicas;
        if (std::find(reps.begin(), reps.end(), dead) != reps.end()) {
          touched[f].push_back(p);
          break;
        }
      }
    }
  }
  ++replica_version_;
  for (BlockInfo& bi : blocks_) {
    if (bi.tier != cluster::StorageTier::kMemory) continue;
    bi.replicas.erase(std::remove(bi.replicas.begin(), bi.replicas.end(),
                                  dead),
                      bi.replicas.end());
  }

  std::vector<LossReport> reports;
  for (FileId f = 0; f < files_.size(); ++f) {
    LossReport report;
    for (PartitionIndex p : touched[f]) {
      if (!partition_available(f, p)) report.lost_partitions.push_back(p);
    }
    if (!report.lost_partitions.empty()) {
      report.file = f;
      report.file_name = files_[f].name;
      reports.push_back(std::move(report));
    }
  }
  if (!reports.empty()) {
    RCMP_INFO() << "dfs: node " << dead << " compute failure lost "
                << "memory-tier partitions in " << reports.size()
                << " file(s)";
  }
  return reports;
}

Bytes NameNode::used_on_node(cluster::NodeId n) const {
  RCMP_CHECK(n < used_per_node_.size());
  return used_per_node_[n];
}

Bytes NameNode::total_used() const {
  Bytes total = 0;
  for (Bytes b : used_per_node_) total += b;
  return total;
}

Bytes NameNode::mem_used_on_node(cluster::NodeId n) const {
  RCMP_CHECK(n < mem_per_node_.size());
  return mem_per_node_[n];
}

Bytes NameNode::total_mem_used() const {
  Bytes total = 0;
  for (Bytes b : mem_per_node_) total += b;
  return total;
}

std::vector<std::string> NameNode::audit_ledger(std::uint32_t owner,
                                                std::uint64_t* visited) const {
  // Ground truth: recount each tier of every block in scope against its
  // owner's sub-ledger. Replicas on tier-dead nodes are skipped,
  // mirroring the liveness guards in clear_partition (and the failure
  // handlers strip them anyway). One scope row of nodes per owner.
  const bool every = owner == kEveryOwner;
  const std::size_t nodes = used_per_node_.size();
  const std::size_t first = every ? 0 : owner;
  const std::size_t rows =
      every ? owners_.size() : (owner < owners_.size() ? 1 : 0);
  std::vector<Bytes> recount(rows * nodes, 0);
  std::vector<Bytes> recount_mem(rows * nodes, 0);
  auto count = [&](const BlockInfo& bi) {
    const std::size_t row = (bi.owner - first) * nodes;
    if (bi.tier == cluster::StorageTier::kMemory) {
      for (cluster::NodeId n : bi.replicas) {
        if (cluster_.compute_alive(n)) recount_mem[row + n] += bi.size;
      }
    } else {
      for (cluster::NodeId n : bi.replicas) {
        if (cluster_.storage_alive(n)) recount[row + n] += bi.size;
      }
    }
  };
  std::uint64_t walked = 0;
  if (every) {
    for (const BlockInfo& bi : blocks_) count(bi);
    walked = blocks_.size();
  } else if (rows > 0) {
    for (FileId f : owners_[owner].files) {
      for (const PartitionInfo& part : files_[f].partitions) {
        for (std::uint64_t b : part.blocks) count(blocks_[b]);
        walked += part.blocks.size();
      }
    }
  }
  *visited += walked;

  std::vector<std::string> out;
  auto check = [&out](const char* what, std::size_t o, cluster::NodeId n,
                      Bytes ledger, Bytes truth) {
    if (ledger == truth) return;
    std::ostringstream os;
    os << "dfs " << what << " sub-ledger of owner " << o
       << " drifted on node " << n << ": ledger=" << ledger
       << " B, block-table recount=" << truth << " B";
    out.push_back(os.str());
  };
  for (std::size_t r = 0; r < rows; ++r) {
    const OwnerBooks& books = owners_[first + r];
    for (cluster::NodeId n = 0; n < nodes; ++n) {
      check("storage", first + r, n, books.used_per_node[n],
            recount[r * nodes + n]);
      check("memory-tier", first + r, n, books.mem_per_node[n],
            recount_mem[r * nodes + n]);
    }
  }
  // The shared totals against the sum of every owner's sub-ledger: with
  // the recounts above, this ties the totals to the block table.
  for (cluster::NodeId n = 0; n < nodes; ++n) {
    Bytes disk = 0;
    Bytes mem = 0;
    for (const OwnerBooks& books : owners_) {
      disk += books.used_per_node[n];
      mem += books.mem_per_node[n];
    }
    if (disk != used_per_node_[n]) {
      std::ostringstream os;
      os << "dfs storage ledger drifted on node " << n
         << ": total=" << used_per_node_[n]
         << " B, sum of the owners' sub-ledgers=" << disk << " B";
      out.push_back(os.str());
    }
    if (mem != mem_per_node_[n]) {
      std::ostringstream os;
      os << "dfs memory-tier ledger drifted on node " << n
         << ": total=" << mem_per_node_[n]
         << " B, sum of the owners' sub-ledgers=" << mem << " B";
      out.push_back(os.str());
    }
  }
  return out;
}

void NameNode::debug_corrupt_ledger(cluster::NodeId n,
                                    std::int64_t delta) {
  RCMP_CHECK(n < used_per_node_.size());
  used_per_node_[n] += static_cast<Bytes>(delta);  // wraps when negative
}

void NameNode::debug_corrupt_ledger(std::uint32_t owner, cluster::NodeId n,
                                    std::int64_t delta) {
  debug_corrupt_ledger(n, delta);
  books_of(owner).used_per_node[n] += static_cast<Bytes>(delta);
}

}  // namespace rcmp::dfs
