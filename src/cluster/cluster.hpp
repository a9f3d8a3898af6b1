// Cluster topology: nodes with disks, NICs, slots; an oversubscribable
// fabric; and decoupled failure semantics.
//
// The reproduction targets the paper's collocated setting: every node is
// both a compute node (map/reduce slots) and a storage node (its disk
// holds DFS blocks and persisted map outputs). Killing a node therefore
// destroys computation and storage at once — the property that makes
// recomputation cascades necessary (paper §II).
//
// Beyond the paper's whole-node kill, the chaos engine needs the two
// failure dimensions separately:
//  - compute failure: the TaskTracker dies, running tasks are lost, but
//    the DataNode (and every persisted byte) survives;
//  - disk failure: the drive is swapped for an empty one — all persisted
//    state is lost, but the node keeps computing and the fresh disk
//    immediately accepts new writes;
//  - kill: both at once (the paper's model);
//  - recover: a fully-killed node rejoins with an empty disk and its
//    slots become usable again.
//
// Links are registered in a shared FlowNetwork; path_* helpers build the
// link paths used by the engine for each kind of transfer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "obs/trace.hpp"
#include "resources/flow_network.hpp"
#include "sim/simulation.hpp"

namespace rcmp::cluster {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Where a persisted byte lives. Memory is ~100x faster than disk but
/// volatile: it dies with the *process* (compute failure), while disk
/// contents die only with the drive. The tier of a replica therefore
/// decides both its transfer path and its liveness predicate.
enum class StorageTier : std::uint8_t { kDisk = 0, kMemory = 1 };

struct ClusterSpec {
  std::uint32_t nodes = 10;
  std::uint32_t racks = 1;

  Rate disk_bw = 100e6;  // bytes/s per node (one commodity HDD)
  /// Seek-contention degradation coefficient for disks (see
  /// FlowNetwork); calibrated in workloads/presets.
  double disk_alpha = 0.55;
  /// Concurrent streams a disk absorbs before seek degradation starts.
  double disk_contention_threshold = 4.0;
  /// Disk work per byte written relative to a byte read (HDFS writes
  /// are costlier: journaling, filesystem overhead — paper ref [22]).
  double disk_write_penalty = 1.4;
  Rate nic_bw = 10e9 / 8.0;  // 10GbE full duplex
  /// fabric capacity = nodes * nic_bw / oversubscription.
  double fabric_oversubscription = 1.0;
  /// With racks > 1, each rack gets an uplink/downlink to the fabric of
  /// capacity (nodes/racks) * nic_bw / rack_oversubscription. Intra-rack
  /// traffic stays on the (non-blocking) ToR switch. 1.0 = full
  /// bisection; typical datacenters are 2-10x oversubscribed (paper
  /// SIII cites Benson et al.).
  double rack_oversubscription = 1.0;

  std::uint32_t map_slots = 1;
  std::uint32_t reduce_slots = 1;

  /// Per-node RAM available for the in-memory storage tier (M3R-style
  /// ~100x-cheaper persistence, PAPERS.md). 0 disables the tier
  /// entirely: no mem links are created and runs stay byte-identical to
  /// the disk-only model.
  Bytes ram_bytes = 0;
  /// Memory bandwidth relative to disk: mem link rate = disk_bw *
  /// mem_cost_ratio. M3R's headline number is ~100x.
  double mem_cost_ratio = 100.0;

  /// Non-collocated deployments (paper SII: "Our contributions directly
  /// apply also to the non-collocated case where storage and
  /// computation are separated"): the first `storage_nodes` nodes hold
  /// DFS data and run no tasks; the rest compute and keep only local
  /// scratch (map outputs). 0 = collocated (every node does both).
  std::uint32_t storage_nodes = 0;
};

/// What a single failure event took away. Disk-only failures report
/// lost_storage without flipping storage_alive(): the drive is replaced
/// by an empty one, so the contents are gone but the node keeps
/// accepting writes.
struct FailureEvent {
  NodeId node = kInvalidNode;
  bool lost_compute = false;
  bool lost_storage = false;
  bool whole_node() const { return lost_compute && lost_storage; }
};

class Cluster {
 public:
  Cluster(sim::Simulation& sim, res::FlowNetwork& net, ClusterSpec spec);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterSpec& spec() const { return spec_; }
  std::uint32_t size() const { return spec_.nodes; }
  /// Fully-healthy nodes (compute and storage both up).
  std::uint32_t alive_count() const { return alive_count_; }
  bool alive(NodeId n) const { return compute_up_[n] && storage_up_[n]; }
  /// Can this node run tasks right now?
  bool compute_alive(NodeId n) const { return compute_up_[n]; }
  /// Can this node's disk serve and accept data right now?
  bool storage_alive(NodeId n) const { return storage_up_[n]; }
  std::uint32_t rack_of(NodeId n) const { return n % spec_.racks; }
  /// All nodes in `rack`, ascending.
  std::vector<NodeId> nodes_in_rack(std::uint32_t rack) const;

  /// Bumped every time `n` suffers any failure; lets delayed recovery
  /// callbacks detect that the node failed again in the meantime.
  std::uint64_t failure_epoch(NodeId n) const { return failure_epoch_[n]; }

  /// Failure events dispatched so far (kill, compute-only or disk-only,
  /// any node). Bumped before the first handler runs, so every handler
  /// of one event reads the same ordinal.
  std::uint64_t failure_events() const { return failure_events_; }

  /// All currently fully-alive node ids, ascending.
  std::vector<NodeId> alive_nodes() const;

  bool collocated() const { return spec_.storage_nodes == 0; }
  /// May this node hold DFS block replicas?
  bool is_storage_node(NodeId n) const {
    return collocated() || n < spec_.storage_nodes;
  }
  /// May this node run tasks?
  bool is_compute_node(NodeId n) const {
    return collocated() || n >= spec_.storage_nodes;
  }
  /// Alive nodes allowed to hold DFS data, ascending. Kept up to date
  /// by kill() and recover() before any handler runs.
  const std::vector<NodeId>& alive_storage_nodes() const {
    return alive_storage_;
  }
  std::uint32_t alive_compute_count() const;

  /// Straggler injection: slow a node's computation by `factor` (its
  /// tasks' CPU time is multiplied by it). 1.0 = healthy.
  void set_cpu_factor(NodeId n, double factor);
  double cpu_factor(NodeId n) const { return cpu_factor_[n]; }

  /// Straggler injection: degrade a node's disk to 1/factor of its
  /// nominal bandwidth (a failing drive).
  void degrade_disk(NodeId n, double factor);

  /// Network partition injection: an unreachable node is fully healthy
  /// but cut off from the rest of the cluster — its heartbeats are lost
  /// and nothing can read from it until the partition heals (the chaos
  /// engine's kNetworkPartition mode). Reachability handlers fire on
  /// every flip; recover() also heals a partition.
  void set_partitioned(NodeId n, bool partitioned);
  bool reachable(NodeId n) const { return reachable_[n]; }

  /// Kill a node: storage and compute are lost simultaneously (the paper
  /// kills TaskTracker + DataNode together). Subscribers registered via
  /// on_failure() are notified immediately, in registration order —
  /// storage layers subscribe before the engine so loss reports are
  /// ready when the engine reacts.
  void kill(NodeId n);

  /// Compute-only failure: the node's tasks die but every persisted byte
  /// (DFS replicas, map outputs) stays readable. alive(n) turns false;
  /// storage_alive(n) stays true.
  void fail_compute(NodeId n);

  /// Disk-only failure: the drive is swapped for an empty one. All data
  /// on it is lost (subscribers see lost_storage and must invalidate
  /// replicas / map outputs), but the node keeps computing and the fresh
  /// disk accepts new writes — storage_alive(n) stays true.
  void fail_disk(NodeId n);

  /// Rejoin after a failure: compute and storage come back up with an
  /// empty disk and nominal cpu/disk performance. The caller (middleware
  /// via on_recover) is responsible for re-registering slots; the DFS
  /// holds no replicas on it until new writes land.
  void recover(NodeId n);

  using FailureHandler = std::function<void(const FailureEvent&)>;
  /// Fires for every failure flavor (kill, compute-only, disk-only).
  void on_failure(FailureHandler h) {
    failure_handlers_.push_back(std::move(h));
  }

  using RecoverHandler = std::function<void(NodeId)>;
  void on_recover(RecoverHandler h) {
    recover_handlers_.push_back(std::move(h));
  }

  using ReachabilityHandler = std::function<void(NodeId, bool)>;
  /// Fires whenever a node's reachability flips (partition onset with
  /// false, heal with true).
  void on_reachability(ReachabilityHandler h) {
    reachability_handlers_.push_back(std::move(h));
  }

  res::LinkId disk(NodeId n) const { return disk_[n]; }
  res::LinkId nic_up(NodeId n) const { return up_[n]; }
  res::LinkId nic_down(NodeId n) const { return down_[n]; }
  res::LinkId fabric() const { return fabric_; }
  bool has_rack_links() const { return !rack_up_.empty(); }
  /// Memory-tier link; only valid when ram_enabled().
  res::LinkId mem(NodeId n) const { return mem_[n]; }

  // --- memory-tier ledger --------------------------------------------
  //
  // The cluster owns the physical RAM budget so that every consumer
  // (DFS blocks, per-chain map-output stores) charges against the same
  // per-node pool. Entries are keyed by (namespace, id) and refcounted:
  // a second charge for a key already resident is de-duplication — the
  // bytes are held once, shared across chains — and always succeeds.
  bool ram_enabled() const { return spec_.ram_bytes > 0; }
  Bytes ram_capacity() const { return spec_.ram_bytes; }
  Bytes ram_used(NodeId n) const {
    return ram_used_.empty() ? 0 : ram_used_[n];
  }
  /// Charge `bytes` of RAM on `n` under (ns, id). Returns false when the
  /// tier is disabled or the node lacks headroom *and* the key is not
  /// already resident (the caller must then spill to disk). A charge
  /// for a resident key bumps its refcount and is free.
  bool ram_try_charge(NodeId n, std::uint32_t ns, std::uint64_t id,
                      Bytes bytes);
  /// Drop one reference to (ns, id) on `n`; frees the bytes when the
  /// last reference goes. No-op when the key is absent (idempotent —
  /// a compute failure may have wiped the node wholesale already).
  void ram_discharge(NodeId n, std::uint32_t ns, std::uint64_t id);
  /// RAM is process memory: a compute failure loses everything resident
  /// on the node at once. Called internally on every lost_compute
  /// failure, before handlers fire.
  void ram_clear_node(NodeId n);

  /// A link path with aligned work weights (disk writes are penalized
  /// by ClusterSpec::disk_write_penalty), held inline: the longest path
  /// built here (cross-rack, disk read plus disk write) is exactly
  /// res::kMaxHops links.
  struct Path {
    res::HopList<res::LinkId> links;
    res::HopList<double> weights;
  };

  /// Path for a task on `n` reading from its local disk.
  Path path_disk_read(NodeId n) const;
  /// Path for a task on `n` writing to its local disk.
  Path path_disk_write(NodeId n) const;
  /// Tier-dispatched local write: the disk path as above, or the mem
  /// link (no write penalty) for the memory tier.
  Path path_tier_write(NodeId n, StorageTier tier) const;

  /// Path for moving bytes from src to dst. read_src_disk: bytes
  /// originate on src's disk (vs. src memory); write_dst_disk: bytes are
  /// persisted on dst's disk (vs. streamed into a task). A src==dst
  /// transfer touching the disk on both ends crosses the disk link
  /// twice, charging read + write against the same spindle.
  Path path_transfer(NodeId src, NodeId dst, bool read_src_disk,
                     bool write_dst_disk) const;
  /// Tiered overload: each touched endpoint goes through its tier's
  /// storage link (memory endpoints carry no write penalty).
  Path path_transfer(NodeId src, NodeId dst, bool read_src,
                     bool write_dst, StorageTier src_tier,
                     StorageTier dst_tier) const;

  sim::Simulation& sim() { return sim_; }
  res::FlowNetwork& net() { return net_; }

  /// Attach a tracer: every failure and recovery is emitted into it.
  /// Null (the default) detaches; the cost is one pointer compare.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }

 private:
  void dispatch_failure(const FailureEvent& ev);
  void recount_alive();
  void list_alive_storage();

  struct RamKey {
    std::uint32_t ns;
    std::uint64_t id;
    bool operator==(const RamKey& o) const {
      return ns == o.ns && id == o.id;
    }
  };
  struct RamKeyHash {
    std::size_t operator()(const RamKey& k) const {
      std::size_t h = std::hash<std::uint64_t>{}(k.id);
      return h ^ (std::hash<std::uint32_t>{}(k.ns) + 0x9e3779b9u +
                  (h << 6) + (h >> 2));
    }
  };
  struct RamEntry {
    Bytes bytes = 0;
    std::uint32_t refs = 0;
  };

  sim::Simulation& sim_;
  res::FlowNetwork& net_;
  ClusterSpec spec_;
  std::vector<res::LinkId> disk_, up_, down_;
  std::vector<res::LinkId> rack_up_, rack_down_;  // per rack (if > 1)
  std::vector<res::LinkId> mem_;  // per node, only when ram_enabled()
  std::vector<std::unordered_map<RamKey, RamEntry, RamKeyHash>> ram_;
  std::vector<Bytes> ram_used_;
  res::LinkId fabric_ = 0;
  std::vector<bool> compute_up_, storage_up_, reachable_;
  std::vector<NodeId> alive_storage_;  // storage_up_ && is_storage_node
  std::vector<std::uint64_t> failure_epoch_;
  std::uint64_t failure_events_ = 0;
  std::vector<double> cpu_factor_;
  std::uint32_t alive_count_ = 0;
  std::vector<FailureHandler> failure_handlers_;
  std::vector<RecoverHandler> recover_handlers_;
  std::vector<ReachabilityHandler> reachability_handlers_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace rcmp::cluster
