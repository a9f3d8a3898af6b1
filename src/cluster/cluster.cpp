#include "cluster/cluster.hpp"

#include <string>

#include "common/error.hpp"
#include "common/log.hpp"

namespace rcmp::cluster {

Cluster::Cluster(sim::Simulation& sim, res::FlowNetwork& net,
                 ClusterSpec spec)
    : sim_(sim), net_(net), spec_(spec) {
  RCMP_CHECK_MSG(spec_.nodes >= 1, "cluster needs at least one node");
  RCMP_CHECK_MSG(spec_.racks >= 1, "cluster needs at least one rack");
  RCMP_CHECK(spec_.map_slots >= 1 && spec_.reduce_slots >= 1);

  // Pre-size the flow network: 3 links per node plus the fabric and the
  // per-rack uplink/downlink pair; the steady-state flow population is
  // bounded by a few transfers per node (map read, spill, shuffle, DFS
  // pipeline). The memory tier adds one more link per node when on.
  const std::size_t nlinks =
      3u * spec_.nodes + 1u + (spec_.racks > 1 ? 2u * spec_.racks : 0u) +
      (spec_.ram_bytes > 0 ? spec_.nodes : 0u);
  net_.reserve(nlinks, 8u * spec_.nodes);
  sim_.reserve_events(8u * spec_.nodes + 64u);

  disk_.reserve(spec_.nodes);
  up_.reserve(spec_.nodes);
  down_.reserve(spec_.nodes);
  for (std::uint32_t n = 0; n < spec_.nodes; ++n) {
    // Appended in place: GCC 12 raises a false -Wrestrict on
    // "n" + std::to_string(n).
    std::string tag = "n";
    tag += std::to_string(n);
    disk_.push_back(net_.add_link({"disk/" + tag, spec_.disk_bw,
                                   spec_.disk_alpha,
                                   spec_.disk_contention_threshold}));
    up_.push_back(net_.add_link({"up/" + tag, spec_.nic_bw, 0.0}));
    down_.push_back(net_.add_link({"down/" + tag, spec_.nic_bw, 0.0}));
  }
  fabric_ = net_.add_link(
      {"fabric",
       spec_.nic_bw * spec_.nodes / spec_.fabric_oversubscription, 0.0});
  if (spec_.racks > 1) {
    const double per_rack_nodes =
        static_cast<double>(spec_.nodes) / spec_.racks;
    const Rate rack_bw =
        spec_.nic_bw * per_rack_nodes / spec_.rack_oversubscription;
    for (std::uint32_t r = 0; r < spec_.racks; ++r) {
      std::string tag = "r";  // in place, as for "n" above
      tag += std::to_string(r);
      rack_up_.push_back(net_.add_link({"rack_up/" + tag, rack_bw, 0.0}));
      rack_down_.push_back(
          net_.add_link({"rack_down/" + tag, rack_bw, 0.0}));
    }
  }
  if (spec_.ram_bytes > 0) {
    // Memory-tier links go *after* every disk-model link so that a run
    // with ram_bytes == 0 keeps the exact pre-tier link-id layout (the
    // byte-identity guarantee for disabled runs).
    RCMP_CHECK_MSG(spec_.mem_cost_ratio >= 1.0,
                   "mem_cost_ratio must be >= 1");
    mem_.reserve(spec_.nodes);
    for (std::uint32_t n = 0; n < spec_.nodes; ++n) {
      mem_.push_back(
          net_.add_link({"mem/n" + std::to_string(n),
                         spec_.disk_bw * spec_.mem_cost_ratio, 0.0}));
    }
    ram_.resize(spec_.nodes);
    ram_used_.assign(spec_.nodes, 0);
  }

  RCMP_CHECK_MSG(spec_.storage_nodes < spec_.nodes,
                 "need at least one compute node");

  compute_up_.assign(spec_.nodes, true);
  storage_up_.assign(spec_.nodes, true);
  reachable_.assign(spec_.nodes, true);
  failure_epoch_.assign(spec_.nodes, 0);
  cpu_factor_.assign(spec_.nodes, 1.0);
  alive_count_ = spec_.nodes;
  list_alive_storage();
}

void Cluster::list_alive_storage() {
  alive_storage_.clear();
  for (NodeId n = 0; n < spec_.nodes; ++n) {
    if (storage_up_[n] && is_storage_node(n)) alive_storage_.push_back(n);
  }
}

std::uint32_t Cluster::alive_compute_count() const {
  std::uint32_t count = 0;
  for (NodeId n = 0; n < spec_.nodes; ++n) {
    count += compute_up_[n] && is_compute_node(n);
  }
  return count;
}

std::vector<NodeId> Cluster::nodes_in_rack(std::uint32_t rack) const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < spec_.nodes; ++n) {
    if (rack_of(n) == rack) out.push_back(n);
  }
  return out;
}

void Cluster::set_cpu_factor(NodeId n, double factor) {
  RCMP_CHECK(n < spec_.nodes);
  RCMP_CHECK(factor > 0.0);
  cpu_factor_[n] = factor;
}

void Cluster::degrade_disk(NodeId n, double factor) {
  RCMP_CHECK(n < spec_.nodes);
  RCMP_CHECK(factor >= 1.0);
  net_.set_link_capacity(disk_[n], spec_.disk_bw / factor);
}

void Cluster::set_partitioned(NodeId n, bool partitioned) {
  RCMP_CHECK(n < spec_.nodes);
  const bool now_reachable = !partitioned;
  if (reachable_[n] == now_reachable) return;
  reachable_[n] = now_reachable;
  RCMP_INFO() << "t=" << sim_.now() << " cluster: node " << n
              << (partitioned ? " partitioned from the network"
                              : " partition healed");
  if (tracer_ != nullptr) {
    if (partitioned) {
      tracer_->emit(sim_.now(), obs::EventType::kFailure,
                    obs::kKindPartition, n, obs::kNoField, obs::kNoField,
                    0.0);
    } else {
      tracer_->emit(sim_.now(), obs::EventType::kRecovery,
                    obs::kKindPartition, n, obs::kNoField, obs::kNoField,
                    0.0);
    }
  }
  for (auto& h : reachability_handlers_) h(n, now_reachable);
}

std::vector<NodeId> Cluster::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(alive_count_);
  for (NodeId n = 0; n < spec_.nodes; ++n)
    if (alive(n)) out.push_back(n);
  return out;
}

void Cluster::recount_alive() {
  alive_count_ = 0;
  for (NodeId n = 0; n < spec_.nodes; ++n) alive_count_ += alive(n);
}

bool Cluster::ram_try_charge(NodeId n, std::uint32_t ns,
                             std::uint64_t id, Bytes bytes) {
  if (!ram_enabled()) return false;
  RCMP_CHECK(n < spec_.nodes);
  auto& node_ram = ram_[n];
  const RamKey key{ns, id};
  auto it = node_ram.find(key);
  if (it != node_ram.end()) {
    ++it->second.refs;  // de-dup: already resident, shared for free
    return true;
  }
  if (ram_used_[n] + bytes > spec_.ram_bytes) return false;
  node_ram.emplace(key, RamEntry{bytes, 1});
  ram_used_[n] += bytes;
  return true;
}

void Cluster::ram_discharge(NodeId n, std::uint32_t ns,
                            std::uint64_t id) {
  if (!ram_enabled()) return;
  RCMP_CHECK(n < spec_.nodes);
  auto& node_ram = ram_[n];
  auto it = node_ram.find(RamKey{ns, id});
  if (it == node_ram.end()) return;
  if (--it->second.refs == 0) {
    RCMP_CHECK(ram_used_[n] >= it->second.bytes);
    ram_used_[n] -= it->second.bytes;
    node_ram.erase(it);
  }
}

void Cluster::ram_clear_node(NodeId n) {
  if (!ram_enabled()) return;
  RCMP_CHECK(n < spec_.nodes);
  ram_[n].clear();
  ram_used_[n] = 0;
}

void Cluster::dispatch_failure(const FailureEvent& ev) {
  ++failure_events_;
  ++failure_epoch_[ev.node];
  recount_alive();
  // Process memory dies with the process: wipe the node's RAM tier
  // before subscribers run, so storage layers observe the physical
  // truth when they reconcile their ledgers.
  if (ev.lost_compute) ram_clear_node(ev.node);
  if (tracer_ != nullptr) {
    const std::uint8_t kind = ev.whole_node()  ? obs::kKindKill
                              : ev.lost_compute ? obs::kKindCompute
                                                : obs::kKindDisk;
    tracer_->emit(sim_.now(), obs::EventType::kFailure, kind, ev.node,
                  obs::kNoField, obs::kNoField, 0.0);
  }
  for (auto& h : failure_handlers_) h(ev);
}

void Cluster::kill(NodeId n) {
  RCMP_CHECK(n < spec_.nodes);
  RCMP_CHECK_MSG(compute_up_[n] || storage_up_[n],
                 "node killed twice: " << n);
  FailureEvent ev{n, compute_up_[n], storage_up_[n]};
  compute_up_[n] = false;
  storage_up_[n] = false;
  recount_alive();
  list_alive_storage();
  RCMP_INFO() << "t=" << sim_.now() << " cluster: node " << n
              << " failed (" << alive_count_ << " alive)";
  dispatch_failure(ev);
}

void Cluster::fail_compute(NodeId n) {
  RCMP_CHECK(n < spec_.nodes);
  RCMP_CHECK_MSG(compute_up_[n], "compute failed twice: " << n);
  compute_up_[n] = false;
  RCMP_INFO() << "t=" << sim_.now() << " cluster: node " << n
              << " lost compute (storage intact)";
  dispatch_failure(FailureEvent{n, /*lost_compute=*/true,
                                /*lost_storage=*/false});
}

void Cluster::fail_disk(NodeId n) {
  RCMP_CHECK(n < spec_.nodes);
  RCMP_CHECK_MSG(storage_up_[n], "disk failed while node down: " << n);
  // The drive is replaced by an empty one: contents are gone, but the
  // node stays a valid write target, so storage_up_ does not flip.
  RCMP_INFO() << "t=" << sim_.now() << " cluster: node " << n
              << " lost its disk (keeps computing, disk now empty)";
  dispatch_failure(FailureEvent{n, /*lost_compute=*/false,
                                /*lost_storage=*/true});
}

void Cluster::recover(NodeId n) {
  RCMP_CHECK(n < spec_.nodes);
  RCMP_CHECK_MSG(!compute_up_[n] || !storage_up_[n],
                 "recover of a healthy node: " << n);
  compute_up_[n] = true;
  storage_up_[n] = true;
  cpu_factor_[n] = 1.0;
  net_.set_link_capacity(disk_[n], spec_.disk_bw);
  recount_alive();
  list_alive_storage();
  if (!reachable_[n]) set_partitioned(n, false);
  RCMP_INFO() << "t=" << sim_.now() << " cluster: node " << n
              << " recovered with an empty disk (" << alive_count_
              << " alive)";
  if (tracer_ != nullptr) {
    tracer_->emit(sim_.now(), obs::EventType::kRecovery, 0, n,
                  obs::kNoField, obs::kNoField, 0.0);
  }
  for (auto& h : recover_handlers_) h(n);
}

Cluster::Path Cluster::path_disk_read(NodeId n) const {
  return Path{{disk_[n]}, {1.0}};
}

Cluster::Path Cluster::path_disk_write(NodeId n) const {
  return Path{{disk_[n]}, {spec_.disk_write_penalty}};
}

Cluster::Path Cluster::path_tier_write(NodeId n,
                                       StorageTier tier) const {
  if (tier == StorageTier::kMemory) return Path{{mem_[n]}, {1.0}};
  return path_disk_write(n);
}

Cluster::Path Cluster::path_transfer(NodeId src, NodeId dst,
                                     bool read_src_disk,
                                     bool write_dst_disk) const {
  return path_transfer(src, dst, read_src_disk, write_dst_disk,
                       StorageTier::kDisk, StorageTier::kDisk);
}

Cluster::Path Cluster::path_transfer(NodeId src, NodeId dst,
                                     bool read_src, bool write_dst,
                                     StorageTier src_tier,
                                     StorageTier dst_tier) const {
  Path path;
  auto add = [&path](res::LinkId l, double w) {
    path.links.push_back(l);
    path.weights.push_back(w);
  };
  if (read_src) {
    if (src_tier == StorageTier::kMemory) {
      add(mem_[src], 1.0);
    } else {
      add(disk_[src], 1.0);
    }
  }
  if (src != dst) {
    add(up_[src], 1.0);
    if (!rack_up_.empty() && rack_of(src) != rack_of(dst)) {
      // Cross-rack: through the (possibly oversubscribed) rack uplinks
      // and the fabric. Intra-rack traffic stays on the ToR switch.
      add(rack_up_[rack_of(src)], 1.0);
      add(fabric_, 1.0);
      add(rack_down_[rack_of(dst)], 1.0);
    } else if (rack_up_.empty()) {
      add(fabric_, 1.0);
    }
    add(down_[dst], 1.0);
  }
  if (write_dst) {
    if (dst_tier == StorageTier::kMemory) {
      add(mem_[dst], 1.0);  // memory writes carry no journaling penalty
    } else {
      add(disk_[dst], spec_.disk_write_penalty);
    }
  }
  return path;  // possibly empty: memory-to-memory on one node
}

}  // namespace rcmp::cluster
