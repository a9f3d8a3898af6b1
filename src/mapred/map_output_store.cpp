#include "mapred/map_output_store.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace rcmp::mapred {

Bytes MapOutputStore::charged_bytes(const MapOutput& out) {
  if (!(out.total_bytes > 0.0)) return 0;
  return static_cast<Bytes>(std::llround(out.total_bytes));
}

void MapOutputStore::attach_ram(cluster::Cluster* cluster,
                                std::uint32_t ram_namespace) {
  RCMP_CHECK_MSG(ram_namespace >= 1,
                 "RAM namespace 0 is reserved for the DFS");
  ram_cluster_ = cluster;
  ram_ns_ = ram_namespace;
}

void MapOutputStore::ledger_add(const MapOutputKey& key,
                                const MapOutput& out) {
  const Bytes b = charged_bytes(out);
  if (b == 0) return;
  if (out.tier == cluster::StorageTier::kMemory) {
    total_mem_used_ += b;
    node_mem_used_[out.node] += b;
    return;
  }
  total_used_ += b;
  job_used_[key.logical_job] += b;
  node_used_[out.node] += b;
}

void MapOutputStore::ledger_remove(const MapOutputKey& key,
                                   const MapOutput& out) {
  const Bytes b = charged_bytes(out);
  if (b == 0) return;
  if (out.tier == cluster::StorageTier::kMemory) {
    RCMP_CHECK(total_mem_used_ >= b);
    total_mem_used_ -= b;
    auto m = node_mem_used_.find(out.node);
    RCMP_CHECK(m != node_mem_used_.end() && m->second >= b);
    if ((m->second -= b) == 0) node_mem_used_.erase(m);
    if (ram_cluster_ != nullptr) {
      ram_cluster_->ram_discharge(out.node, ram_ns_, key.packed());
    }
    return;
  }
  RCMP_CHECK(total_used_ >= b);
  total_used_ -= b;
  auto j = job_used_.find(key.logical_job);
  RCMP_CHECK(j != job_used_.end() && j->second >= b);
  if ((j->second -= b) == 0) job_used_.erase(j);
  auto n = node_used_.find(out.node);
  RCMP_CHECK(n != node_used_.end() && n->second >= b);
  if ((n->second -= b) == 0) node_used_.erase(n);
}

void MapOutputStore::spill_node(cluster::NodeId node, Bytes need) {
  // Oldest first (ascending key): an iterative chain keeps its newest
  // outputs — the ones the next job shuffles — hot in RAM. Demotion is
  // always safe, pinned or not: the bytes survive, just on disk.
  std::vector<MapOutputKey> keys;
  for (const auto& [key, out] : outputs_) {
    if (out.tier == cluster::StorageTier::kMemory && !out.lost &&
        out.node == node) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const MapOutputKey& a, const MapOutputKey& b) {
              return a.packed() < b.packed();
            });
  for (const MapOutputKey& key : keys) {
    if (ram_cluster_->ram_used(node) + need <=
        ram_cluster_->ram_capacity()) {
      break;
    }
    MapOutput& out = outputs_.at(key);
    ledger_remove(key, out);  // drops the RAM reference
    out.tier = cluster::StorageTier::kDisk;
    ledger_add(key, out);
    if (spill_hook_) spill_hook_(node, charged_bytes(out));
  }
}

void MapOutputStore::put(const MapOutputKey& key, MapOutput output) {
  // Capture per-bucket checksums so shuffle fetches can verify what they
  // read against what the mapper produced.
  if (!output.buckets.empty() && output.bucket_sums.empty()) {
    output.bucket_sums.reserve(output.buckets.size());
    for (const auto& bucket : output.buckets) {
      output.bucket_sums.push_back(checksum_of(bucket));
    }
  }
  auto [it, inserted] = outputs_.try_emplace(key);
  if (!inserted && !it->second.lost) ledger_remove(key, it->second);
  if (output.tier == cluster::StorageTier::kMemory && !output.lost) {
    const Bytes b = charged_bytes(output);
    if (b == 0 || ram_cluster_ == nullptr ||
        !ram_cluster_->ram_enabled()) {
      output.tier = cluster::StorageTier::kDisk;
    } else if (!ram_cluster_->ram_try_charge(output.node, ram_ns_,
                                             key.packed(), b)) {
      // Memory evicts to disk before anything is deleted: demote the
      // oldest resident outputs, then retry; spill the new output
      // itself when headroom still does not suffice.
      spill_node(output.node, b);
      if (!ram_cluster_->ram_try_charge(output.node, ram_ns_,
                                        key.packed(), b)) {
        output.tier = cluster::StorageTier::kDisk;
        if (spill_hook_) spill_hook_(output.node, b);
      }
    }
  }
  if (!output.lost) ledger_add(key, output);
  it->second = std::move(output);
}

bool MapOutputStore::contains(const MapOutputKey& key) const {
  return outputs_.count(key) > 0;
}

const MapOutput* MapOutputStore::find(const MapOutputKey& key) const {
  auto it = outputs_.find(key);
  return it == outputs_.end() ? nullptr : &it->second;
}

bool MapOutputStore::usable(const MapOutputKey& key,
                            std::uint64_t input_layout_version,
                            const cluster::Cluster& cluster) const {
  const MapOutput* out = find(key);
  if (out == nullptr || out->lost) return false;
  // Tier-dependent liveness. Disk: persisted data survives a
  // compute-only failure of its node, only the storage side matters.
  // Memory: the bytes live in the producing process, so reuse is legal
  // only while that process is alive — a memory output must never
  // satisfy Fig. 5 reuse as if it were durable on a dead node.
  if (out->tier == cluster::StorageTier::kMemory) {
    if (!cluster.compute_alive(out->node)) return false;
  } else if (!cluster.storage_alive(out->node)) {
    return false;
  }
  return out->input_layout_version == input_layout_version;
}

void MapOutputStore::drop(const MapOutputKey& key) {
  auto it = outputs_.find(key);
  if (it == outputs_.end()) return;
  if (!it->second.lost) ledger_remove(key, it->second);
  outputs_.erase(it);
  ++erasures_;
}

void MapOutputStore::mark_lost(const MapOutputKey& key) {
  auto it = outputs_.find(key);
  if (it == outputs_.end() || it->second.lost) return;
  ledger_remove(key, it->second);
  it->second.lost = true;
}

BucketState MapOutputStore::bucket_state(const MapOutputKey& key,
                                         std::uint32_t partition) const {
  const MapOutput* out = find(key);
  if (out == nullptr) return BucketState::kIntact;  // nothing stored
  return bucket_state(*out, partition);
}

BucketState MapOutputStore::bucket_state(const MapOutput& out,
                                         std::uint32_t partition) {
  if (out.corrupt) return BucketState::kCorrupt;
  // Virtual-size mode carries no payload; the corruption marker above
  // is the whole integrity story.
  if (out.buckets.empty()) return BucketState::kIntact;
  // Payload present but the requested bucket was never checksummed:
  // the read cannot be verified, so it must not pass as intact.
  if (partition >= out.buckets.size() ||
      partition >= out.bucket_sums.size()) {
    return BucketState::kMissingSum;
  }
  return checksum_of(out.buckets[partition]) == out.bucket_sums[partition]
             ? BucketState::kIntact
             : BucketState::kCorrupt;
}

bool MapOutputStore::corrupt_one(Rng& rng) {
  // Deterministic victim choice: unordered_map order is not portable, so
  // sort candidate keys before drawing.
  std::vector<MapOutputKey> keys;
  for (const auto& [key, out] : outputs_) {
    if (!out.lost) keys.push_back(key);
  }
  if (keys.empty()) return false;
  std::sort(keys.begin(), keys.end(),
            [](const MapOutputKey& a, const MapOutputKey& b) {
              return a.packed() < b.packed();
            });
  MapOutput& out = outputs_.at(keys[rng.below(keys.size())]);
  std::vector<std::size_t> nonempty;
  for (std::size_t b = 0; b < out.buckets.size(); ++b) {
    if (!out.buckets[b].empty()) nonempty.push_back(b);
  }
  if (nonempty.empty()) {
    // Virtual-size mode (or an empty payload): flag-based corruption.
    out.corrupt = true;
    return true;
  }
  auto& bucket = out.buckets[nonempty[rng.below(nonempty.size())]];
  bucket[bucket.size() / 2].value ^= 0xdeadbeefULL;
  return true;
}

void MapOutputStore::drop_job(std::uint32_t logical_job) {
  for (auto it = outputs_.begin(); it != outputs_.end();) {
    if (it->first.logical_job == logical_job) {
      if (!it->second.lost) ledger_remove(it->first, it->second);
      it = outputs_.erase(it);
      ++erasures_;
    } else {
      ++it;
    }
  }
}

Bytes MapOutputStore::evict_upto(std::uint32_t logical_job, Bytes bytes) {
  // A pinned job's outputs may be the sole surviving copy on the live
  // recompute frontier — deleting them would force a deeper cascade
  // than the replan planned for (or lose the chain entirely).
  if (job_pinned(logical_job)) return 0;
  std::vector<MapOutputKey> keys;
  for (const auto& [key, out] : outputs_) {
    // Only disk-tier outputs are charged against the shared budget;
    // memory outputs are reclaimed by demotion under RAM pressure.
    if (key.logical_job == logical_job && !out.lost &&
        out.tier == cluster::StorageTier::kDisk) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const MapOutputKey& a, const MapOutputKey& b) {
              return a.packed() > b.packed();
            });
  Bytes freed = 0;
  for (const MapOutputKey& key : keys) {
    if (freed >= bytes) break;
    auto it = outputs_.find(key);
    freed += charged_bytes(it->second);
    ledger_remove(key, it->second);
    outputs_.erase(it);
    ++erasures_;
  }
  return freed;
}

void MapOutputStore::on_node_failure(cluster::NodeId dead) {
  for (auto& [key, out] : outputs_) {
    if (out.node == dead && !out.lost &&
        out.tier == cluster::StorageTier::kDisk) {
      ledger_remove(key, out);
      out.lost = true;
    }
  }
}

void MapOutputStore::on_compute_failure(cluster::NodeId dead) {
  for (auto& [key, out] : outputs_) {
    if (out.node == dead && !out.lost &&
        out.tier == cluster::StorageTier::kMemory) {
      // The cluster wiped the node's RAM ledger already; the discharge
      // inside ledger_remove is an idempotent no-op.
      ledger_remove(key, out);
      out.lost = true;
    }
  }
}

Bytes MapOutputStore::used_on_node(cluster::NodeId n) const {
  auto it = node_used_.find(n);
  return it == node_used_.end() ? 0 : it->second;
}

Bytes MapOutputStore::mem_used_on_node(cluster::NodeId n) const {
  auto it = node_mem_used_.find(n);
  return it == node_mem_used_.end() ? 0 : it->second;
}

Bytes MapOutputStore::used_for_job(std::uint32_t logical_job) const {
  auto it = job_used_.find(logical_job);
  return it == job_used_.end() ? 0 : it->second;
}

std::vector<std::string> MapOutputStore::audit_ledger() const {
  // Ground truth: rescan every stored, not-lost output, per tier.
  Bytes total = 0;
  Bytes total_mem = 0;
  std::unordered_map<std::uint32_t, Bytes> per_job;
  std::unordered_map<cluster::NodeId, Bytes> per_node;
  std::unordered_map<cluster::NodeId, Bytes> per_node_mem;
  for (const auto& [key, out] : outputs_) {
    if (out.lost) continue;
    const Bytes b = charged_bytes(out);
    if (b == 0) continue;
    if (out.tier == cluster::StorageTier::kMemory) {
      total_mem += b;
      per_node_mem[out.node] += b;
    } else {
      total += b;
      per_job[key.logical_job] += b;
      per_node[out.node] += b;
    }
  }
  std::vector<std::string> out;
  if (total != total_used_) {
    std::ostringstream os;
    os << "map-output ledger drifted: total ledger=" << total_used_
       << " B, recount=" << total << " B";
    out.push_back(os.str());
  }
  if (total_mem != total_mem_used_) {
    std::ostringstream os;
    os << "map-output memory-tier ledger drifted: total ledger="
       << total_mem_used_ << " B, recount=" << total_mem << " B";
    out.push_back(os.str());
  }
  auto compare = [&out](const char* what, const auto& ledger,
                        const auto& recount) {
    for (const auto& [id, b] : recount) {
      auto it = ledger.find(id);
      const Bytes have = it == ledger.end() ? 0 : it->second;
      if (have != b) {
        std::ostringstream os;
        os << "map-output ledger drifted for " << what << " " << id
           << ": ledger=" << have << " B, recount=" << b << " B";
        out.push_back(os.str());
      }
    }
    for (const auto& [id, b] : ledger) {
      if (b != 0 && recount.find(id) == recount.end()) {
        std::ostringstream os;
        os << "map-output ledger charges " << what << " " << id << " "
           << b << " B but no live output matches";
        out.push_back(os.str());
      }
    }
  };
  compare("job", job_used_, per_job);
  compare("node", node_used_, per_node);
  compare("node (memory tier)", node_mem_used_, per_node_mem);
  return out;
}

}  // namespace rcmp::mapred
