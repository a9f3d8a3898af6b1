#include "mapred/map_output_store.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/error.hpp"

namespace rcmp::mapred {

Bytes MapOutputStore::charged_bytes(const MapOutput& out) {
  // std::llround without its libm call, which would otherwise be about
  // half of the recount's cost per output: truncate, then round the
  // fractional part (exact: b - whole is representable) half away from
  // zero.
  const double b = out.total_bytes;
  if (!(b > 0.0)) return 0;
  RCMP_CHECK(b < 0x1p63);
  const auto whole = static_cast<std::int64_t>(b);
  return static_cast<Bytes>(whole) +
         (b - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}

void MapOutputStore::attach_ram(cluster::Cluster* cluster,
                                std::uint32_t ram_namespace) {
  RCMP_CHECK_MSG(ram_namespace >= 1,
                 "RAM namespace 0 is reserved for the DFS");
  ram_cluster_ = cluster;
  ram_ns_ = ram_namespace;
}

namespace {

/// The ledger entry of `id`, growing the dense ledger to reach it.
inline Bytes& entry(std::vector<Bytes>& ledger, std::size_t id) {
  if (id >= ledger.size()) [[unlikely]] ledger.resize(id + 1, 0);
  return ledger[id];
}

Bytes entry_or_zero(const std::vector<Bytes>& ledger, std::size_t id) {
  return id < ledger.size() ? ledger[id] : 0;
}

/// Take `b` bytes off the ledger entry of `id`, which must hold them.
void discharge(std::vector<Bytes>& ledger, std::size_t id, Bytes b) {
  RCMP_CHECK(id < ledger.size() && ledger[id] >= b);
  ledger[id] -= b;
}

/// Orders slot pointers by ascending key: victim choices sort with it,
/// so no result depends on slot order.
constexpr auto by_key = [](const auto* a, const auto* b) {
  return a->key.packed() < b->key.packed();
};

}  // namespace

std::uint32_t MapOutputStore::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t id = free_slots_.back();
    free_slots_.pop_back();
    return id;
  }
  if (slots_used_ % kChunkSlots == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return slots_used_++;
}

void MapOutputStore::erase(Slot& s) {
  if (!s.out.lost) ledger_remove(s.key, s.out);
  const auto it = index_.find(s.key);
  free_slots_.push_back(it->second);
  index_.erase(it);
  s.out = MapOutput{};
  s.live = false;
  ++erasures_;
}

void MapOutputStore::ledger_add(const MapOutputKey& key,
                                const MapOutput& out) {
  const Bytes b = charged_bytes(out);
  if (b == 0) return;
  // The per-node ledgers are indexed by node id: a charge must name one.
  RCMP_CHECK(out.node != cluster::kInvalidNode);
  if (out.tier == cluster::StorageTier::kMemory) {
    total_mem_used_ += b;
    entry(node_mem_used_, out.node) += b;
    return;
  }
  total_used_ += b;
  entry(job_used_, key.logical_job) += b;
  entry(node_used_, out.node) += b;
}

void MapOutputStore::ledger_remove(const MapOutputKey& key,
                                   const MapOutput& out) {
  const Bytes b = charged_bytes(out);
  if (b == 0) return;
  if (out.tier == cluster::StorageTier::kMemory) {
    RCMP_CHECK(total_mem_used_ >= b);
    total_mem_used_ -= b;
    discharge(node_mem_used_, out.node, b);
    if (ram_cluster_ != nullptr) {
      ram_cluster_->ram_discharge(out.node, ram_ns_, key.packed());
    }
    return;
  }
  RCMP_CHECK(total_used_ >= b);
  total_used_ -= b;
  discharge(job_used_, key.logical_job, b);
  discharge(node_used_, out.node, b);
}

void MapOutputStore::spill_node(cluster::NodeId node, Bytes need) {
  // Oldest first (ascending key): an iterative chain keeps its newest
  // outputs — the ones the next job shuffles — hot in RAM. Demotion is
  // always safe, pinned or not: the bytes survive, just on disk.
  std::vector<Slot*> victims;
  for_each_live(*this, [&](Slot& s) {
    if (s.out.tier == cluster::StorageTier::kMemory && !s.out.lost &&
        s.out.node == node) {
      victims.push_back(&s);
    }
  });
  std::sort(victims.begin(), victims.end(), by_key);
  for (Slot* s : victims) {
    if (ram_cluster_->ram_used(node) + need <=
        ram_cluster_->ram_capacity()) {
      break;
    }
    ledger_remove(s->key, s->out);  // drops the RAM reference
    s->out.tier = cluster::StorageTier::kDisk;
    ledger_add(s->key, s->out);
    if (spill_hook_) spill_hook_(node, charged_bytes(s->out));
  }
}

void MapOutputStore::put(const MapOutputKey& key, MapOutput output) {
  // Capture per-bucket checksums so shuffle fetches can verify what they
  // read against what the mapper produced.
  if (!output.buckets.empty() && output.bucket_sums.empty()) {
    output.bucket_sums = bucket_checksums(output.buckets);
  }
  auto [it, inserted] = index_.try_emplace(key);
  if (inserted) {
    it->second = acquire_slot();
    Slot& s = slot(it->second);
    s.key = key;
    s.live = true;
  }
  MapOutput& stored = slot(it->second).out;
  if (!inserted && !stored.lost) ledger_remove(key, stored);
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
  stored = std::move(output);
}

bool MapOutputStore::contains(const MapOutputKey& key) const {
  return index_.count(key) > 0;
}

const MapOutput* MapOutputStore::find(const MapOutputKey& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : &slot(it->second).out;
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
  auto it = index_.find(key);
  if (it == index_.end()) return;
  erase(slot(it->second));
}

void MapOutputStore::mark_lost(const MapOutputKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  MapOutput& out = slot(it->second).out;
  if (out.lost) return;
  ledger_remove(key, out);
  out.lost = true;
}

BucketState MapOutputStore::bucket_state(const MapOutputKey& key,
                                         std::uint32_t partition) const {
  const MapOutput* out = find(key);
  if (out == nullptr) return BucketState::kIntact;  // nothing stored
  return bucket_state(*out, partition);
}

namespace {

/// bucket_state's verdict when the marker or the output's shape decides
/// it; nullopt when the bucket's checksum must be compared.
std::optional<BucketState> verdict_without_sum(const MapOutput& out,
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
  return std::nullopt;
}

BucketState verdict_of_sum(const MapOutput& out, std::uint32_t partition,
                           const Checksum& sum) {
  return sum == out.bucket_sums[partition] ? BucketState::kIntact
                                           : BucketState::kCorrupt;
}

}  // namespace

BucketState MapOutputStore::bucket_state(const MapOutput& out,
                                         std::uint32_t partition) {
  if (const auto v = verdict_without_sum(out, partition)) return *v;
  return verdict_of_sum(out, partition, checksum_of(out.buckets[partition]));
}

void MapOutputStore::bucket_states(std::span<const MapOutput* const> outs,
                                   std::uint32_t partition,
                                   std::span<PendingBucket> pending,
                                   std::span<BucketState> verdicts) {
  // Buckets the marker or the output's shape decides get their verdict
  // here; the rest queue in `pending`, in order, for the packed sums.
  PackedChecksums packed;
  std::size_t queued = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (outs[i] == nullptr) continue;
    if (const auto v = verdict_without_sum(*outs[i], partition)) {
      verdicts[i] = *v;
      continue;
    }
    PendingBucket& p = pending[queued++];
    p = {i, Checksum{}};
    packed.add(p.sum, outs[i]->buckets[partition]);
  }
  packed.finish();
  for (const PendingBucket& p : pending.first(queued)) {
    verdicts[p.out] = verdict_of_sum(*outs[p.out], partition, p.sum);
  }
}

bool MapOutputStore::corrupt_one(Rng& rng) {
  // Deterministic victim choice: slot order depends on the store's
  // history, so sort candidates by key before drawing.
  std::vector<Slot*> candidates;
  for_each_live(*this, [&](Slot& s) {
    if (!s.out.lost) candidates.push_back(&s);
  });
  if (candidates.empty()) return false;
  std::sort(candidates.begin(), candidates.end(), by_key);
  MapOutput& out = candidates[rng.below(candidates.size())]->out;
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
  for_each_live(*this, [&](Slot& s) {
    if (s.key.logical_job == logical_job) erase(s);
  });
}

Bytes MapOutputStore::evict_upto(std::uint32_t logical_job, Bytes bytes) {
  // A pinned job's outputs may be the sole surviving copy on the live
  // recompute frontier — deleting them would force a deeper cascade
  // than the replan planned for (or lose the chain entirely).
  if (job_pinned(logical_job)) return 0;
  std::vector<Slot*> victims;
  for_each_live(*this, [&](Slot& s) {
    // Only disk-tier outputs are charged against the shared budget;
    // memory outputs are reclaimed by demotion under RAM pressure.
    if (s.key.logical_job == logical_job && !s.out.lost &&
        s.out.tier == cluster::StorageTier::kDisk) {
      victims.push_back(&s);
    }
  });
  std::sort(victims.begin(), victims.end(),
            [](const Slot* a, const Slot* b) { return by_key(b, a); });
  Bytes freed = 0;
  for (Slot* s : victims) {
    if (freed >= bytes) break;
    freed += charged_bytes(s->out);
    erase(*s);
  }
  return freed;
}

void MapOutputStore::on_node_failure(cluster::NodeId dead) {
  for_each_live(*this, [&](Slot& s) {
    if (s.out.node == dead && !s.out.lost &&
        s.out.tier == cluster::StorageTier::kDisk) {
      ledger_remove(s.key, s.out);
      s.out.lost = true;
    }
  });
}

void MapOutputStore::on_compute_failure(cluster::NodeId dead) {
  for_each_live(*this, [&](Slot& s) {
    if (s.out.node == dead && !s.out.lost &&
        s.out.tier == cluster::StorageTier::kMemory) {
      // The cluster wiped the node's RAM ledger already; the discharge
      // inside ledger_remove is an idempotent no-op.
      ledger_remove(s.key, s.out);
      s.out.lost = true;
    }
  });
}

Bytes MapOutputStore::used_on_node(cluster::NodeId n) const {
  return entry_or_zero(node_used_, n);
}

Bytes MapOutputStore::mem_used_on_node(cluster::NodeId n) const {
  return entry_or_zero(node_mem_used_, n);
}

Bytes MapOutputStore::used_for_job(std::uint32_t logical_job) const {
  return entry_or_zero(job_used_, logical_job);
}

std::vector<std::string> MapOutputStore::audit_ledger() const {
  // Ground truth: rescan every stored, not-lost output, per tier, into
  // dense per-id recounts sized like the ledgers they are checked
  // against.
  Bytes total = 0;
  Bytes total_mem = 0;
  std::vector<Bytes> per_job(job_used_.size(), 0);
  std::vector<Bytes> per_node(node_used_.size(), 0);
  std::vector<Bytes> per_node_mem(node_mem_used_.size(), 0);
  for_each_live(*this, [&](const Slot& s) {
    if (s.out.lost) return;
    const Bytes b = charged_bytes(s.out);
    if (b == 0) return;
    if (s.out.tier == cluster::StorageTier::kMemory) {
      total_mem += b;
      entry(per_node_mem, s.out.node) += b;
    } else {
      total += b;
      entry(per_job, s.key.logical_job) += b;
      entry(per_node, s.out.node) += b;
    }
  });
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
  // Id by id, ascending. A recount of 0 means no live output matches
  // the id, so a nonzero ledger entry there is a stray charge.
  auto compare = [&out](const char* what, const std::vector<Bytes>& ledger,
                        const std::vector<Bytes>& recount) {
    const std::size_t ids = std::max(ledger.size(), recount.size());
    for (std::size_t id = 0; id < ids; ++id) {
      const Bytes have = entry_or_zero(ledger, id);
      const Bytes want = entry_or_zero(recount, id);
      if (have == want) continue;
      std::ostringstream os;
      if (want == 0) {
        os << "map-output ledger charges " << what << " " << id << " "
           << have << " B but no live output matches";
      } else {
        os << "map-output ledger drifted for " << what << " " << id
           << ": ledger=" << have << " B, recount=" << want << " B";
      }
      out.push_back(os.str());
    }
  };
  compare("job", job_used_, per_job);
  compare("node", node_used_, per_node);
  compare("node (memory tier)", node_mem_used_, per_node_mem);
  return out;
}

void MapOutputStore::debug_corrupt_ledger(Ledger ledger, std::uint32_t id,
                                          std::int64_t delta) {
  const auto d = static_cast<Bytes>(delta);  // wraps when negative
  switch (ledger) {
    case Ledger::kTotal:
      total_used_ += d;
      return;
    case Ledger::kMemoryTotal:
      total_mem_used_ += d;
      return;
    case Ledger::kJob:
      entry(job_used_, id) += d;
      return;
    case Ledger::kNode:
      entry(node_used_, id) += d;
      return;
    case Ledger::kNodeMemory:
      entry(node_mem_used_, id) += d;
      return;
  }
}

}  // namespace rcmp::mapred
