#include "core/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/journal.hpp"
#include "core/result_cache.hpp"

namespace rcmp::core {

namespace {

constexpr int kMap = static_cast<int>(mapred::SlotKind::kMap);
constexpr int kReduce = static_cast<int>(mapred::SlotKind::kReduce);
constexpr int kNumKinds = 2;
constexpr double kShareEps = 1e-9;

}  // namespace

ChainScheduler::ChainScheduler(sim::Simulation& sim,
                               cluster::Cluster& cluster,
                               dfs::NameNode& dfs, obs::Observability* obs,
                               Config cfg)
    : sim_(sim), cluster_(cluster), dfs_(dfs), obs_(obs), cfg_(cfg) {
  free_.assign(cluster_.size(), {0, 0});
  free_nodes_.assign(kNumKinds, cluster_.size());
  for (cluster::NodeId n = 0; n < cluster_.size(); ++n) {
    if (!cluster_.is_compute_node(n) || !cluster_.compute_alive(n)) continue;
    free_[n][kMap] = static_cast<std::uint16_t>(cluster_.spec().map_slots);
    free_[n][1] = static_cast<std::uint16_t>(cluster_.spec().reduce_slots);
    sync_free(n);
  }
  recount_alive_slots();
  // Settle the slot books before any middleware (registered later, so
  // notified later) lets its engine react to the failure.
  cluster_.on_failure([this](const cluster::FailureEvent& ev) {
    if (ev.lost_compute) node_down(ev.node);
  });
  cluster_.on_recover([this](cluster::NodeId n) { node_up(n); });
}

std::uint32_t ChainScheduler::add_chain(double weight,
                                        mapred::MapOutputStore* store) {
  RCMP_CHECK_MSG(weight > 0.0, "chain weight must be positive");
  const auto id = static_cast<std::uint32_t>(chains_.size());
  chains_.emplace_back();
  ChainState& cs = chains_.back();
  cs.weight = weight;
  cs.store = store;
  cs.client = std::make_unique<Client>(this, id);
  cs.held.assign(cluster_.size(), {0, 0});
  if (obs_ != nullptr) obs_->metrics.add("sched.chains");
  return id;
}

mapred::SlotBroker& ChainScheduler::broker(std::uint32_t chain) {
  return *chains_.at(chain).client;
}

void ChainScheduler::set_kick(std::uint32_t chain,
                              std::function<bool(mapred::OpenSlots)> kick) {
  chains_.at(chain).kick = std::move(kick);
}

void ChainScheduler::submit(std::uint32_t chain, SimTime delay,
                            std::function<void()> start) {
  chains_.at(chain).start = std::move(start);
  sim_.schedule_after(delay, [this, chain] { try_admit(chain); });
}

void ChainScheduler::try_admit(std::uint32_t c) {
  if (cfg_.max_concurrent != 0 && active_ >= cfg_.max_concurrent) {
    waiting_.push_back(c);
    return;
  }
  admit(c);
}

void ChainScheduler::admit(std::uint32_t c) {
  ChainState& cs = chains_[c];
  cs.admitted = true;
  ++active_;
  peak_active_ = std::max(peak_active_, active_);
  active_weight_ += cs.weight;
  if (obs_ != nullptr) {
    obs_->metrics.add("sched.admitted");
    obs_->tracer.emit(sim_.now(), obs::EventType::kChainAdmit, 0,
                      obs::kNoField, obs::kNoField, obs::kNoField,
                      static_cast<double>(active_), chain_tag(c));
  }
  RCMP_CHECK_MSG(static_cast<bool>(cs.start),
                 "chain admitted without a start callback");
  cs.start();
}

void ChainScheduler::chain_done(std::uint32_t c) {
  ChainState& cs = chains_.at(c);
  if (!cs.admitted) return;  // already retired
  RCMP_CHECK_MSG(cs.in_use[0] == 0 && cs.in_use[1] == 0,
                 "chain finished while still holding compute slots");
  cs.admitted = false;
  cs.done = true;
  --active_;
  active_weight_ -= cs.weight;
  if (obs_ != nullptr) {
    obs_->metrics.add("sched.completed");
    obs_->metrics.add(chain_metric(c, "grants"),
                      static_cast<double>(cs.grants));
    obs_->tracer.emit(sim_.now(), obs::EventType::kChainDone, 0,
                      obs::kNoField, obs::kNoField, obs::kNoField,
                      static_cast<double>(active_), chain_tag(c));
  }
  if (!waiting_.empty()) {
    const std::uint32_t next = waiting_.front();
    waiting_.erase(waiting_.begin());
    admit(next);
  }
  schedule_poke();
}

void ChainScheduler::note_replan(std::uint32_t chain) {
  ChainState& cs = chains_.at(chain);
  ++cs.replans;
  if (obs_ != nullptr) obs_->metrics.add(chain_metric(chain, "replans"));
}

void ChainScheduler::note_restart(std::uint32_t chain) {
  ChainState& cs = chains_.at(chain);
  ++cs.restarts;
  if (obs_ != nullptr) obs_->metrics.add(chain_metric(chain, "restarts"));
}

// --- slot broker backend --------------------------------------------

bool ChainScheduler::can_grow(const ChainState& cs, int k) const {
  if (active_weight_ <= 0.0) return false;
  const double entitlement =
      cs.weight / active_weight_ * static_cast<double>(alive_slots_[k]);
  return static_cast<double>(cs.in_use[k] + 1) <= entitlement + kShareEps;
}

bool ChainScheduler::hungry_under_share(std::uint32_t except, int k) const {
  for (std::uint32_t i = 0; i < chains_.size(); ++i) {
    if (i == except) continue;
    const ChainState& cs = chains_[i];
    if (cs.admitted && cs.hungry[k] && can_grow(cs, k)) return true;
  }
  return false;
}

bool ChainScheduler::may_acquire(std::uint32_t c, cluster::NodeId n,
                                 mapred::SlotKind kind) const {
  const int k = static_cast<int>(kind);
  const ChainState& cs = chains_[c];
  if (!cs.admitted) return false;
  // Suspected and quarantined nodes receive no new task placements;
  // this single gate covers every placement site of every engine.
  if (detector_ != nullptr && !detector_->schedulable(n)) return false;
  if (free_[n][k] == 0) return false;
  if (can_grow(cs, k)) return true;
  // Past the entitlement: backfill idle capacity unless a hungry chain
  // still under its share could take this slot (work conservation with
  // fairness priority — no preemption, just denial at the margin).
  if (hungry_under_share(c, k)) {
    ++denials_;
    if (obs_ != nullptr) obs_->metrics.add("sched.denials");
    return false;
  }
  return true;
}

void ChainScheduler::acquire(std::uint32_t c, cluster::NodeId n,
                             mapred::SlotKind kind) {
  const int k = static_cast<int>(kind);
  ChainState& cs = chains_[c];
  RCMP_CHECK_MSG(free_[n][k] > 0, "acquire from an empty slot inventory");
  --free_[n][k];
  sync_free(n);
  ++cs.held[n][k];
  ++cs.in_use[k];
  cs.peak_in_use[k] = std::max(cs.peak_in_use[k], cs.in_use[k]);
  cs.vtime += 1.0 / cs.weight;
  ++cs.grants;
  if (obs_ != nullptr) {
    obs_->metrics.add("sched.grants");
    obs_->tracer.emit(sim_.now(), obs::EventType::kSlotGrant,
                      static_cast<std::uint8_t>(k), n, obs::kNoField,
                      obs::kNoField, static_cast<double>(cs.in_use[k]),
                      chain_tag(c));
  }
}

void ChainScheduler::release(std::uint32_t c, cluster::NodeId n,
                             mapred::SlotKind kind) {
  const int k = static_cast<int>(kind);
  ChainState& cs = chains_[c];
  // A slot on a node whose compute died was already forfeited by the
  // failure handler; the engine's release for it is dropped here.
  if (cs.held[n][k] == 0) return;
  --cs.held[n][k];
  --cs.in_use[k];
  ++free_[n][k];
  sync_free(n);
  schedule_poke();
}

void ChainScheduler::release_all(std::uint32_t c) {
  ChainState& cs = chains_[c];
  bool freed = false;
  for (cluster::NodeId n = 0; n < cluster_.size(); ++n) {
    for (int k = 0; k < kNumKinds; ++k) {
      while (cs.held[n][k] > 0) {
        --cs.held[n][k];
        --cs.in_use[k];
        if (cluster_.compute_alive(n)) {
          ++free_[n][k];
          sync_free(n);
          freed = true;
        }
      }
    }
  }
  cs.hungry[0] = cs.hungry[1] = false;
  if (freed) schedule_poke();
}

void ChainScheduler::set_demand(std::uint32_t c, mapred::SlotKind kind,
                                bool hungry) {
  chains_[c].hungry[static_cast<int>(kind)] = hungry;
}

// --- failure / recovery ---------------------------------------------

void ChainScheduler::node_down(cluster::NodeId n) {
  for (ChainState& cs : chains_) {
    for (int k = 0; k < kNumKinds; ++k) {
      cs.in_use[k] -= cs.held[n][k];
      cs.held[n][k] = 0;
    }
  }
  free_[n] = {0, 0};
  sync_free(n);
  recount_alive_slots();
  // The shrunken cluster changes every entitlement; survivors may now
  // be over share, hungry chains may have become eligible.
  schedule_poke();
}

void ChainScheduler::node_up(cluster::NodeId n) {
  if (!cluster_.is_compute_node(n)) return;
  free_[n][kMap] = static_cast<std::uint16_t>(cluster_.spec().map_slots);
  free_[n][1] = static_cast<std::uint16_t>(cluster_.spec().reduce_slots);
  sync_free(n);
  recount_alive_slots();
  schedule_poke();
}

void ChainScheduler::sync_free(cluster::NodeId n) {
  ++free_version_;
  for (int k = 0; k < kNumKinds; ++k) {
    if (free_[n][k] > 0) {
      free_nodes_.set(k, n);
    } else {
      free_nodes_.clear(k, n);
    }
  }
}

mapred::OpenSlots ChainScheduler::open_slots() const {
  auto open = [this](std::uint32_t k) {
    for (std::uint32_t n = free_nodes_.next(k, 0); n != BitRows::kNone;
         n = free_nodes_.next(k, n + 1)) {
      if (detector_ == nullptr || detector_->schedulable(n)) return true;
    }
    return false;
  };
  return {open(kMap), open(kReduce)};
}

cluster::NodeId ChainScheduler::next_free(cluster::NodeId from,
                                          mapred::SlotKind k) const {
  const std::uint32_t n =
      free_nodes_.next(static_cast<std::uint32_t>(k), from);
  return n == BitRows::kNone ? cluster::kInvalidNode : n;
}

void ChainScheduler::recount_alive_slots() {
  alive_slots_[0] = alive_slots_[1] = 0;
  for (cluster::NodeId n = 0; n < cluster_.size(); ++n) {
    if (!cluster_.is_compute_node(n) || !cluster_.compute_alive(n)) continue;
    alive_slots_[0] += cluster_.spec().map_slots;
    alive_slots_[1] += cluster_.spec().reduce_slots;
  }
}

// --- capacity offers -------------------------------------------------

void ChainScheduler::schedule_poke() {
  if (poke_pending_) return;  // coalesce: one offer per instant
  poke_pending_ = true;
  sim_.schedule_after(0.0, [this] { run_pokes(); });
}

void ChainScheduler::run_pokes() {
  poke_pending_ = false;
  ++pokes_;
  if (obs_ != nullptr) obs_->metrics.add("sched.pokes");
  // Offer freed capacity in weighted-fair order: lowest virtual time
  // first (ties by id for determinism). Kicked chains immediately try
  // to schedule tasks, which routes back through may_acquire/acquire.
  offer_order_.clear();
  for (std::uint32_t i = 0; i < chains_.size(); ++i) {
    const ChainState& cs = chains_[i];
    if (cs.admitted && (cs.hungry[0] || cs.hungry[1]) && cs.kick) {
      offer_order_.push_back(i);
    }
  }
  std::sort(offer_order_.begin(), offer_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (chains_[a].vtime != chains_[b].vtime) {
                return chains_[a].vtime < chains_[b].vtime;
              }
              return a < b;
            });
  // The open kinds go with every kick, so a chain that could only be
  // denied skips its placement pass (JobRun::poke). They are worked out
  // once per round and again whenever a kick moved the inventory.
  mapred::OpenSlots open = open_slots();
  std::uint64_t open_at = free_version_;
  for (const std::uint32_t c : offer_order_) {
    // Re-check: an earlier kick this round may have finished the chain.
    ChainState& cs = chains_[c];
    if (!cs.admitted || !cs.kick) continue;
    if (open_at != free_version_) {
      open = open_slots();
      open_at = free_version_;
    }
    ++kicks_;
    if (cs.kick(open)) ++kick_passes_;
  }
}

// --- shared storage ---------------------------------------------------

Bytes ChainScheduler::storage_total() const {
  Bytes total = dfs_.total_used();
  for (const ChainState& cs : chains_) {
    if (cs.store != nullptr) total += cs.store->total_used();
  }
  return total;
}

void ChainScheduler::enforce_storage(std::uint32_t caller) {
  if (cfg_.storage_budget == 0) return;
  // Evict until within budget. Each round ranks the chains by how far
  // they are over their weighted share of the map-output allowance
  // (budget minus the DFS ground truth, which eviction cannot reclaim)
  // and frees the oldest evictable job of the first chain that has one
  // — the paper's eviction granularity, applied cross-tenant. Over one
  // chain this is the paper's per-chain loop, job for job.
  std::vector<std::pair<double, std::uint32_t>> ranked;
  while (storage_total() > cfg_.storage_budget) {
    const Bytes dfs_used = dfs_.total_used();
    const Bytes allowance =
        cfg_.storage_budget > dfs_used ? cfg_.storage_budget - dfs_used : 0;
    double total_weight = 0.0;
    for (const ChainState& cs : chains_) {
      if (cs.store != nullptr) total_weight += cs.weight;
    }
    ranked.clear();
    for (std::uint32_t i = 0; i < chains_.size(); ++i) {
      const ChainState& cs = chains_[i];
      if (cs.store == nullptr) continue;
      const Bytes used = cs.store->total_used();
      if (used == 0) continue;
      const double share =
          total_weight > 0.0
              ? cs.weight / total_weight * static_cast<double>(allowance)
              : 0.0;
      ranked.emplace_back(static_cast<double>(used) - share, i);
    }
    // Most over its share first; equal excess keeps chain order.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    const Bytes need = storage_total() - cfg_.storage_budget;
    Bytes freed = 0;
    for (const auto& entry : ranked) {
      // A chain whose every non-empty job is pinned or memory-resident
      // frees nothing; the next one over its share may still.
      freed = evict_oldest(entry.second, need);
      if (freed > 0) break;
    }
    if (freed > 0) continue;
    // No chain can free map outputs: fall through to the result cache
    // (finished tenants' unleased entries, oldest first), then concede.
    // Leased entries and final outputs stay protected.
    freed = result_cache_ != nullptr ? result_cache_->evict_one() : 0;
    if (freed == 0) return;
    // a = sentinel: the victim was a cache entry, not a chain's job.
    journal_eviction(chain_tag(caller), 0xffffffffu, freed);
  }
}

Bytes ChainScheduler::evict_oldest(std::uint32_t c, Bytes need) {
  ChainState& cs = chains_[c];
  for (std::uint32_t j = 0; j < cs.store->job_span(); ++j) {
    if (cs.store->used_for_job(j) == 0) continue;
    // A pinned job is off limits: the chain's live job (its reducers
    // still shuffle those outputs) or one on the recompute frontier of
    // an in-flight replan (the copies that replan counts on). The
    // auditor cross-checks every victim choice.
    if (cs.store->job_pinned(j)) continue;
    if (obs_ != nullptr) obs_->check_eviction(cs.store->job_pinned(j), j);
    const Bytes freed = cs.store->evict_upto(j, need);
    if (freed == 0) continue;  // only memory-tier outputs left
    ++cs.evictions;
    evicted_bytes_ += freed;
    journal_eviction(chain_tag(c), j, freed);
    if (obs_ != nullptr) {
      obs_->metrics.add("sched.evicted_bytes", static_cast<double>(freed));
      obs_->metrics.add(chain_metric(c, "evictions"));
      obs_->tracer.emit(sim_.now(), obs::EventType::kEviction, 0,
                        obs::kNoField, j, obs::kNoField,
                        static_cast<double>(freed), chain_tag(c));
    }
    RCMP_INFO() << "scheduler: evicted " << freed
                << " bytes of persisted map outputs of chain " << c
                << " job " << j << " (storage budget)";
    return freed;
  }
  return 0;
}

void ChainScheduler::journal_eviction(std::uint16_t tag, std::uint32_t job,
                                      Bytes freed) {
  if (journal_ == nullptr) return;
  journal_->append(JournalRecordType::kEviction, tag, job, 0, freed,
                   sim_.now());
}

// --- introspection ----------------------------------------------------

std::uint32_t ChainScheduler::num_chains() const {
  return static_cast<std::uint32_t>(chains_.size());
}

std::uint64_t ChainScheduler::grants(std::uint32_t chain) const {
  return chains_.at(chain).grants;
}

std::uint32_t ChainScheduler::peak_in_use(std::uint32_t chain,
                                          mapred::SlotKind k) const {
  return chains_.at(chain).peak_in_use[static_cast<int>(k)];
}

std::uint32_t ChainScheduler::replans(std::uint32_t chain) const {
  return chains_.at(chain).replans;
}

std::uint32_t ChainScheduler::restarts(std::uint32_t chain) const {
  return chains_.at(chain).restarts;
}

std::uint32_t ChainScheduler::evictions(std::uint32_t chain) const {
  return chains_.at(chain).evictions;
}

std::string ChainScheduler::metric_prefix(std::uint32_t chain) const {
  if (chains_.size() == 1) return {};
  // Appended in place: GCC 12 raises a false -Wrestrict on
  // "t" + std::to_string(...).
  std::string out = "t";
  out += std::to_string(chain);
  out += '.';
  return out;
}

std::string ChainScheduler::chain_metric(std::uint32_t c,
                                         const char* name) const {
  std::string out = "sched.c";
  out += std::to_string(c);
  out += '.';
  out += name;
  return out;
}

}  // namespace rcmp::core
