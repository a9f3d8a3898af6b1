// ChainScheduler: cluster-wide arbitration of compute slots, admission
// and storage for recomputation chains — the only slot arbiter every
// engine runs under.
//
// The paper evaluates one RCMP chain at a time on a dedicated cluster;
// that is a scheduler serving one chain, whose entitlement is the whole
// cluster (it is never denied). A production cluster serves many. The
// scheduler owns the three resources chains contend for and keeps
// recovery per-tenant:
//
//   Compute slots — a shared per-node inventory handed out through the
//   mapred::SlotBroker seam with weighted fair sharing: chain c's
//   entitlement is weight_c / Σ active weights of the alive slot total,
//   per slot kind. Allocation is work-conserving without preemption: a
//   chain past its entitlement is denied only while some *hungry*
//   under-share chain could still grow into the capacity (backfill
//   otherwise). Freed capacity is offered to chains in weighted-fair
//   order: each grant advances the chain's virtual time by 1/weight,
//   and pokes run lowest-virtual-time first — a per-chain virtual-time
//   fair queue layered on the simulator's bucket calendar (pokes are
//   coalesced zero-delay events, so arbitration stays deterministic).
//
//   Admission — at most `max_concurrent` chains run at once; later
//   submissions queue FIFO and start as predecessors finish.
//
//   Storage — one budget across the DFS and every chain's
//   persisted-map-output store; a lone chain's budget is this budget
//   over one chain. When it is exceeded the scheduler evicts the oldest
//   evictable job (the paper's eviction granularity) of the chain most
//   over its weighted share of the map-output allowance, trying the
//   next chain when that one frees nothing, and journals every
//   eviction. Eviction is always Fig. 5-safe: evicted outputs are
//   simply recomputed, and reuse legality stays enforced at read time
//   per chain.
//
// Recovery isolation costs the scheduler nothing: chains own disjoint
// output files and map-output stores, so a node failure damages only
// the chains that actually held partitions there — their middlewares
// replan; everyone else recovers task-level at most and keeps its
// slots. The scheduler just forfeits the dead node's inventory (its
// cluster handlers are registered before any middleware's, so slot
// books are settled before engines react) and re-offers capacity on
// rejoin.
//
// Everything the scheduler decides is exported: `sched.*` metrics
// (grants, denials, pokes, per-chain replans/evictions) and kSlotGrant
// / kChainAdmit / kChainDone trace events carrying the chain tag.
//
// The scheduler owns the tag rule every layer stamps on a chain's trace
// events and metric names: while it serves one chain, tag 0 and bare
// metric names (a one-chain run reads like the paper's single chain);
// with several, the 1-based chain id and a "t<chain>." prefix.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/detector.hpp"
#include "common/bit_rows.hpp"
#include "common/units.hpp"
#include "dfs/namenode.hpp"
#include "mapred/map_output_store.hpp"
#include "mapred/slot_broker.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"

namespace rcmp::core {

class DecisionJournal;
class ResultCache;

class ChainScheduler {
 public:
  struct Config {
    /// Chains running at once; 0 = unlimited.
    std::uint32_t max_concurrent = 0;
    /// Budget over DFS blocks + every chain's persisted map outputs;
    /// 0 = unlimited (no eviction).
    Bytes storage_budget = 0;
  };

  ChainScheduler(sim::Simulation& sim, cluster::Cluster& cluster,
                 dfs::NameNode& dfs, obs::Observability* obs, Config cfg);
  // Separate overload: GCC rejects `Config cfg = {}` default arguments
  // for nested aggregates with member initializers.
  ChainScheduler(sim::Simulation& sim, cluster::Cluster& cluster,
                 dfs::NameNode& dfs, obs::Observability* obs)
      : ChainScheduler(sim, cluster, dfs, obs, Config{}) {}
  ChainScheduler(const ChainScheduler&) = delete;
  ChainScheduler& operator=(const ChainScheduler&) = delete;

  /// Register a chain. Every chain is registered before the first
  /// middleware is constructed (the tag rule depends on the count).
  /// `store` is the chain's persisted-map-output store, the one storage
  /// eviction frees. Returns the dense 0-based chain id.
  std::uint32_t add_chain(double weight, mapred::MapOutputStore* store);

  /// Trace tag of `chain`: 0 while one chain is registered, else c + 1.
  std::uint16_t chain_tag(std::uint32_t chain) const {
    return chains_.size() == 1 ? 0 : static_cast<std::uint16_t>(chain + 1);
  }
  /// Metric-name prefix of `chain`: "" while one chain is registered,
  /// else "t<chain>.".
  std::string metric_prefix(std::uint32_t chain) const;

  /// The chain's slot-broker client, for mapred::Env::slots.
  mapred::SlotBroker& broker(std::uint32_t chain);

  /// Attach a failure detector: suspected/quarantined nodes are denied
  /// at may_acquire for every chain (their inventory stays booked — a
  /// suspicion is master-side belief, not a cluster event).
  void set_detector(const cluster::FailureDetector* detector) {
    detector_ = detector;
  }

  /// Capacity-freed callback: typically forwards to the chain's current
  /// JobRun::poke(open), given the slot kinds the offer could grant, and
  /// returns whether a placement pass ran.
  void set_kick(std::uint32_t chain,
                std::function<bool(mapred::OpenSlots)> kick);

  /// Schedule the chain's start `delay` seconds from now; `start` fires
  /// when admission allows (immediately at that time, or when a running
  /// chain finishes).
  void submit(std::uint32_t chain, SimTime delay,
              std::function<void()> start);

  /// The chain finished (completed or failed); frees its admission slot
  /// and starts the next queued chain.
  void chain_done(std::uint32_t chain);

  // Middleware recovery notifications (per-chain sched.* accounting —
  // the blast-radius evidence).
  void note_replan(std::uint32_t chain);
  void note_restart(std::uint32_t chain);

  /// DFS blocks + every chain's persisted map outputs, the multi-tenant
  /// storage ground truth.
  Bytes storage_total() const;
  /// The storage budget (Config::storage_budget; 0 = unlimited).
  Bytes storage_budget() const { return cfg_.storage_budget; }
  /// Evict down to the storage budget (no-op when unlimited or within
  /// budget); `caller` is the chain whose job boundary asks, and tags
  /// the journal records of result-cache evictions.
  void enforce_storage(std::uint32_t caller);

  /// Attach the shared result cache: when map-output eviction cannot
  /// reach the budget, enforce_storage falls through to evicting the
  /// backing files of finished tenants' unleased cache entries.
  void set_result_cache(ResultCache* cache) { result_cache_ = cache; }
  /// Attach the decision journal: every eviction appends a kEviction
  /// record (a = the victim job, or 0xffffffff for a cache entry;
  /// c = the bytes freed).
  void set_journal(DecisionJournal* journal) { journal_ = journal; }

  // --- introspection for tests and benches ---------------------------
  std::uint32_t num_chains() const;
  std::uint32_t active_chains() const { return active_; }
  std::uint32_t peak_active() const { return peak_active_; }
  std::uint64_t grants(std::uint32_t chain) const;
  std::uint32_t peak_in_use(std::uint32_t chain,
                            mapred::SlotKind k) const;
  std::uint32_t replans(std::uint32_t chain) const;
  std::uint32_t restarts(std::uint32_t chain) const;
  std::uint32_t evictions(std::uint32_t chain) const;
  std::uint64_t total_denials() const { return denials_; }
  std::uint64_t pokes_run() const { return pokes_; }
  /// Kicks the pokes delivered, and those that ran a placement pass.
  std::uint64_t kicks_run() const { return kicks_; }
  std::uint64_t kick_passes() const { return kick_passes_; }
  Bytes evicted_bytes() const { return evicted_bytes_; }
  /// Free + held slots of kind k over alive compute nodes.
  std::uint32_t alive_slots(mapred::SlotKind k) const {
    return alive_slots_[static_cast<int>(k)];
  }
  /// Unheld slots of kind k on node n.
  std::uint32_t free_slots(cluster::NodeId n, mapred::SlotKind k) const {
    return free_[n][static_cast<int>(k)];
  }
  /// The smallest node >= `from` with a free slot of kind k, or
  /// cluster::kInvalidNode (SlotBroker::next_free for every chain).
  cluster::NodeId next_free(cluster::NodeId from, mapred::SlotKind k) const;

 private:
  /// The per-chain SlotBroker client handed to the engine.
  class Client : public mapred::SlotBroker {
   public:
    Client(ChainScheduler* sched, std::uint32_t chain)
        : sched_(sched), chain_(chain) {}
    bool may_acquire(cluster::NodeId n,
                     mapred::SlotKind k) const override {
      return sched_->may_acquire(chain_, n, k);
    }
    void acquire(cluster::NodeId n, mapred::SlotKind k) override {
      sched_->acquire(chain_, n, k);
    }
    void release(cluster::NodeId n, mapred::SlotKind k) override {
      sched_->release(chain_, n, k);
    }
    void release_all() override { sched_->release_all(chain_); }
    void set_demand(mapred::SlotKind k, bool hungry) override {
      sched_->set_demand(chain_, k, hungry);
    }
    cluster::NodeId next_free(cluster::NodeId from,
                              mapred::SlotKind k) const override {
      return sched_->next_free(from, k);
    }

   private:
    ChainScheduler* sched_;
    std::uint32_t chain_;
  };

  struct ChainState {
    double weight = 1.0;
    mapred::MapOutputStore* store = nullptr;
    std::unique_ptr<Client> client;
    std::function<bool(mapred::OpenSlots)> kick;
    std::function<void()> start;
    bool admitted = false;
    bool done = false;
    /// Weighted-fair virtual time: advanced 1/weight per grant.
    double vtime = 0.0;
    std::uint32_t in_use[2] = {0, 0};
    std::uint32_t peak_in_use[2] = {0, 0};
    bool hungry[2] = {false, false};
    /// Slots currently held, per node per kind.
    std::vector<std::array<std::uint16_t, 2>> held;
    std::uint64_t grants = 0;
    std::uint32_t replans = 0;
    std::uint32_t restarts = 0;
    std::uint32_t evictions = 0;
  };

  // SlotBroker backend.
  bool may_acquire(std::uint32_t c, cluster::NodeId n,
                   mapred::SlotKind k) const;
  void acquire(std::uint32_t c, cluster::NodeId n, mapred::SlotKind k);
  void release(std::uint32_t c, cluster::NodeId n, mapred::SlotKind k);
  void release_all(std::uint32_t c);
  void set_demand(std::uint32_t c, mapred::SlotKind k, bool hungry);

  /// Would one more grant keep chain c within its weighted entitlement?
  bool can_grow(const ChainState& cs, int k) const;
  /// Some other active chain is hungry for kind k and still under its
  /// entitlement — backfill must yield to it.
  bool hungry_under_share(std::uint32_t except, int k) const;

  void try_admit(std::uint32_t c);
  void admit(std::uint32_t c);

  void node_down(cluster::NodeId n);
  void node_up(cluster::NodeId n);
  /// Re-derive n's bits in free_nodes_ from free_[n]; called after
  /// every change of free_[n].
  void sync_free(cluster::NodeId n);
  /// The kinds some node has a free slot of that the detector admits.
  mapred::OpenSlots open_slots() const;
  void recount_alive_slots();

  /// Coalesced zero-delay event offering freed capacity to hungry
  /// chains in weighted-fair (virtual time) order.
  void schedule_poke();
  void run_pokes();

  std::string chain_metric(std::uint32_t c, const char* name) const;
  /// Evict the oldest unpinned job of chain c that frees bytes, up to
  /// `need` bytes; returns the bytes freed (0 when every non-empty job
  /// is pinned or holds only memory-tier outputs).
  Bytes evict_oldest(std::uint32_t c, Bytes need);
  void journal_eviction(std::uint16_t tag, std::uint32_t job, Bytes freed);

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  dfs::NameNode& dfs_;
  obs::Observability* obs_;
  Config cfg_;
  const cluster::FailureDetector* detector_ = nullptr;
  ResultCache* result_cache_ = nullptr;
  DecisionJournal* journal_ = nullptr;

  std::vector<ChainState> chains_;
  /// Shared free-slot inventory, per node: [map, reduce].
  std::vector<std::array<std::uint16_t, 2>> free_;
  /// Row k: the nodes with free_[n][k] > 0.
  BitRows free_nodes_;
  std::uint32_t alive_slots_[2] = {0, 0};
  double active_weight_ = 0.0;
  std::uint32_t active_ = 0;
  std::uint32_t peak_active_ = 0;
  std::vector<std::uint32_t> waiting_;  // FIFO admission queue
  bool poke_pending_ = false;
  /// Bumped by every sync_free: open_slots() is stale once it moves.
  std::uint64_t free_version_ = 0;
  /// run_pokes' offer order, kept across pokes.
  std::vector<std::uint32_t> offer_order_;

  mutable std::uint64_t denials_ = 0;
  std::uint64_t pokes_ = 0;
  std::uint64_t kicks_ = 0;
  std::uint64_t kick_passes_ = 0;
  Bytes evicted_bytes_ = 0;
};

}  // namespace rcmp::core
