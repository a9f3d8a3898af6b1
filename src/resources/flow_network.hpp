// Max-min fair-share flow network.
//
// Every data movement in the reproduction — a mapper reading its input
// block, a map-output spill, a shuffle fetch, a DFS replication pipeline
// stream — is a Flow over a path of capacitated Links (source disk,
// source NIC uplink, fabric, destination NIC downlink, destination disk).
// Whenever the set of active flows changes, rates are recomputed by
// progressive filling (water-filling), the standard max-min fair
// allocation: repeatedly saturate the most contended link and freeze the
// flows through it.
//
// Disk links additionally model seek contention: the *aggregate*
// throughput of a disk degrades with the number k of concurrent streams,
//     eff(k) = capacity / (1 + alpha * ln(k)),
// which is what turns "N*S mappers converge on one node's storage"
// (paper §IV-B2, Figs. 6 and 12) into a hot-spot instead of a mere
// fair-share slowdown.
//
// Reallocation is *incremental*: a start/cancel/finish only recomputes
// the connected component(s) of the link-sharing graph that the affected
// flow touches (max-min allocations of disjoint components are
// independent, so untouched components keep their rates bit-for-bit).
// Per-flow progress is tracked lazily — remaining(t) = remaining at the
// flow's last rate change minus rate * elapsed — so no global
// advance-all-flows scan runs on every change, and mid-interval reads
// of flow_remaining() are exact.
//
// Reallocation is also *instant-batched*: a start/cancel/capacity
// change only marks the affected links dirty and schedules a flush at
// the current instant. Since no simulated time passes between
// same-instant mutations, only the state after the last one can affect
// progress or completions — a wave of N same-instant flow starts (a
// stage launching its tasks) costs one component pass, not N. Rate
// queries flush first, so observable values are always exact.
//
// Completion tracking is lazy as well: each component reallocation
// pushes ONE candidate (the component's earliest projected finish) onto
// a min-heap, instead of re-keying every component flow. A candidate is
// stale once its flow's generation or stored projection changed; stale
// entries are discarded when popped. Every component mutation goes
// through a reallocation, which always pushes a fresh minimum, so the
// heap top (after discarding stale tops) is always the network-wide
// earliest completion. The network keeps a single pending completion
// event in the Simulation pointed at that time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/indexed_heap.hpp"
#include "common/units.hpp"
#include "resources/hop_list.hpp"
#include "sim/simulation.hpp"

namespace rcmp::res {

using LinkId = std::uint32_t;
using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

struct LinkSpec {
  std::string name;
  Rate capacity = 0.0;  // bytes/s aggregate when uncontended
  /// Seek/contention degradation coefficient; 0 disables (networks).
  double contention_alpha = 0.0;
  /// Stream count up to which the link delivers full aggregate
  /// capacity; degradation applies to k beyond this (a disk scheduler
  /// absorbs a few concurrent streams; dozens of them — a hot-spot —
  /// thrash it):  eff(k) = capacity / (1 + alpha * ln(max(1, k/k0))).
  double contention_threshold = 1.0;
};

struct FlowSpec {
  HopList<LinkId> path;  // may be empty: pure-latency flow
  /// Per-link work weights, aligned with `path` (empty = all 1.0).
  /// A flow moving at rate r consumes weight*r of a link's capacity —
  /// e.g. DFS writes cost more disk work per byte than reads (journal,
  /// filesystem overhead; the paper cites Shafer et al. [22] on HDFS
  /// write inefficiency). All flows frozen at a bottleneck get equal
  /// byte rates; weights scale their capacity consumption.
  HopList<double> weights;
  Bytes bytes = 0;
  /// Latency appended after the last byte (the paper's SLOW SHUFFLE adds
  /// a 10 s delay "at the end of each shuffle transfer").
  SimTime tail_latency = 0.0;
  std::function<void()> on_complete;
};

class FlowNetwork {
 public:
  explicit FlowNetwork(sim::Simulation& sim) : sim_(sim) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  LinkId add_link(LinkSpec spec);
  std::size_t link_count() const { return links_.size(); }

  /// Pre-size internal storage for an expected topology (links) and
  /// steady-state flow population; avoids growth reallocations in
  /// large sweeps.
  void reserve(std::size_t links, std::size_t flows);

  /// Change a link's base capacity (used by tests and by the slow-network
  /// emulation); triggers reallocation of the link's component.
  void set_link_capacity(LinkId id, Rate capacity);
  Rate link_capacity(LinkId id) const;

  /// Effective aggregate capacity of a link given its current stream
  /// count (exposed for tests of the degradation model).
  Rate link_effective_capacity(LinkId id) const;

  /// Congestion heuristic for source selection: expected time-per-byte
  /// for one more stream, (active_streams + 1) / effective_capacity.
  /// A degraded or congested link has high pressure even when it
  /// carries few (slow) flows.
  double link_pressure(LinkId id) const;

  /// Start a flow. on_complete fires through the Simulation once all
  /// bytes have moved plus tail_latency. Zero-byte flows complete after
  /// tail_latency alone.
  FlowId start_flow(FlowSpec spec);

  /// Abort an in-flight flow; its on_complete never fires. No-op if the
  /// flow already completed.
  void cancel_flow(FlowId id);

  std::size_t active_flows() const { return active_count_; }
  bool flow_active(FlowId id) const { return decode(id) != kNoSlot; }
  /// Current allocated rate of a flow (bytes/s); 0 if unknown.
  Rate flow_rate(FlowId id) const;
  /// Bytes still to transfer, exact at sim.now() (accounts for progress
  /// since the last reallocation); 0 if unknown/complete.
  double flow_remaining(FlowId id) const;

  /// Invariant audit: flush pending reallocations, then re-derive the
  /// max-min conditions from scratch and compare with the committed
  /// rates. Checks, per link, that the recounted weighted stream count
  /// matches the incremental one and that the allocated load
  /// (sum of weight*rate) never exceeds the effective capacity; and,
  /// per non-drained flow, that it has a positive rate and is frozen at
  /// a bottleneck: some link on its path is fully subscribed and no
  /// flow on that link moves faster. Returns one message per violation
  /// (empty = all invariants hold). Used by obs::Auditor.
  std::vector<std::string> audit();

  /// Number of component rate reallocations performed.
  std::uint64_t reallocations() const { return reallocations_; }
  /// Flows visited across all reallocations (incrementality metric:
  /// compare against reallocations() * active_flows()).
  std::uint64_t flows_reallocated() const { return flows_reallocated_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// High bit tags ids of flows that never entered the network (zero
  /// bytes / empty path): they complete through the event queue alone.
  static constexpr FlowId kEphemeralBit = FlowId{1} << 63;

  /// One occurrence of a flow on a link (a flow crossing a link twice —
  /// disk read+write — contributes two entries with distinct path_pos).
  struct LinkRef {
    std::uint32_t flow_slot;
    std::uint32_t path_pos;
  };
  struct Link {
    LinkSpec spec;
    std::vector<LinkRef> flows;  // active flow occurrences on this link
    double weighted_streams = 0.0;
    std::uint32_t visit_epoch = 0;  // component-BFS mark
    /// effective_capacity() memo, current while weighted_streams and
    /// spec.capacity equal the values it was computed at.
    double eff_streams = -1.0;
    Rate eff_base = 0.0;
    Rate eff = 0.0;
  };
  /// One hop of a flow's path. A flow keeps its hops inline, so a
  /// reallocation pass reads them from the flow's own slab entry.
  struct Hop {
    LinkId link;
    std::uint32_t pos;  // index into link.flows for this occurrence
    double weight;
  };
  /// Cold per-flow state: touched at start/cancel/completion only.
  struct Flow {
    HopList<Hop> hops;
    SimTime tail_latency = 0.0;
    std::uint64_t start_seq = 0;  // monotonic; deterministic tie-break
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
    bool active = false;
    std::function<void()> on_complete;
  };
  /// Hot per-flow state, split into a dense parallel array: every
  /// reallocation pass touches each component flow several times
  /// (BFS mark, progress advance, freeze), and the working set of a
  /// large component must stay cache-resident.
  struct FlowHot {
    double remaining = 0.0;  // bytes, exact at `updated_at`
    Rate rate = 0.0;
    SimTime updated_at = 0.0;
    /// Sequence number of the reallocation pass that last recomputed
    /// this flow (== the CandEntry::seq of that pass's candidate): a
    /// candidate is current iff its seq matches, so re-keying a
    /// component costs one stamp write per flow instead of a heap
    /// update.
    std::uint64_t stamp = 0;
    std::uint32_t visit_epoch = 0;  // component-BFS mark
  };

  /// Lazy completion candidate: the earliest projected finish in one
  /// component, as of one reallocation pass. Stale (and discarded on
  /// pop) once the flow completed/cancelled (generation) or a newer
  /// pass recomputed it (stamp != seq).
  struct CandEntry {
    SimTime finish;
    std::uint64_t seq;  // pass number; staleness token + tie-break
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct CandLess {
    bool operator()(const CandEntry& a, const CandEntry& b) const {
      if (a.finish != b.finish) return a.finish < b.finish;
      return a.seq < b.seq;
    }
  };
  struct CandNoPos {
    void operator()(const CandEntry&, std::uint32_t) const {}
  };
  struct FinishCb {
    SimTime tail;
    std::function<void()> cb;
  };

  static FlowId make_id(std::uint32_t slot, std::uint32_t gen) {
    // Mask the generation to 31 bits so ids never set kEphemeralBit.
    return (static_cast<FlowId>(gen & 0x7fffffffu) << 32) |
           (static_cast<FlowId>(slot) + 1);
  }
  /// Slot index if `id` names an active flow, kNoSlot otherwise.
  std::uint32_t decode(FlowId id) const;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  double remaining_at(const FlowHot& h, SimTime t) const {
    const double r = h.remaining - h.rate * (t - h.updated_at);
    return r > 0.0 ? r : 0.0;
  }

  /// link_effective_capacity(l) through the link's memo: a
  /// reallocation pass re-reads every component link, most of them
  /// unchanged since the last pass.
  Rate effective_capacity(LinkId l);

  bool cand_valid(const CandEntry& c) const {
    const Flow& f = flows_[c.slot];
    return f.active && f.gen == c.gen && hot_[c.slot].stamp == c.seq;
  }

  void detach_from_links(std::uint32_t slot);
  /// Mark the components containing `ids` as needing reallocation and
  /// ensure a flush is queued at the current instant.
  void mark_dirty(const LinkId* ids, std::size_t n);
  /// Apply pending dirty reallocations without retargeting the
  /// completion event (the caller does); no-op when clean.
  void apply_dirty();
  /// Apply pending dirty reallocations and retarget the completion
  /// event; no-op when clean.
  void flush_dirty();
  /// Recompute rates for every connected component reachable from
  /// `seeds` (one pass per distinct component).
  void reallocate(const std::vector<LinkId>& seeds);
  /// One component pass: BFS from `seed`, progressive filling, commit
  /// of rates/projections, one completion candidate for the minimum.
  void reallocate_one_component(LinkId seed);
  /// Re-point the single pending completion event at the earliest valid
  /// candidate.
  void reschedule_completion();
  void on_timer();

  sim::Simulation& sim_;
  std::vector<Link> links_;
  std::vector<Flow> flows_;    // slab with free list
  std::vector<FlowHot> hot_;   // parallel to flows_
  std::uint32_t free_head_ = kNoSlot;
  std::size_t active_count_ = 0;
  std::uint64_t next_start_seq_ = 1;
  std::uint64_t cand_seq_ = 0;
  FlowId next_ephemeral_ = 1;
  sim::EventId completion_event_ = sim::kInvalidEvent;
  SimTime scheduled_finish_ = 0.0;  // key the completion event targets
  std::uint64_t reallocations_ = 0;
  std::uint64_t flows_reallocated_ = 0;
  std::uint32_t epoch_ = 0;  // BFS visit epoch

  IndexedHeap<CandEntry, CandLess, CandNoPos> cand_heap_{CandLess{},
                                                         CandNoPos{}};

  // Scratch buffers reused across reallocations to avoid churn.
  std::vector<double> scratch_rem_;       // per-link residual capacity
  std::vector<double> scratch_unfrozen_;  // per-link unfrozen weight
  std::vector<LinkId> comp_links_;
  /// Component links as a bitmask over link ids, set by the BFS and
  /// read back (and cleared) in ascending order.
  std::vector<std::uint64_t> comp_mask_;
  std::vector<std::uint32_t> round_;        // flows frozen this fill round
  std::vector<std::uint32_t> batch_;        // flows drained, per timer
  std::vector<std::uint32_t> drained_now_;  // drained during last realloc
  std::vector<LinkId> seed_links_;          // reallocation seeds
  std::vector<FinishCb> finish_cbs_;
  /// (start_seq, finish_cbs_ index): the callbacks' firing order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> finish_order_;
  /// Links whose components changed this instant but have not been
  /// reallocated yet; flushed by `flush_event_` before time advances.
  std::vector<LinkId> dirty_links_;
  sim::EventId flush_event_ = sim::kInvalidEvent;
};

}  // namespace rcmp::res
