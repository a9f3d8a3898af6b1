// Slot brokerage: the seam between a single job's execution engine and
// the cluster-wide compute-slot arbiter (core::ChainScheduler; mapred
// cannot depend on core, so the engine sees only this interface).
//
// Every JobRun draws its slots through a SlotBroker client, whether its
// chain runs alone (the paper's one-chain-at-a-time evaluation — a
// scheduler serving one chain never denies a free slot) or beside
// others: `may_acquire` asks whether this chain may take one more slot
// on a node right now (the broker folds in both physical availability
// and the fair-share policy), `acquire`/`release` move one slot, and
// `set_demand` reports unmet demand so the arbiter knows which chains
// are hungry when capacity frees up.
//
// Contract:
//   - releases on a compute-dead node are dropped silently (the arbiter
//     already forfeited every slot held there when the failure landed);
//   - release_all() returns every slot the client still holds and
//     clears its demand flags — the engine calls it from finish() and
//     cancel(), where torn-down tasks can no longer release one by one;
//   - next_free() lists the nodes with a physically free slot, in
//     ascending order, so placement passes visit only those. A node it
//     skips has no free slot, and may_acquire() answers false there
//     without side effects (no denial is counted), so skipping it
//     changes no decision.
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"

namespace rcmp::mapred {

enum class SlotKind : std::uint8_t { kMap = 0, kReduce = 1 };

/// The slot kinds an offer of freed capacity could grant (JobRun::poke).
/// A kind is open while some node has a free slot of it that the
/// arbiter's detector gate admits; on a closed kind may_acquire() says
/// no on every node, without side effects.
struct OpenSlots {
  bool map = false;
  bool reduce = false;
};

class SlotBroker {
 public:
  virtual ~SlotBroker() = default;

  /// May this client take one more `k` slot on node `n` right now?
  virtual bool may_acquire(cluster::NodeId n, SlotKind k) const = 0;
  /// Take one slot; the caller must have seen may_acquire() == true in
  /// the same simulation step.
  virtual void acquire(cluster::NodeId n, SlotKind k) = 0;
  /// Return one slot taken on `n`. Dropped when the node's compute has
  /// failed since (the slot was already forfeited).
  virtual void release(cluster::NodeId n, SlotKind k) = 0;
  /// Return every slot this client still holds and clear demand.
  virtual void release_all() = 0;
  /// Report whether this client has tasks it could not place (per
  /// kind). Drives work-conserving backfill: an over-share chain is
  /// only denied while some hungry under-share chain exists.
  virtual void set_demand(SlotKind k, bool hungry) = 0;
  /// The smallest node >= `from` with a physically free `k` slot, or
  /// cluster::kInvalidNode. Whether this client may take it is still
  /// may_acquire()'s call.
  virtual cluster::NodeId next_free(cluster::NodeId from,
                                    SlotKind k) const = 0;
};

}  // namespace rcmp::mapred
