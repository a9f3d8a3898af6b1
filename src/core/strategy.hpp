// Failure-resilience strategies compared in the paper's evaluation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/units.hpp"

namespace rcmp::core {

class IPolicy;

enum class Strategy {
  /// RCMP with reducer splitting during recomputation (the paper's full
  /// system; split ratio defaults to surviving nodes - 1).
  kRcmpSplit,
  /// RCMP reusing persisted outputs but recomputing reducers at the
  /// initial task granularity (RCMP NO-SPLIT).
  kRcmpNoSplit,
  /// RCMP without splitting, but recomputed reducers scatter their
  /// output blocks over all nodes — the alternative hot-spot mitigation
  /// analyzed in §IV-B2.
  kRcmpScatter,
  /// Stock Hadoop with data replication (factor given by
  /// StrategyConfig::replication). Failures are handled inside a job by
  /// task re-execution; data loss beyond the replication factor forces
  /// a full computation restart.
  kReplication,
  /// Replication factor 1, assuming failures never happen; on data loss
  /// the whole computation restarts from the beginning.
  kOptimistic,
};

std::string strategy_name(Strategy s);

struct StrategyConfig {
  Strategy strategy = Strategy::kRcmpSplit;

  /// DFS replication factor for intermediate job outputs (kReplication
  /// uses 2 or 3; RCMP and OPTIMISTIC use 1).
  std::uint32_t replication = 1;

  /// Reducer split ratio for recomputation runs; 0 = auto
  /// (surviving nodes - 1, the paper's choice: 8 on STIC, 59 on DCO).
  std::uint32_t split_factor = 0;

  /// Hybrid recomputation+replication (§IV-C): every `hybrid_every`-th
  /// job's output is written with `hybrid_replication` replicas so
  /// cascades stop at the last replication point. 0 disables.
  std::uint32_t hybrid_every = 0;
  std::uint32_t hybrid_replication = 2;

  /// After a hybrid replication point completes, reclaim the storage of
  /// earlier persisted outputs (the paper's proposed extension).
  bool reclaim_after_replication = false;

  /// Dynamic hybrid (the paper's future work: "a dynamic approach that
  /// intelligently chooses between replication and recomputation using
  /// job and environment-related information"). Treats replication
  /// points as checkpoints and spaces them by the classic optimal
  /// checkpoint interval (Young's formula):
  ///     T* = sqrt(2 * C * MTBF)
  /// where C is the estimated cost of replicating a job's output
  /// (measured job time x hybrid_replication_overhead) and MTBF is the
  /// cluster's mean time between failures derived from
  /// node_failure_rate_per_day. Overrides hybrid_every when set.
  bool hybrid_dynamic = false;
  /// Per-node daily failure probability (Fig. 2-calibrated default).
  double node_failure_rate_per_day = 0.0015;
  /// Fraction of a job's running time that replicating its output adds
  /// (the paper measures ~0.3 for one extra replica).
  double hybrid_replication_overhead = 0.3;

  /// Memory-tier intermediate storage (M3R-style): job outputs persist
  /// to cluster RAM first and spill to disk under RAM pressure; map
  /// outputs shuffle at memory speed. Memory-tier data dies with the
  /// writer's process (compute failure), so under hybrid_dynamic the
  /// Young's-formula decision becomes three-way — replicate (survives
  /// node loss), persist to disk (survives compute loss), or keep in
  /// RAM (cheapest) — each durable choice spaced by its own interval
  /// with tier-dependent checkpoint cost. No-op unless the cluster has
  /// a RAM tier (ClusterSpec::ram_bytes > 0).
  bool memory_tier = false;
  /// Fraction of a job's running time that persisting its output to
  /// disk (instead of RAM) adds — the disk-checkpoint cost in the
  /// three-way decision (paper's ~100x RAM/disk gap makes this small).
  double memory_disk_overhead = 0.15;

  /// Cluster-wide fingerprint-keyed result cache (ReStore-style,
  /// DESIGN.md §14): consult the shared ResultCache at admission and
  /// replan time to satisfy chain prefixes from outputs persisted by
  /// other chains, and publish this chain's completed outputs for
  /// others. No-op unless the scenario attaches a cache
  /// (TenantContext::result_cache).
  bool result_cache = false;

  /// Minimum alive compute nodes required to keep (re)trying. When a
  /// detection finds fewer, the middleware gives up with a structured
  /// kCapacityFloor failure instead of thrashing (or asserting deep in
  /// the engine).
  std::uint32_t min_compute_floor = 1;

  /// Per-chain replan budget: how many recomputation replans may be
  /// attempted before the middleware concedes with
  /// kRetryBudgetExhausted. 0 = unlimited (the paper's behavior).
  std::uint32_t max_replans = 0;

  /// Coordinator crash budget: how many master crashes the chain may
  /// recover from via journal replay before it concedes with
  /// kRecoveryBudgetExhausted. 0 = unlimited. Meaningless without a
  /// decision journal (TenantContext::journal) — a journal-less master
  /// cannot crash recoverably in the first place.
  std::uint32_t max_master_recoveries = 0;

  /// Adaptive resilience policy prototype (core/policy.hpp). Null — and
  /// the inert StaticPolicy shim — keep the exact enum-driven behavior
  /// above, bit-identical. Each Middleware clones its own instance, so
  /// one StrategyConfig can safely drive many chains.
  std::shared_ptr<IPolicy> policy;

  /// Reuse persisted map outputs on recomputation (ablation toggle).
  bool reuse_map_outputs = true;
  /// Apply the Fig. 5 invalidation rule (disable only to demonstrate
  /// the resulting corruption in tests).
  bool enforce_fig5_rule = true;

  bool is_rcmp() const {
    return strategy == Strategy::kRcmpSplit ||
           strategy == Strategy::kRcmpNoSplit ||
           strategy == Strategy::kRcmpScatter;
  }
};

}  // namespace rcmp::core
