// Cluster and workload presets matching the paper's two testbeds, plus
// downsized presets for tests.
//
// STIC (Rice University): 10 nodes used, 8-core 2.76GHz Xeon, 10GbE,
// 24GB RAM, one 100GB S-ATA HDD per node; 4GB of job input per node
// (16 mappers of 256MB) => 40GB jobs.
// DCO (Zurich): 60 nodes used, 16-core Opteron 6212, 128GB RAM, 10GbE,
// 3 racks, a 2TB S-ATA HDD dedicated per node; 20GB per node (~80
// mappers) => 1.2TB jobs; JVM reuse enabled.
//
// Absolute disk/CPU rates are calibrated, not measured from the original
// testbed; the reproduction targets the paper's *ratios* (REPL-2 ~1.3x,
// REPL-3 ~1.65-2x, OPTIMISTIC-late ~2.23x, ...), see EXPERIMENTS.md.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cluster/cluster.hpp"
#include "cluster/detector.hpp"
#include "common/units.hpp"
#include "mapred/job.hpp"

namespace rcmp::workloads {

struct ScenarioConfig {
  cluster::ClusterSpec cluster;
  mapred::EngineConfig engine;

  Bytes per_node_input = 4 * kGiB;
  Bytes block_size = 256 * kMiB;
  std::uint32_t chain_length = 7;
  std::uint32_t input_replication = 3;
  /// Reducers per job; 0 = one wave (alive nodes x reduce slots).
  std::uint32_t reducers_per_job = 0;

  /// Payload mode: materialize real records (sizes shrink accordingly;
  /// use the payload presets, not STIC/DCO, when enabling).
  bool payload = false;

  /// Content identity of the source input for the result cache
  /// (TenantContext::dataset_id). 0 = unknown: the chain neither
  /// publishes to nor reads from an attached cache.
  std::uint64_t dataset_id = 0;

  /// Heartbeat failure detection (cluster/detector.hpp). Disabled by
  /// default: the scenario keeps the paper's oracle model and every
  /// pre-detector run stays bit-identical. detector.suspicion_timeout
  /// (30 s by default) replaces engine.detect_timeout when enabled.
  cluster::DetectorConfig detector;

  /// Install the invariant auditor (obs/audit.hpp): every job boundary
  /// and failure event recounts the storage ledgers, re-derives the
  /// max-min rates and checks event-queue conservation, aborting with a
  /// structured report on drift. On by default so every test run
  /// self-audits.
  bool audit = true;
  /// Tracer ring capacity in events; 0 (default) disables tracing.
  std::size_t trace_capacity = 0;

  /// Storage budget over DFS blocks plus every chain's persisted map
  /// outputs, in bytes; 0 = unlimited. When a job boundary finds it
  /// exceeded, the scheduler evicts persisted map outputs oldest job
  /// first (the paper's future-work eviction, at job granularity),
  /// from the chain most over its weighted share. Recomputation stays
  /// correct — evicted outputs are simply regenerated by re-running
  /// mappers.
  Bytes storage_budget = 0;

  /// Attach a write-ahead decision journal (core/journal.hpp) and make
  /// the coordinator recoverable from cluster::FaultMode::kMasterCrash.
  /// Off by default: journal-free runs stay byte-identical to pre-journal
  /// builds (appends draw no randomness and emit no events).
  bool journal = false;

  std::uint64_t seed = 42;
};

/// STIC-like 10-node cluster, 40GB of job input.
ScenarioConfig stic_config(std::uint32_t map_slots = 1,
                           std::uint32_t reduce_slots = 1);

/// DCO-like 60-node cluster, 1.2TB of job input (JVM reuse on).
ScenarioConfig dco_config();

/// DCO-like cluster with a custom node count and 20GB per node —
/// the Fig. 11 sweep ("vary the number of DCO nodes while keeping
/// per-node work constant").
ScenarioConfig dco_config_nodes(std::uint32_t nodes);

/// Small virtual-size scenario for fast unit/integration tests.
ScenarioConfig tiny_config(std::uint32_t nodes = 5,
                           std::uint32_t chain_length = 4);

/// Payload-backed scenario: small byte volumes, real records, real UDFs,
/// end-to-end verifiable checksums.
ScenarioConfig payload_config(std::uint32_t nodes = 5,
                              std::uint32_t chain_length = 4,
                              std::uint32_t records_per_node = 512);

}  // namespace rcmp::workloads
