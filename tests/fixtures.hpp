// Shared test fixtures and builders.
//
// Before this header existed, test_engine/test_middleware/test_chaos/
// test_recompute each carried private copies of the same helpers with
// subtly different defaults (EngineFixture built 4-node clusters while
// the scenario tests used 5). Everything lives here now, with one
// canonical small-cluster size (kDefaultNodes) shared by every suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/chaos.hpp"
#include "core/middleware.hpp"
#include "core/scheduler.hpp"
#include "mapred/engine.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"
#include "workloads/udfs.hpp"

namespace rcmp::testfx {

using namespace rcmp::literals;

/// Canonical small-cluster size for unit tests (matches tiny_config's
/// default node count).
inline constexpr std::uint32_t kDefaultNodes = 5;

inline core::StrategyConfig strat(core::Strategy s,
                                  std::uint32_t repl = 1) {
  core::StrategyConfig cfg;
  cfg.strategy = s;
  cfg.replication = repl;
  return cfg;
}

inline cluster::FailurePlan fail_at(std::vector<std::uint32_t> ords) {
  cluster::FailurePlan plan;
  plan.at_job_ordinals = std::move(ords);
  return plan;
}

/// Runs completed during a chain, by kind.
struct RunKinds {
  std::vector<const mapred::JobResult*> initial, recompute, cancelled;
};

inline RunKinds classify(const core::ChainResult& r) {
  RunKinds k;
  for (const auto& run : r.runs) {
    if (run.status == mapred::JobResult::Status::kCancelled) {
      k.cancelled.push_back(&run);
    } else if (run.was_recompute) {
      k.recompute.push_back(&run);
    } else {
      k.initial.push_back(&run);
    }
  }
  return k;
}

/// The failure-drill chaos testbed: two racks, payload records, enough
/// input-replication headroom that three storage-loss events provably
/// cannot destroy a source partition.
inline workloads::ScenarioConfig chaos_config(std::uint32_t nodes = 8,
                                              std::uint32_t chain = 5) {
  auto cfg = workloads::payload_config(nodes, chain,
                                       /*records_per_node=*/256);
  cfg.cluster.racks = 2;
  cfg.input_replication = 4;
  return cfg;
}

/// Fault-free reference checksum for a payload scenario config.
inline mapred::Checksum reference_for(
    const workloads::ScenarioConfig& cfg) {
  workloads::Scenario s(cfg);
  EXPECT_TRUE(s.run(strat(core::Strategy::kRcmpSplit)).completed);
  return s.final_output_checksum();
}

/// Every record of `file`, partition by partition.
inline std::vector<mapred::Record> gather_records(
    mapred::PayloadStore& payloads, dfs::NameNode& dfs, dfs::FileId file) {
  std::vector<mapred::Record> all;
  for (dfs::PartitionIndex p = 0; p < dfs.num_partitions(file); ++p) {
    const auto recs = payloads.partition_records(file, p);
    all.insert(all.end(), recs.begin(), recs.end());
  }
  return all;
}

/// The eager oracle: a fault-free replay of the paper's chain workload
/// over `records`, using the same UDFs and per-job salts the engine
/// hands out.
inline mapred::Checksum oracle_checksum(std::vector<mapred::Record> records,
                                        std::uint32_t chain_length) {
  const workloads::ChainMapper mapper;
  const workloads::ChainReducer reducer;
  for (std::uint32_t j = 0; j < chain_length; ++j) {
    mapred::JobSpec spec;
    spec.logical_id = j;
    const std::uint64_t salt = spec.udf_salt();

    mapred::Emitter mapped;
    for (const mapred::Record& rec : records) {
      mapper.map(rec, salt, mapped);
    }
    // Global group-by-key: every key belongs to exactly one reducer
    // partition, so the union over partitions is this exact grouping no
    // matter how many reducers (or recomputation splits) the engine
    // used. Value order inside a group is normalized by sorting; the
    // chain reducer is value-wise, so this only pins iteration order.
    std::map<std::uint64_t, std::vector<std::uint64_t>> groups;
    for (const mapred::Record& r : mapped.records()) {
      groups[r.key].push_back(r.value);
    }
    mapred::Emitter reduced;
    for (auto& [key, values] : groups) {
      std::sort(values.begin(), values.end());
      reducer.reduce(key, values, salt, reduced);
    }
    records = std::move(reduced.records());
  }
  return mapred::checksum_of(records);
}

inline std::uint32_t sum_corrupt_blocks(const core::ChainResult& r) {
  std::uint32_t n = 0;
  for (const auto& run : r.runs) n += run.corrupt_blocks_detected;
  return n;
}

inline std::uint32_t sum_corrupt_map_outputs(const core::ChainResult& r) {
  std::uint32_t n = 0;
  for (const auto& run : r.runs) n += run.corrupt_map_outputs_detected;
  return n;
}

/// Bare simulation + flow network, for tests that build their own
/// cluster.
struct SimFixture {
  sim::Simulation sim;
  res::FlowNetwork net{sim};
};

inline cluster::ClusterSpec spec_of(std::uint32_t nodes,
                                    std::uint32_t racks = 1) {
  cluster::ClusterSpec spec;
  spec.nodes = nodes;
  spec.racks = racks;
  return spec;
}

/// Drives a single JobRun directly, without the middleware. Slots come
/// from a one-chain ChainScheduler, admitted at construction, which
/// kicks the latest run when capacity frees up (as the middleware does).
struct EngineFixture {
  explicit EngineFixture(std::uint32_t nodes = kDefaultNodes,
                         std::uint32_t blocks_per_node = 4,
                         std::uint32_t input_replication = 1,
                         std::uint32_t map_slots = 1,
                         std::uint32_t reduce_slots = 1)
      : net(sim),
        cluster(sim, net, make_cluster(nodes, map_slots, reduce_slots)),
        dfs(cluster, 64_MiB, 123),
        sched(sim, cluster, dfs, nullptr) {
    sched.add_chain(1.0, &outputs);
    sched.set_kick(0, [this](mapred::OpenSlots open) {
      return !runs.empty() && runs.back()->poke(open);
    });
    sched.submit(0, 0.0, [] {});
    sim.run();  // admission

    cfg.detect_timeout = 30.0;
    cfg.task_startup = 0.2;
    cfg.job_setup_time = 1.0;
    cfg.map_cpu_rate = 400e6;
    cfg.reduce_cpu_rate = 400e6;

    input = dfs.create_file("input", nodes, input_replication);
    for (cluster::NodeId n = 0; n < nodes; ++n) {
      const Bytes bytes = static_cast<Bytes>(blocks_per_node) * 64_MiB;
      dfs.commit_partition(
          input, n,
          dfs.plan_write(input, n, bytes,
                         dfs::PlacementPolicy::kLocalFirst));
    }
  }

  static cluster::ClusterSpec make_cluster(std::uint32_t nodes,
                                           std::uint32_t map_slots,
                                           std::uint32_t reduce_slots) {
    cluster::ClusterSpec spec;
    spec.nodes = nodes;
    spec.disk_bw = 100e6;
    spec.nic_bw = 10e9 / 8;
    spec.map_slots = map_slots;
    spec.reduce_slots = reduce_slots;
    return spec;
  }

  mapred::Env env() {
    return mapred::Env{sim, net, cluster, dfs, outputs, payloads,
                       sched.broker(0)};
  }

  mapred::JobSpec make_spec(std::uint32_t reducers,
                            std::uint32_t out_repl = 1) {
    mapred::JobSpec spec;
    spec.name = "test-job";
    spec.logical_id = 0;
    spec.set_input(input);
    spec.output = dfs.create_file("out", reducers, out_repl);
    spec.num_reducers = reducers;
    return spec;
  }

  /// Run a job to completion; returns the finished JobRun.
  mapred::JobRun& run(mapred::JobSpec spec,
                      mapred::RecomputeDirective dir = {}) {
    runs.push_back(std::make_unique<mapred::JobRun>(
        env(), std::move(spec), std::move(dir), cfg, next_ordinal++, 7,
        [](mapred::JobRun&) {}));
    runs.back()->start();
    sim.run();
    return *runs.back();
  }

  sim::Simulation sim;
  res::FlowNetwork net;
  cluster::Cluster cluster;
  dfs::NameNode dfs;
  mapred::MapOutputStore outputs;
  mapred::PayloadStore payloads;
  core::ChainScheduler sched;
  mapred::EngineConfig cfg;
  dfs::FileId input = dfs::kInvalidFile;
  std::uint32_t next_ordinal = 1;
  std::vector<std::unique_ptr<mapred::JobRun>> runs;
};

/// Payload-backed multi-tenant config: `chains` copies of the
/// payload_config chain shape on one shared cluster.
inline workloads::MultiScenarioConfig multi_config(
    std::uint32_t chains, std::uint32_t nodes = 6,
    std::uint32_t chain_length = 3,
    std::uint32_t records_per_node = 128) {
  workloads::MultiScenarioConfig cfg;
  cfg.base = workloads::payload_config(nodes, chain_length,
                                       records_per_node);
  cfg.chains = chains;
  return cfg;
}

/// kRcmpSplit with the shared result cache armed.
inline core::StrategyConfig cache_strategy() {
  auto s = strat(core::Strategy::kRcmpSplit);
  s.result_cache = true;
  return s;
}

/// Multi-tenant config where every chain reads the *same* dataset —
/// the 100%-overlap result-cache scene. Chains are admitted one at a
/// time so later tenants arrive after earlier ones published.
inline workloads::MultiScenarioConfig cache_multi_config(
    std::uint32_t chains, std::uint32_t nodes = 6,
    std::uint32_t chain_length = 3,
    std::uint32_t records_per_node = 128) {
  auto cfg = multi_config(chains, nodes, chain_length, records_per_node);
  cfg.dataset_ids.assign(chains, 0xDA7AULL);
  cfg.max_concurrent = 1;
  return cfg;
}

/// The forced-spill pressure scene (bench_memtier's second scene,
/// downsized): RAM sized far below the per-node working set, so
/// mid-chain writes must demote older memory blocks to disk. Pair with
/// a memory_tier strategy and assert storage.tier.spills > 0.
inline workloads::ScenarioConfig spill_pressure_config(
    std::uint32_t nodes = 8, std::uint32_t chain = 4) {
  auto cfg = chaos_config(nodes, chain);
  cfg.cluster.ram_bytes = 16 * 1024;  // vs a ~64 KiB working set
  return cfg;
}

/// Shared storage budget tight enough to force cross-chain eviction:
/// a quarter off the peak an unconstrained run of the same config
/// reached (test_scheduler's original recipe, shared by the
/// differential and cache suites).
inline Bytes tight_budget(const std::vector<core::ChainResult>& results) {
  Bytes peak = 0;
  for (const auto& res : results) {
    EXPECT_TRUE(res.completed);
    peak = std::max(peak, res.peak_storage);
  }
  EXPECT_GT(peak, 0u);
  return peak - peak / 4;
}

/// tight_budget for call sites without their own unconstrained run.
inline Bytes tight_shared_budget(workloads::MultiScenarioConfig cfg,
                                 const core::StrategyConfig& strategy) {
  workloads::MultiScenario free_run(cfg);
  return tight_budget(free_run.run(strategy));
}

/// Seed count for randomized sweeps: RCMP_FUZZ_SEEDS overrides the
/// local default (CI nightly/sanitizer jobs export 200+).
inline std::uint32_t fuzz_seed_count(std::uint32_t local_default) {
  const char* env = std::getenv("RCMP_FUZZ_SEEDS");
  if (env == nullptr) return local_default;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::uint32_t>(v) : local_default;
}

}  // namespace rcmp::testfx
