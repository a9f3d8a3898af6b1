// Cluster-wide fingerprint-keyed result cache (core/result_cache.hpp).
//
// Three layers of guarantees, in order of increasing integration:
//
//   1. ResultCache unit semantics against a bare DFS: fingerprint
//      structure (a different reducer granularity is a different *key*
//      — the Fig. 5 rule enforced structurally), hit/miss/invalidation
//      classification, lease and eviction protocol.
//   2. Cross-tenant end-to-end: a chain over an already-processed
//      dataset satisfies its whole prefix (here: the whole chain) from
//      another tenant's published outputs, differentially cross-checked
//      by the auditor's eager replay, with policy veto/force gating
//      admission.
//   3. The zero-cost contract: with the cache disarmed — flag off, or
//      armed but anchored to an unknown dataset — runs are
//      byte-identical (same doubles, same trace bytes) to the pre-cache
//      code path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/journal.hpp"
#include "core/policy.hpp"
#include "core/result_cache.hpp"
#include "fixtures.hpp"
#include "mapred/record.hpp"
#include "obs/obs.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using namespace rcmp::literals;

using core::CacheInvalidation;
using core::ResultCache;
using core::ResultCacheConfig;
using core::Strategy;
using testfx::cache_multi_config;
using testfx::cache_strategy;
using testfx::strat;
using workloads::MultiScenario;
using workloads::Scenario;

// --- unit layer: cache against a bare DFS ----------------------------

struct CacheFixture {
  explicit CacheFixture(std::uint32_t nodes = 4, Bytes ram_bytes = 0,
                        ResultCacheConfig cache_cfg = {})
      : net(sim),
        cluster(sim, net, make_spec(nodes, ram_bytes)),
        dfs(cluster, 64_MiB, 7),
        cache(dfs, sim, &obs, cache_cfg) {}

  static cluster::ClusterSpec make_spec(std::uint32_t nodes,
                                        Bytes ram_bytes) {
    auto spec = testfx::spec_of(nodes);
    spec.ram_bytes = ram_bytes;
    return spec;
  }

  /// Fully written file: `parts` partitions of one block each, partition
  /// p local to node p (replica placement is deterministic at repl 1).
  dfs::FileId write_file(const std::string& name, std::uint32_t parts,
                         std::uint32_t replication = 1,
                         cluster::StorageTier tier =
                             cluster::StorageTier::kDisk) {
    const dfs::FileId f = dfs.create_file(name, parts, replication);
    if (tier == cluster::StorageTier::kMemory) dfs.set_file_tier(f, tier);
    for (dfs::PartitionIndex p = 0; p < parts; ++p) {
      rewrite_partition(f, p);
    }
    return f;
  }

  void rewrite_partition(dfs::FileId f, dfs::PartitionIndex p) {
    const auto writer = static_cast<cluster::NodeId>(p % cluster.size());
    dfs.commit_partition(
        f, p,
        dfs.plan_write(f, writer, 64_MiB, dfs::PlacementPolicy::kLocalFirst));
  }

  sim::Simulation sim;
  res::FlowNetwork net;
  cluster::Cluster cluster;
  dfs::NameNode dfs;
  obs::Observability obs;
  ResultCache cache;
};

TEST(ResultCacheUnit, FingerprintFoldsEveryStructuralComponent) {
  const std::uint64_t base =
      ResultCache::fingerprint(0, /*dataset=*/1, /*udf=*/2, /*salt=*/3,
                               /*reducers=*/4, /*position=*/0);
  // Deterministic.
  EXPECT_EQ(base, ResultCache::fingerprint(0, 1, 2, 3, 4, 0));
  // Every component is load-bearing. In particular a different reducer
  // granularity (Fig. 5's illegal-reuse shape) is a different key: the
  // split-recompute output can never be served to a consumer planned at
  // the initial granularity, because it is filed under another name.
  EXPECT_NE(base, ResultCache::fingerprint(9, 1, 2, 3, 4, 0));
  EXPECT_NE(base, ResultCache::fingerprint(0, 9, 2, 3, 4, 0));
  EXPECT_NE(base, ResultCache::fingerprint(0, 1, 9, 3, 4, 0));
  EXPECT_NE(base, ResultCache::fingerprint(0, 1, 2, 9, 4, 0));
  EXPECT_NE(base, ResultCache::fingerprint(0, 1, 2, 3, 9, 0));
  EXPECT_NE(base, ResultCache::fingerprint(0, 1, 2, 3, 4, 9));
  // Chaining: a different upstream fingerprint poisons every deeper
  // position even when the position-local shape matches.
  EXPECT_NE(ResultCache::fingerprint(base, 1, 2, 3, 4, 1),
            ResultCache::fingerprint(base ^ 1, 1, 2, 3, 4, 1));
}

TEST(ResultCacheUnit, DifferentGranularityIsADifferentKey) {
  // An output produced with 4 reducers is invisible to a lookup keyed
  // at 8 reducers — a structural miss, never a legality-checked hit.
  CacheFixture fx;
  const auto f = fx.write_file("out", 4);
  const std::uint64_t fp4 = ResultCache::fingerprint(0, 1, 2, 3, 4, 0);
  const std::uint64_t fp8 = ResultCache::fingerprint(0, 1, 2, 3, 8, 0);
  ASSERT_TRUE(fx.cache.publish(fp4, f, 0, 0, false, 0));
  EXPECT_EQ(fx.cache.lookup(fp8, 0), nullptr);
  EXPECT_NE(fx.cache.lookup(fp4, 0), nullptr);
}

TEST(ResultCacheUnit, PublishLookupAndFirstWriterWins) {
  CacheFixture fx;
  const auto f1 = fx.write_file("out1", 3);
  const auto f2 = fx.write_file("out2", 3);
  const std::uint64_t fp = 0xF00D;

  // An unwritten file is not publishable.
  const auto empty = fx.dfs.create_file("empty", 2, 1);
  EXPECT_FALSE(fx.cache.publish(fp, empty, 0, 0, false, 0));

  EXPECT_TRUE(fx.cache.publish(fp, f1, /*owner=*/0, /*position=*/1,
                               /*is_final=*/false, /*trace_chain=*/0));
  // Duplicate publication of a still-valid entry loses.
  EXPECT_FALSE(fx.cache.publish(fp, f2, 1, 1, false, 0));
  EXPECT_EQ(fx.obs.metrics.counter("cache.duplicate_publishes"), 1u);

  const ResultCache::Entry* e = fx.cache.lookup(fp, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->file, f1);
  EXPECT_EQ(e->owner_chain, 0u);
  EXPECT_EQ(e->position, 1u);
  EXPECT_EQ(fx.cache.hits(), 1u);
  EXPECT_EQ(fx.cache.lookup(0xBEEF, 0), nullptr);
  EXPECT_EQ(fx.cache.misses(), 1u);

  // Once the first writer's entry dies, the second publication takes.
  fx.dfs.delete_file(f1);
  EXPECT_TRUE(fx.cache.publish(fp, f2, 1, 1, false, 0));
  e = fx.cache.lookup(fp, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->file, f2);
}

TEST(ResultCacheUnit, LayoutBumpInvalidatesPermanently) {
  // Fig. 5 at the entry level: a partition rewritten after publication
  // (a split recompute bumps layout_version) permanently kills the
  // entry — even though bytes are present and available again.
  CacheFixture fx;
  const auto f = fx.write_file("out", 2);
  ASSERT_TRUE(fx.cache.publish(0xA, f, 0, 0, false, 0));

  fx.dfs.clear_partition(f, 1, /*preserve_layout=*/false);
  fx.rewrite_partition(f, 1);
  ASSERT_TRUE(fx.dfs.file_available(f));

  EXPECT_EQ(fx.cache.lookup(0xA, 0), nullptr);
  EXPECT_EQ(fx.cache.invalidations(), 1u);
  EXPECT_EQ(fx.cache.size(), 0u);  // dropped, not just missed

  // A layout-preserving rewrite (deterministic NO-SPLIT recompute) is
  // reusable: same version, same entry, a hit.
  const auto g = fx.write_file("out2", 2);
  ASSERT_TRUE(fx.cache.publish(0xB, g, 0, 0, false, 0));
  fx.dfs.clear_partition(g, 0, /*preserve_layout=*/true);
  fx.rewrite_partition(g, 0);
  EXPECT_NE(fx.cache.lookup(0xB, 0), nullptr);
}

TEST(ResultCacheUnit, UnavailablePartitionIsAMissNotAFuneral) {
  CacheFixture fx;
  const auto f = fx.write_file("out", 4, /*replication=*/1);
  ASSERT_TRUE(fx.cache.publish(0xA, f, 0, 0, false, 0));

  // A node death takes the sole replica of its partition: the bytes may
  // come back when the node reconciles, so the entry survives as a miss.
  fx.cluster.kill(1);
  fx.dfs.on_node_failure(1);
  ASSERT_FALSE(fx.dfs.file_available(f));
  EXPECT_EQ(fx.cache.lookup(0xA, 0), nullptr);
  EXPECT_EQ(fx.cache.size(), 1u);
  EXPECT_EQ(fx.cache.invalidations(), 0u);

  // Deletion is permanent.
  fx.dfs.delete_file(f);
  EXPECT_EQ(fx.cache.lookup(0xA, 0), nullptr);
  EXPECT_EQ(fx.cache.size(), 0u);
  EXPECT_EQ(fx.cache.invalidations(), 1u);
}

TEST(ResultCacheUnit, InvalidationEmitsTraceAndCounters) {
  CacheFixture fx;
  fx.obs.tracer.enable(1024);
  const auto f = fx.write_file("out", 2);
  ASSERT_TRUE(fx.cache.publish(0xA, f, 0, 0, false, 0));
  EXPECT_EQ(fx.obs.metrics.counter("cache.publishes"), 1u);
  fx.dfs.delete_file(f);
  EXPECT_EQ(fx.cache.lookup(0xA, /*trace_chain=*/2), nullptr);
  EXPECT_EQ(fx.obs.metrics.counter("cache.invalidations"), 1u);
  const std::string trace = fx.obs.tracer.export_jsonl();
  EXPECT_NE(trace.find("\"ev\":\"cache_invalidate\""), std::string::npos);
}

TEST(ResultCacheUnit, VolatileEntryMissesUntilSpilledToDisk) {
  // Memory-tier blocks are not durable: the entry misses while any
  // block sits in RAM, and becomes a hit — without republication —
  // once the bytes demote to disk (volatility is re-derived per
  // lookup).
  CacheFixture fx(/*nodes=*/4, /*ram_bytes=*/1_GiB);
  const auto f = fx.write_file("mem", 2, /*replication=*/1,
                               cluster::StorageTier::kMemory);
  ASSERT_EQ(fx.dfs.block(fx.dfs.partition(f, 0).blocks.front()).tier,
            cluster::StorageTier::kMemory);
  ASSERT_TRUE(fx.cache.publish(0xA, f, 0, 0, false, 0));
  EXPECT_EQ(fx.cache.lookup(0xA, 0), nullptr);
  EXPECT_EQ(fx.cache.size(), 1u);  // volatile = miss, never invalidation
  EXPECT_EQ(fx.cache.invalidations(), 0u);

  // Demote: layout-preserving rewrite onto the disk tier (what a spill
  // does to the bytes). The same entry turns durable.
  fx.dfs.set_file_tier(f, cluster::StorageTier::kDisk);
  for (dfs::PartitionIndex p = 0; p < 2; ++p) {
    fx.dfs.clear_partition(f, p, /*preserve_layout=*/true);
    fx.rewrite_partition(f, p);
  }
  EXPECT_NE(fx.cache.lookup(0xA, 0), nullptr);

  // allow_volatile_hits opts out of the durability rule entirely.
  ResultCacheConfig loose;
  loose.allow_volatile_hits = true;
  CacheFixture fx2(4, 1_GiB, loose);
  const auto g =
      fx2.write_file("mem2", 2, 1, cluster::StorageTier::kMemory);
  ASSERT_TRUE(fx2.cache.publish(0xB, g, 0, 0, false, 0));
  EXPECT_NE(fx2.cache.lookup(0xB, 0), nullptr);
}

TEST(ResultCacheUnit, EvictionProtocolProtectsLeasesAndFinals) {
  CacheFixture fx;
  const auto f0 = fx.write_file("o0", 2);
  const auto f1 = fx.write_file("o1", 2);
  const auto f2 = fx.write_file("o2", 2);
  ASSERT_TRUE(fx.cache.publish(0xA, f0, 0, 0, false, 0));
  ASSERT_TRUE(fx.cache.publish(0xB, f1, 0, 1, false, 0));
  ASSERT_TRUE(fx.cache.publish(0xC, f2, 0, 2, /*is_final=*/true, 0));

  // Owner still running: nothing is evictable.
  EXPECT_EQ(fx.cache.evict_one(), 0u);
  fx.cache.owner_finished(0);

  // A leased entry stays protected even after the owner finished.
  fx.cache.lease(0xA);
  EXPECT_GT(fx.cache.evict_one(), 0u);
  EXPECT_FALSE(fx.dfs.file_exists(f1));  // oldest *unleased* non-final
  EXPECT_TRUE(fx.dfs.file_exists(f0));
  EXPECT_EQ(fx.obs.metrics.counter("cache.evictions"), 1u);

  // Final outputs are never cache-evicted.
  EXPECT_EQ(fx.cache.evict_one(), 0u);
  EXPECT_TRUE(fx.dfs.file_exists(f2));

  // Releasing the lease re-arms eviction.
  fx.cache.release(0xA);
  EXPECT_GT(fx.cache.evict_one(), 0u);
  EXPECT_FALSE(fx.dfs.file_exists(f0));
  EXPECT_TRUE(fx.dfs.file_exists(f2));
}

TEST(ResultCacheUnit, DetachMakesARunningOwnersEntryEvictable) {
  CacheFixture fx;
  const auto f = fx.write_file("o", 2);
  ASSERT_TRUE(fx.cache.publish(0xA, f, 0, 0, false, 0));
  ASSERT_NE(fx.cache.find(0xA), nullptr);
  EXPECT_EQ(fx.cache.evict_one(), 0u);  // owner still running
  fx.cache.detach(0xA);                 // owner donated the file
  EXPECT_GT(fx.cache.evict_one(), 0u);
  EXPECT_EQ(fx.cache.find(0xA), nullptr);
}

// --- end-to-end layer: cross-tenant satisfaction ---------------------

TEST(ResultCacheE2E, SecondTenantSatisfiesWholeChainFromFirst) {
  // Two chains, same dataset, admitted one at a time: chain 1 arrives
  // after chain 0 published every position, probes deepest-first and
  // borrows the *final* output — zero jobs run.
  auto cfg = cache_multi_config(/*chains=*/2);
  cfg.base.trace_capacity = 1 << 16;
  MultiScenario ms(cfg);
  const auto r = ms.run(cache_strategy());
  ASSERT_TRUE(r[0].completed && r[1].completed);

  EXPECT_EQ(r[0].cache_hits, 0u);
  EXPECT_GT(r[0].cache_published, 0u);
  EXPECT_EQ(r[1].cache_hits, 1u);  // one whole-chain borrow
  EXPECT_TRUE(r[1].runs.empty());
  EXPECT_EQ(r[1].jobs_started, 0u);

  // Identical bytes, differentially confirmed by the auditor's eager
  // replay of the satisfied prefix against the borrowed file.
  EXPECT_EQ(ms.final_output_checksum(0), ms.final_output_checksum(1));
  EXPECT_GT(ms.obs().metrics.counter("cache.hits"), 0u);
  EXPECT_GT(ms.obs().metrics.counter("cache.bytes_served"), 0u);
  EXPECT_GT(ms.obs().metrics.counter("audit.cache_hit_checks"), 0u);
  EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
  ASSERT_NE(ms.result_cache(), nullptr);
  EXPECT_GT(ms.result_cache()->hits(), 0u);

  const std::string trace = ms.obs().tracer.export_jsonl();
  EXPECT_NE(trace.find("\"ev\":\"cache_hit\""), std::string::npos);
}

TEST(ResultCacheE2E, DistinctDatasetsNeverCrossHit) {
  // Same chain shape, different dataset ids: structural fingerprints
  // differ from position 0, so nothing is borrowable — both tenants
  // publish, neither hits, and their outputs rightly differ.
  auto cfg = cache_multi_config(/*chains=*/2);
  cfg.dataset_ids = {0xD1ULL, 0xD2ULL};
  MultiScenario ms(cfg);
  const auto r = ms.run(cache_strategy());
  ASSERT_TRUE(r[0].completed && r[1].completed);
  EXPECT_EQ(r[0].cache_hits + r[1].cache_hits, 0u);
  EXPECT_GT(ms.obs().metrics.counter("cache.publishes"), 0u);
  EXPECT_FALSE(ms.final_output_checksum(0) == ms.final_output_checksum(1));
  EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
}

// --- the auditor's eager oracle --------------------------------------

/// Four chains over one dataset, admitted one at a time, run to the end
/// with every cache-hit check captured on its way to the auditor. Not
/// copyable: the hook wrapper points back at the scene.
struct OracleScene {
  OracleScene() : ms(cache_multi_config(/*chains=*/4)) {
    obs::Observability& o = ms.obs();
    o.cache_hit_hook = [this, audit = o.cache_hit_hook](
                           const obs::CacheHitCheck& chc) {
      checks.push_back(chc);
      audit(chc);
    };
    results = ms.run(cache_strategy());
  }
  OracleScene(const OracleScene&) = delete;
  OracleScene& operator=(const OracleScene&) = delete;

  std::uint64_t counter(const char* name) {
    return ms.obs().metrics.counter(name);
  }
  /// The check's source records, in partition order.
  std::vector<mapred::Record> source(const obs::CacheHitCheck& chc) {
    std::vector<mapred::Record> records;
    for (std::uint32_t p = 0; p < ms.dfs().num_partitions(chc.input_file);
         ++p) {
      const auto span = ms.payloads().partition_records(chc.input_file, p);
      records.insert(records.end(), span.begin(), span.end());
    }
    return records;
  }
  /// Check `chc` again and return the AuditError's report ("" = passed).
  std::string recheck(const obs::CacheHitCheck& chc) {
    try {
      ms.obs().check_cache_hit(chc);
    } catch (const obs::AuditError& e) {
      return e.what();
    }
    return "";
  }

  MultiScenario ms;
  std::vector<obs::CacheHitCheck> checks;
  std::vector<core::ChainResult> results;
};

TEST(CacheHitOracle, ReplaysOncePerDistinctSourceAndPrefix) {
  OracleScene s;
  for (const auto& r : s.results) ASSERT_TRUE(r.completed);
  ASSERT_GE(s.checks.size(), 2u);
  // The distinct (source records, UDF prefix) pairs, from the evidence.
  using Pair = std::tuple<std::vector<mapred::Record>,
                          std::vector<const mapred::MapUdf*>,
                          std::vector<const mapred::ReduceUdf*>,
                          std::vector<std::uint64_t>>;
  std::vector<Pair> distinct;
  for (const obs::CacheHitCheck& chc : s.checks) {
    Pair pair{s.source(chc), chc.mappers, chc.reducers, chc.udf_salts};
    if (std::find(distinct.begin(), distinct.end(), pair) == distinct.end()) {
      distinct.push_back(std::move(pair));
    }
  }
  EXPECT_EQ(s.counter("audit.cache_hit_checks"), s.checks.size());
  EXPECT_EQ(s.counter("audit.cache_hit_replays"), distinct.size());
  EXPECT_LT(s.counter("audit.cache_hit_replays"),
            s.counter("audit.cache_hit_checks"));

  // An intact hit checked again is served from the memo, and passes.
  const std::uint64_t replays = s.counter("audit.cache_hit_replays");
  EXPECT_EQ(s.recheck(s.checks.front()), "");
  EXPECT_EQ(s.counter("audit.cache_hit_replays"), replays);
  EXPECT_EQ(s.counter("audit.cache_hit_checks"), s.checks.size());
}

TEST(CacheHitOracle, CorruptCachedBytesFailWithoutAReplay) {
  OracleScene s;
  ASSERT_FALSE(s.checks.empty());
  const obs::CacheHitCheck hit = s.checks.front();
  const std::uint64_t replays = s.counter("audit.cache_hit_replays");
  ASSERT_TRUE(s.ms.payloads().corrupt_record(hit.cached_file, 0));
  EXPECT_NE(s.recheck(hit).find("served wrong bytes"), std::string::npos);
  EXPECT_EQ(s.counter("audit.cache_hit_replays"), replays);
}

TEST(CacheHitOracle, ChangedSourceRecordsReplayAndFail) {
  // Same input file, one record changed: the memo is keyed by the
  // records, so the prefix is replayed over the new ones and disagrees
  // with the (intact) cached bytes.
  OracleScene s;
  ASSERT_FALSE(s.checks.empty());
  const obs::CacheHitCheck hit = s.checks.front();
  const std::uint64_t replays = s.counter("audit.cache_hit_replays");
  ASSERT_TRUE(s.ms.payloads().corrupt_record(hit.input_file, 0));
  EXPECT_NE(s.recheck(hit).find("served wrong bytes"), std::string::npos);
  EXPECT_EQ(s.counter("audit.cache_hit_replays"), replays + 1);
}

TEST(CacheHitOracle, AShorterPrefixOverTheSameSourceReplays) {
  OracleScene s;
  ASSERT_FALSE(s.checks.empty());
  obs::CacheHitCheck hit = s.checks.front();
  ASSERT_GE(hit.mappers.size(), 2u);
  const std::uint64_t replays = s.counter("audit.cache_hit_replays");
  hit.mappers.pop_back();
  hit.reducers.pop_back();
  hit.udf_salts.pop_back();
  EXPECT_NE(s.recheck(hit).find("served wrong bytes"), std::string::npos);
  EXPECT_EQ(s.counter("audit.cache_hit_replays"), replays + 1);
}

// --- policy gating ---------------------------------------------------

/// Constant cache-admission stance at every job boundary.
class AdmitPolicy final : public core::IPolicy {
 public:
  explicit AdmitPolicy(std::int8_t admit) : admit_(admit) {}
  const char* name() const override { return "admit"; }
  std::unique_ptr<core::IPolicy> clone() const override {
    return std::make_unique<AdmitPolicy>(*this);
  }
  core::PolicyDecision on_job_boundary(
      const core::PolicyContext&) override {
    core::PolicyDecision d;
    d.cache_admit = admit_;
    return d;
  }

 private:
  std::int8_t admit_;
};

TEST(ResultCachePolicy, VetoSuppressesEveryPublication) {
  auto cfg = cache_multi_config(/*chains=*/2);
  MultiScenario ms(cfg);
  auto strategy = cache_strategy();
  strategy.policy = std::make_shared<AdmitPolicy>(/*admit=*/0);
  const auto r = ms.run(strategy);
  ASSERT_TRUE(r[0].completed && r[1].completed);
  EXPECT_EQ(ms.obs().metrics.counter("cache.publishes"), 0u);
  EXPECT_EQ(r[0].cache_published + r[1].cache_published, 0u);
  EXPECT_EQ(r[0].cache_hits + r[1].cache_hits, 0u);
  // Vetoing the cache costs reuse, never correctness.
  EXPECT_EQ(ms.final_output_checksum(0), ms.final_output_checksum(1));
  EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
}

TEST(ResultCachePolicy, ForceOverridesAdmitByDefaultOff) {
  auto cfg = cache_multi_config(/*chains=*/2);
  cfg.cache.admit_by_default = false;

  {  // Default-off alone: nothing is published, nothing hits.
    MultiScenario ms(cfg);
    const auto r = ms.run(cache_strategy());
    ASSERT_TRUE(r[0].completed && r[1].completed);
    EXPECT_EQ(ms.obs().metrics.counter("cache.publishes"), 0u);
    EXPECT_EQ(r[0].cache_hits + r[1].cache_hits, 0u);
  }
  {  // A forcing policy re-enables admission over the off default.
    MultiScenario ms(cfg);
    auto strategy = cache_strategy();
    strategy.policy = std::make_shared<AdmitPolicy>(/*admit=*/1);
    const auto r = ms.run(strategy);
    ASSERT_TRUE(r[0].completed && r[1].completed);
    EXPECT_GT(ms.obs().metrics.counter("cache.publishes"), 0u);
    EXPECT_GT(r[1].cache_hits, 0u);
    EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
  }
}

// --- zero-cost contract ----------------------------------------------

struct ParityRun {
  double makespan = 0.0;
  std::string trace;
};

/// Single-tenant run with the cache flag set or cleared. The scenario's
/// dataset_id stays 0 ("unknown content"), so the armed cache is
/// constructed but consulted nowhere — the exact inert configuration
/// every pre-cache caller gets by default.
ParityRun parity_run(bool armed, cluster::FailurePlan failures = {}) {
  auto cfg = workloads::payload_config(6, 4, /*records_per_node=*/256);
  cfg.trace_capacity = 1 << 16;
  EXPECT_EQ(cfg.dataset_id, 0u) << "anchorless by default";
  Scenario s(cfg);
  auto strategy = strat(Strategy::kRcmpSplit);
  strategy.result_cache = armed;
  const auto r = s.run(strategy, std::move(failures));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.cache_hits, 0u);
  EXPECT_EQ(r.cache_published, 0u);
  return {r.total_time, s.obs().tracer.export_jsonl()};
}

TEST(ResultCacheParity, AnchorlessCacheIsByteIdenticalFaultFree) {
  const ParityRun off = parity_run(/*armed=*/false);
  const ParityRun on = parity_run(/*armed=*/true);
  EXPECT_DOUBLE_EQ(on.makespan, off.makespan);
  EXPECT_FALSE(off.trace.empty());
  EXPECT_EQ(on.trace, off.trace);
}

TEST(ResultCacheParity, AnchorlessCacheIsByteIdenticalUnderFailures) {
  const ParityRun off = parity_run(false, testfx::fail_at({2, 3}));
  const ParityRun on = parity_run(true, testfx::fail_at({2, 3}));
  EXPECT_DOUBLE_EQ(on.makespan, off.makespan);
  EXPECT_NE(off.trace.find("\"ev\":\"replan\""), std::string::npos);
  EXPECT_EQ(on.trace, off.trace);
}

TEST(ResultCacheParity, UnarmedMultiTenantIgnoresDatasetOverlap) {
  // dataset_ids set but strategy.result_cache off: the shared-dataset
  // input generation applies, yet no cache is constructed and no chain
  // borrows anything — outputs are equal because the *computation* is,
  // not because bytes were shared.
  auto cfg = cache_multi_config(/*chains=*/2);
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r[0].completed && r[1].completed);
  EXPECT_EQ(ms.result_cache(), nullptr);
  EXPECT_EQ(r[0].cache_hits + r[1].cache_hits, 0u);
  EXPECT_EQ(ms.obs().metrics.counter("cache.publishes"), 0u);
  EXPECT_GT(r[1].jobs_started, 0u);  // everything actually computed
  EXPECT_EQ(ms.input_checksum(0), ms.input_checksum(1));
  EXPECT_EQ(ms.final_output_checksum(0), ms.final_output_checksum(1));
}

// --- coordinator crash–recovery composition --------------------------
// A master crash wipes the registry (it is coordinator state); journal
// replay re-publishes and borrowers must re-prove leases. The hazard
// pair: a crash landing between a publication and the borrower's lease
// pin must neither leak the lease nor double-publish the fingerprint.

TEST(ResultCacheRecovery, CrashBetweenPublishAndLeaseLeaksNothing) {
  CacheFixture fx;
  const auto f = fx.write_file("out", 4);
  const std::uint64_t fp = ResultCache::fingerprint(0, 1, 2, 3, 4, 0);
  ASSERT_TRUE(fx.cache.publish(fp, f, 0, 0, false, 0));
  // The master dies after publication, before any borrower pinned a
  // lease: the entry vanishes with the registry.
  fx.cache.master_crash_reset();
  EXPECT_EQ(fx.cache.size(), 0u);
  EXPECT_EQ(fx.cache.find(fp), nullptr);
  // Replay re-publishes exactly once; the duplicate is refused and the
  // surviving entry carries no phantom lease.
  EXPECT_TRUE(fx.cache.publish(fp, f, 0, 0, false, 0));
  EXPECT_FALSE(fx.cache.publish(fp, f, 0, 0, false, 0));
  ASSERT_NE(fx.cache.find(fp), nullptr);
  EXPECT_EQ(fx.cache.find(fp)->leases, 0u);
  EXPECT_EQ(fx.cache.size(), 1u);
}

TEST(ResultCacheRecovery, LiveLeaseDiesWithTheMasterAndMustBeReProven) {
  CacheFixture fx;
  const auto f = fx.write_file("out", 4);
  const std::uint64_t fp = ResultCache::fingerprint(0, 1, 2, 3, 4, 0);
  ASSERT_TRUE(fx.cache.publish(fp, f, 0, 0, false, 0));
  fx.cache.lease(fp);
  ASSERT_EQ(fx.cache.find(fp)->leases, 1u);
  fx.cache.master_crash_reset();
  // Re-published entry starts lease-free: a borrower that assumed its
  // pre-crash lease would double-release on finish.
  EXPECT_TRUE(fx.cache.publish(fp, f, 0, 0, false, 0));
  EXPECT_EQ(fx.cache.find(fp)->leases, 0u);
  // Publish-order clock keeps ticking: the recovered entry ages after
  // any pre-crash survivor would have.
  EXPECT_GE(fx.cache.find(fp)->seq, 1u);
}

TEST(ResultCacheRecovery, CrashAtPublishBoundaryKeepsTenantsByteIdentical) {
  // End-to-end: crash the coordinator exactly at the cache-publication
  // journal boundary (publication un-durable) and one boundary later
  // (publication durable, any lease not), in the 100%-overlap
  // two-tenant scene. Both tenants must still finish byte-identical to
  // the crash-free run.
  auto cfg = cache_multi_config(/*chains=*/2);
  cfg.base.journal = true;
  std::vector<mapred::Checksum> ref;
  std::size_t publish_at = 0;
  std::size_t n_records = 0;
  {
    MultiScenario ms(cfg);
    const auto results = ms.run(cache_strategy());
    for (std::size_t c = 0; c < results.size(); ++c) {
      ASSERT_TRUE(results[c].completed);
      ref.push_back(ms.final_output_checksum(
          static_cast<std::uint32_t>(c)));
    }
    const auto& recs = ms.journal()->records();
    n_records = recs.size();
    while (publish_at < n_records &&
           recs[publish_at].type !=
               core::JournalRecordType::kCachePublish) {
      ++publish_at;
    }
    ASSERT_LT(publish_at, n_records) << "scene never published";
  }
  for (const std::size_t k : {publish_at, publish_at + 1}) {
    ASSERT_LT(k, n_records);
    MultiScenario ms(cfg);
    ms.journal()->arm_crash(k, [&ms] {
      ms.sim().schedule_after(0.0, [&ms] { ms.crash_master(); });
    });
    const auto results = ms.run(cache_strategy());
    for (std::size_t c = 0; c < results.size(); ++c) {
      EXPECT_TRUE(results[c].completed)
          << "chain " << c << " crash point " << k;
      EXPECT_EQ(ms.final_output_checksum(static_cast<std::uint32_t>(c)),
                ref[c])
          << "chain " << c << " crash point " << k;
    }
    EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
  }
}

}  // namespace
}  // namespace rcmp
