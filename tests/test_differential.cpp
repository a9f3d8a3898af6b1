// Differential correctness harness.
//
// An eager, single-process oracle (testfx::oracle_checksum) replays
// each chain fault-free: map every input record with the job's udf
// salt, group globally by key (partition_of assigns each key to exactly
// one reducer partition, so a global group-by is split- and
// placement-agnostic), reduce, feed the next job. Any simulated run
// that *survives* — fault-free or under a seed-sampled chaos schedule,
// single- or multi-tenant, split or optimistic recovery — must produce
// a final output whose order-independent Checksum is byte-equal to the
// oracle's.
//
// Seed counts scale with RCMP_FUZZ_SEEDS (CI nightly/sanitizer jobs
// export 200+); the local defaults keep the suite fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fixtures.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using core::Strategy;
using testfx::fail_at;
using testfx::gather_records;
using testfx::multi_config;
using testfx::oracle_checksum;
using testfx::strat;
using workloads::MultiScenario;
using workloads::Scenario;

TEST(Differential, FaultFreeSingleTenantMatchesOracle) {
  const auto cfg = workloads::payload_config(5, 4, 128);
  Scenario sc(cfg);
  const auto input = gather_records(sc.payloads(), sc.dfs(), sc.input_file());
  ASSERT_EQ(mapred::checksum_of(input), sc.input_checksum());

  const auto r = sc.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sc.final_output_checksum(),
            oracle_checksum(input, cfg.chain_length));
}

TEST(Differential, SurvivedChaosRunsMatchOracle) {
  const auto cfg = testfx::chaos_config(/*nodes=*/8, /*chain=*/4);
  mapred::Checksum oracle;
  {
    Scenario probe(cfg);
    oracle = oracle_checksum(
        gather_records(probe.payloads(), probe.dfs(), probe.input_file()),
        cfg.chain_length);
  }

  cluster::RandomScheduleOptions opt;  // defaults: 4 mixed-mode events
  const std::uint32_t seeds = testfx::fuzz_seed_count(10);
  std::uint32_t survived = 0;
  for (std::uint32_t seed = 0; seed < seeds; ++seed) {
    for (auto s : {Strategy::kRcmpSplit, Strategy::kOptimistic}) {
      Scenario sc(cfg);
      const auto r =
          sc.run_chaos(strat(s), cluster::random_schedule(opt, 1000 + seed));
      EXPECT_EQ(sc.obs().metrics.counter("audit.violations"), 0u);
      if (!r.completed) continue;  // e.g. source input lost — legal
      ++survived;
      EXPECT_EQ(sc.final_output_checksum(), oracle)
          << "seed " << seed << " strategy " << static_cast<int>(s);
    }
  }
  EXPECT_GT(survived, 0u);
}

TEST(Differential, StragglersNeverCorruptResults) {
  // Slowed-but-alive nodes (a hot CPU, a failing drive) change timing
  // only: the output must stay byte-equal to the oracle, and — since
  // stragglers keep heartbeating — the failure detector must never
  // suspect one.
  const auto cfg = testfx::chaos_config(/*nodes=*/8, /*chain=*/4);
  mapred::Checksum oracle;
  {
    Scenario probe(cfg);
    oracle = oracle_checksum(
        gather_records(probe.payloads(), probe.dfs(), probe.input_file()),
        cfg.chain_length);
  }

  const std::uint32_t seeds = testfx::fuzz_seed_count(4);
  for (std::uint32_t seed = 0; seed < seeds; ++seed) {
    for (auto s : {Strategy::kRcmpSplit, Strategy::kOptimistic}) {
      auto run_cfg = cfg;
      run_cfg.detector.enabled = true;
      Scenario sc(run_cfg);
      // Deterministic per-seed straggler assignment: one slow CPU, one
      // degraded disk, never the same node.
      const cluster::NodeId slow_cpu = seed % 8;
      const cluster::NodeId bad_disk = (seed + 3) % 8;
      sc.cluster().set_cpu_factor(slow_cpu, 4.0 + seed);
      sc.cluster().degrade_disk(bad_disk, 3.0);
      const auto r = sc.run(strat(s));
      ASSERT_TRUE(r.completed) << "seed " << seed;
      EXPECT_EQ(sc.final_output_checksum(), oracle)
          << "seed " << seed << " strategy " << static_cast<int>(s);
      ASSERT_NE(sc.detector(), nullptr);
      EXPECT_EQ(sc.detector()->false_suspicions(), 0u) << "seed " << seed;
      EXPECT_EQ(sc.obs().metrics.counter("audit.violations"), 0u);
    }
  }
}

TEST(Differential, SpeculationWinsAgainstStragglerStayCorrect) {
  // With speculation armed, backup attempts beat the straggler's
  // originals; winner-only registration keeps the output byte-equal to
  // the oracle, and the per-run win counters roll up into the metrics
  // registry.
  auto cfg = workloads::payload_config(6, 3);
  mapred::Checksum oracle;
  {
    Scenario probe(cfg);
    oracle = oracle_checksum(
        gather_records(probe.payloads(), probe.dfs(), probe.input_file()),
        cfg.chain_length);
  }

  cfg.detector.enabled = true;
  cfg.engine.speculative_execution = true;
  cfg.engine.speculative_reducers = true;
  cfg.engine.speculative_slowness = 1.2;
  cfg.engine.speculative_check_interval = 0.2;
  cfg.engine.map_cpu_rate = 2e6;  // compute-dominant at payload scale
  cfg.engine.reduce_cpu_rate = 2e6;
  Scenario sc(cfg);
  sc.cluster().set_cpu_factor(0, 300.0);
  const auto r = sc.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sc.final_output_checksum(), oracle);

  std::uint32_t launched = 0, won = 0;
  for (const auto& run : r.runs) {
    launched += run.speculative_launched;
    won += run.speculative_won;
  }
  EXPECT_GT(launched, 0u);
  EXPECT_GT(won, 0u);
  EXPECT_GE(launched, won);
  EXPECT_EQ(sc.obs().metrics.counter("jobs.speculative.launched"),
            launched);
  EXPECT_EQ(sc.obs().metrics.counter("jobs.speculative.won"), won);
}

TEST(Differential, FaultFreeMultiTenantMatchesOracle) {
  const auto cfg = multi_config(/*chains=*/2, /*nodes=*/6,
                                /*chain_length=*/3, /*records_per_node=*/96);
  MultiScenario ms(cfg);
  std::vector<std::vector<mapred::Record>> inputs;
  for (std::uint32_t c = 0; c < 2; ++c) {
    inputs.push_back(
        gather_records(ms.payloads(), ms.dfs(), ms.input_file(c)));
  }
  // Tenants get distinct data from the shared generator stream.
  ASSERT_NE(mapred::checksum_of(inputs[0]), mapred::checksum_of(inputs[1]));

  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  for (std::uint32_t c = 0; c < 2; ++c) {
    ASSERT_TRUE(r[c].completed);
    EXPECT_EQ(ms.final_output_checksum(c),
              oracle_checksum(inputs[c], cfg.base.chain_length))
        << "chain " << c;
  }
}

TEST(Differential, SurvivedMultiTenantChaosMatchesOracle) {
  auto cfg = multi_config(/*chains=*/3, /*nodes=*/8, /*chain_length=*/3,
                          /*records_per_node=*/64);
  cfg.base.input_replication = 4;  // keep sources survivable

  // Inputs depend only on the config, so one probe instance provides the
  // oracle for every seeded run below.
  std::vector<mapred::Checksum> oracle;
  {
    MultiScenario probe(cfg);
    for (std::uint32_t c = 0; c < cfg.chains; ++c) {
      oracle.push_back(oracle_checksum(
          gather_records(probe.payloads(), probe.dfs(), probe.input_file(c)),
          cfg.base.chain_length));
    }
  }

  cluster::RandomScheduleOptions opt;
  opt.events = 3;
  opt.max_ordinal = 8;  // ordinals count job starts across all chains
  const std::uint32_t seeds = testfx::fuzz_seed_count(6);
  std::uint32_t survived = 0;
  for (std::uint32_t seed = 0; seed < seeds; ++seed) {
    MultiScenario ms(cfg);
    const auto r = ms.run_chaos(strat(Strategy::kRcmpSplit),
                                cluster::random_schedule(opt, 2000 + seed));
    EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
    for (std::uint32_t c = 0; c < cfg.chains; ++c) {
      if (!r[c].completed) continue;
      ++survived;
      EXPECT_EQ(ms.final_output_checksum(c), oracle[c])
          << "seed " << seed << " chain " << c;
    }
  }
  EXPECT_GT(survived, 0u);
}

// --- memory-tier differential ----------------------------------------
//
// The RAM tier (DESIGN.md §13) changes *where* intermediate bytes live
// and *when* they move, never *what* they are. Every scenario below —
// spill under pressure, RAM wiped by a node kill, cross-chain eviction
// of deduplicated memory blocks — must still produce the eager oracle's
// checksum, and with the tier disabled the trace must be byte-identical
// to the pre-tier code path.

TEST(MemoryTierDifferential, ChaosWithSpillPressureMatchesOracle) {
  // Forced-spill pressure scene (testfx::spill_pressure_config):
  // mid-shuffle spills are guaranteed, so the checksum exercises reads
  // that cross the memory/disk boundary while chaos replans around
  // them.
  auto cfg = testfx::spill_pressure_config(/*nodes=*/8, /*chain=*/4);
  mapred::Checksum oracle;
  {
    Scenario probe(cfg);
    oracle = oracle_checksum(
        gather_records(probe.payloads(), probe.dfs(), probe.input_file()),
        cfg.chain_length);
  }

  auto strategy = strat(Strategy::kRcmpSplit);
  strategy.memory_tier = true;

  cluster::RandomScheduleOptions opt;  // defaults: 4 mixed-mode events
  const std::uint32_t seeds = testfx::fuzz_seed_count(8);
  std::uint32_t survived = 0;
  std::uint64_t spills = 0;
  for (std::uint32_t seed = 0; seed < seeds; ++seed) {
    Scenario sc(cfg);
    const auto r =
        sc.run_chaos(strategy, cluster::random_schedule(opt, 3000 + seed));
    EXPECT_EQ(sc.obs().metrics.counter("audit.violations"), 0u);
    spills += sc.obs().metrics.counter("storage.tier.spills");
    if (!r.completed) continue;  // e.g. source input lost — legal
    ++survived;
    EXPECT_EQ(sc.final_output_checksum(), oracle) << "seed " << seed;
  }
  EXPECT_GT(survived, 0u);
  EXPECT_GT(spills, 0u);
}

TEST(MemoryTierDifferential, RamLossOnNodeKillStaysCorrect) {
  // Ample RAM, permanent kill mid-chain: the dead node's memory blocks
  // vanish (volatile tier), the replanner must not treat them as
  // durable reuse, and the recomputed output still matches the oracle.
  auto cfg = testfx::chaos_config(/*nodes=*/8, /*chain=*/4);
  mapred::Checksum oracle;
  {
    Scenario probe(cfg);
    oracle = oracle_checksum(
        gather_records(probe.payloads(), probe.dfs(), probe.input_file()),
        cfg.chain_length);
  }

  cfg.cluster.ram_bytes = 1ULL << 30;
  auto strategy = strat(Strategy::kRcmpSplit);
  strategy.memory_tier = true;
  Scenario sc(cfg);
  const auto r = sc.run(strategy, fail_at({2}));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.replans, 0u);
  EXPECT_EQ(sc.final_output_checksum(), oracle);
  EXPECT_EQ(sc.obs().metrics.counter("audit.violations"), 0u);
}

TEST(MemoryTierDifferential, CrossChainDedupEvictionStaysCorrect) {
  // Two tenants over a shared input hold deduplicated in-memory blocks;
  // a tight shared budget forces the scheduler to evict across chains
  // (memory demotes to disk before deletion). Outputs must not drift.
  auto cfg = multi_config(/*chains=*/2, /*nodes=*/6, /*chain_length=*/3,
                          /*records_per_node=*/96);
  cfg.base.cluster.ram_bytes = 8 * 1024;  // force spill + disk eviction
  auto strategy = strat(Strategy::kRcmpSplit);
  strategy.memory_tier = true;

  std::vector<mapred::Checksum> ref;
  {
    MultiScenario free_run(cfg);
    const auto r = free_run.run(strategy);
    ASSERT_TRUE(r[0].completed && r[1].completed);
    ref.push_back(free_run.final_output_checksum(0));
    ref.push_back(free_run.final_output_checksum(1));
    cfg.base.storage_budget = testfx::tight_budget(r);
  }
  MultiScenario ms(cfg);
  const auto r = ms.run(strategy);
  ASSERT_TRUE(r[0].completed && r[1].completed);
  EXPECT_GT(ms.scheduler().evicted_bytes(), 0u);
  EXPECT_EQ(ms.final_output_checksum(0), ref[0]);
  EXPECT_EQ(ms.final_output_checksum(1), ref[1]);
  EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
}

TEST(MemoryTierDifferential, DisabledTierIsByteIdenticalToSeedPath) {
  // The zero-cost contract: with ram_bytes = 0 (the default) the
  // memory_tier strategy flag must be inert — same doubles, same
  // trace bytes as the pre-tier code path, in clean and chaos runs.
  auto traced = [](bool memory_tier, bool chaos) {
    auto cfg = testfx::chaos_config(/*nodes=*/6, /*chain=*/4);
    cfg.trace_capacity = 1 << 16;
    Scenario sc(cfg);
    auto strategy = strat(Strategy::kRcmpSplit);
    strategy.memory_tier = memory_tier;
    cluster::FaultSchedule sched;
    if (chaos) {
      sched.events.push_back(
          {cluster::FaultMode::kKill, /*at_job_ordinal=*/2, /*delay=*/5.0});
    }
    const auto r = sc.run_chaos(strategy, sched);
    EXPECT_TRUE(r.completed);
    return std::make_pair(r.total_time, sc.obs().tracer.export_jsonl());
  };
  for (bool chaos : {false, true}) {
    const auto off = traced(false, chaos);
    const auto on = traced(true, chaos);
    EXPECT_DOUBLE_EQ(on.first, off.first) << "chaos " << chaos;
    EXPECT_FALSE(off.second.empty());
    EXPECT_EQ(on.second, off.second) << "chaos " << chaos;
  }
}

// --- result-cache differential ---------------------------------------
//
// The fingerprint-keyed result cache (DESIGN.md §14) lets one tenant's
// outputs satisfy another tenant's jobs without running them. That is
// the most dangerous optimization in the repo — a wrong hit silently
// replaces a computation — so the cache gets the full differential
// treatment: overlapping chains, forced evictions, memory-tier spills
// and node kills mid-hit, with every surviving chain checksum-equal to
// the eager oracle and every hit cross-checked by the auditor's eager
// replay.

TEST(ResultCacheDifferential, OverlappingTenantsCleanRunMatchesOracle) {
  // Three tenants over one dataset, serialized admission: chains 1 and
  // 2 borrow chain 0's outputs. All three final checksums must equal
  // the eager oracle of the shared input — the borrowed bytes *are*
  // the computation's bytes.
  const auto cfg = testfx::cache_multi_config(/*chains=*/3);
  MultiScenario ms(cfg);
  const auto input =
      gather_records(ms.payloads(), ms.dfs(), ms.input_file(0));
  // The shared dataset id really does mean shared bytes.
  ASSERT_EQ(mapred::checksum_of(input),
            mapred::checksum_of(
                gather_records(ms.payloads(), ms.dfs(), ms.input_file(2))));

  const auto r = ms.run(testfx::cache_strategy());
  const auto oracle = oracle_checksum(input, cfg.base.chain_length);
  std::uint32_t hits = 0;
  for (std::uint32_t c = 0; c < cfg.chains; ++c) {
    ASSERT_TRUE(r[c].completed) << "chain " << c;
    EXPECT_EQ(ms.final_output_checksum(c), oracle) << "chain " << c;
    hits += r[c].cache_hits;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(ms.obs().metrics.counter("audit.cache_hit_checks"), 0u);
  EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
}

TEST(ResultCacheDifferential, CacheUnderEvictionPressureStaysCorrect) {
  // One chain at a time: an owner publishes over dataset D and
  // finishes, a tenant over dataset E runs next under a tight shared
  // budget, and its job boundaries fall through to deleting the owner's
  // unleased cached backing files. The borrower over D comes last. Its
  // last job differs from the owner's, so it can only hit entries the
  // eviction may delete (the owner's final output is never evicted): it
  // must hit less than without the budget, recompute what was deleted,
  // and still equal the eager oracle.
  auto cfg = testfx::cache_multi_config(/*chains=*/3);
  cfg.dataset_ids = {0xDA7AULL, 0xE15EULL, 0xDA7AULL};
  const auto strategy = testfx::cache_strategy();
  auto start = [&](MultiScenario& ms) {
    ms.chain(2).jobs.back().num_reducers = 2;
    ms.start(strategy);
  };
  std::vector<mapred::Checksum> oracle;
  std::uint32_t free_hits = 0;
  {
    MultiScenario free_run(cfg);
    for (std::uint32_t c = 0; c < cfg.chains; ++c) {
      oracle.push_back(oracle_checksum(
          gather_records(free_run.payloads(), free_run.dfs(),
                         free_run.input_file(c)),
          cfg.base.chain_length));
    }
    start(free_run);
    const auto r = free_run.finish();
    free_hits = r[2].cache_hits;
    // Half the budget-free peak: the middle tenant's job boundaries run
    // out of map outputs to evict (testfx::tight_budget's quarter off
    // the peak never reaches the cache).
    Bytes peak = 0;
    for (const auto& res : r) peak = std::max(peak, res.peak_storage);
    cfg.base.storage_budget = peak / 2;
  }
  ASSERT_GT(free_hits, 0u);

  MultiScenario ms(cfg);
  start(ms);
  const auto r = ms.finish();
  for (std::uint32_t c = 0; c < cfg.chains; ++c) {
    ASSERT_TRUE(r[c].completed) << "chain " << c;
    EXPECT_EQ(ms.final_output_checksum(c), oracle[c]) << "chain " << c;
  }
  EXPECT_GT(ms.obs().metrics.counter("cache.evictions"), 0u);
  EXPECT_LT(r[2].cache_hits, free_hits);
  EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
}

TEST(ResultCacheDifferential, ChaosWithCacheSpillsAndKillsMatchesOracle) {
  // The full composition: 100%-overlap tenants, cache armed, memory
  // tier under spill pressure, tight shared budget, and seed-sampled
  // kill/corrupt schedules landing mid-chain (including mid-hit, where
  // a borrowed file's replicas die under the borrower). Every chain
  // that survives must equal the eager oracle; the auditor replays
  // every hit eagerly and must find zero violations.
  auto cfg = testfx::cache_multi_config(/*chains=*/3, /*nodes=*/8);
  cfg.base.input_replication = 4;       // keep sources survivable
  cfg.base.cluster.ram_bytes = 8 * 1024;  // memory tier under pressure
  auto strategy = testfx::cache_strategy();
  strategy.memory_tier = true;

  mapred::Checksum oracle;
  {
    MultiScenario probe(cfg);
    oracle = oracle_checksum(
        gather_records(probe.payloads(), probe.dfs(), probe.input_file(0)),
        cfg.base.chain_length);
  }
  cfg.base.storage_budget = testfx::tight_shared_budget(cfg, strategy);

  cluster::RandomScheduleOptions opt;
  opt.events = 3;
  opt.max_ordinal = 8;  // ordinals count job starts across all chains
  const std::uint32_t seeds = testfx::fuzz_seed_count(6);
  std::uint32_t survived = 0;
  std::uint64_t hits = 0;
  for (std::uint32_t seed = 0; seed < seeds; ++seed) {
    MultiScenario ms(cfg);
    const auto r = ms.run_chaos(strategy,
                                cluster::random_schedule(opt, 4000 + seed));
    EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u)
        << "seed " << seed;
    hits += ms.obs().metrics.counter("cache.hits");
    for (std::uint32_t c = 0; c < cfg.chains; ++c) {
      if (!r[c].completed) continue;  // e.g. source input lost — legal
      ++survived;
      EXPECT_EQ(ms.final_output_checksum(c), oracle)
          << "seed " << seed << " chain " << c;
    }
  }
  EXPECT_GT(survived, 0u);
  EXPECT_GT(hits, 0u);  // the cache actually engaged under chaos
}

}  // namespace
}  // namespace rcmp
