// Multi-tenant ChainScheduler behavior: 16-chain scaling, the one-chain
// tag rule, blast-radius isolation on node failure, deterministic traces,
// weighted fair sharing, work-conserving backfill, kicks that skip the
// placement pass when no slot they could take is open, admission control
// and cross-chain storage eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/journal.hpp"
#include "fixtures.hpp"
#include "mapred/map_output_store.hpp"
#include "obs/audit.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using namespace rcmp::literals;
using core::Strategy;
using mapred::SlotKind;
using testfx::multi_config;
using testfx::strat;
using workloads::MultiScenario;
using workloads::Scenario;

TEST(Scheduler, OneChainRunIsUntaggedWithBareMetricNames) {
  // The tag rule: a scheduler serving one chain stamps tag 0 and keeps
  // metric names bare, so a one-chain run reads like the paper's single
  // chain — its own admission and grants included.
  auto cfg = multi_config(/*chains=*/1, /*nodes=*/5, /*chain_length=*/2,
                          /*records_per_node=*/64);
  cfg.base.trace_capacity = 1 << 13;
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r[0].completed);
  EXPECT_EQ(ms.scheduler().chain_tag(0), 0u);
  EXPECT_EQ(ms.scheduler().metric_prefix(0), "");

  bool saw_grant = false;
  for (const obs::TraceEvent& ev : ms.obs().tracer.events()) {
    EXPECT_EQ(ev.chain, 0u);
    saw_grant |= ev.type == static_cast<std::uint8_t>(
                                obs::EventType::kSlotGrant);
  }
  EXPECT_TRUE(saw_grant);

  const auto& m = ms.obs().metrics;
  EXPECT_GT(m.counter("jobs.mappers_executed"), 0u);
  EXPECT_EQ(m.counter("t0.jobs.mappers_executed"), 0u);
  EXPECT_EQ(m.counter("sched.grants"), ms.scheduler().grants(0));
}

TEST(Scheduler, SixteenChainsAllComplete) {
  auto cfg = multi_config(/*chains=*/16, /*nodes=*/8, /*chain_length=*/2,
                          /*records_per_node=*/64);
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_EQ(r.size(), 16u);
  for (std::uint32_t c = 0; c < 16; ++c) {
    EXPECT_TRUE(r[c].completed) << "chain " << c;
    EXPECT_EQ(r[c].jobs_started, 2u) << "chain " << c;
    EXPECT_GT(ms.scheduler().grants(c), 0u) << "chain " << c;
  }
  EXPECT_EQ(ms.scheduler().peak_active(), 16u);  // unlimited admission
  EXPECT_EQ(ms.obs().metrics.counter("sched.chains"), 16u);
  EXPECT_EQ(ms.obs().metrics.counter("sched.admitted"), 16u);
  EXPECT_EQ(ms.obs().metrics.counter("sched.completed"), 16u);
}

TEST(Scheduler, NodeFailureReplansOnlyDamagedChains) {
  // Two chains run from t=0; two more are submitted long after the
  // failure window. Killing one node mid-flight must replan exactly the
  // chains that actually lost partitions — the late chains never touch
  // the dead node's data and must stay untouched by recovery.
  constexpr SimTime kLate = 100000.0;
  auto cfg = multi_config(/*chains=*/4, /*nodes=*/8, /*chain_length=*/3,
                          /*records_per_node=*/96);
  cfg.submit_at = {0.0, 0.0, kLate, kLate};

  // Probe the fault-free timeline for a kill time at which both early
  // chains have a completed (unreplicated) job-1 output on disk.
  SimTime t_kill = 0.0;
  {
    MultiScenario probe(cfg);
    const auto r = probe.run(strat(Strategy::kRcmpSplit));
    t_kill = std::max(r[0].runs[0].end_time, r[1].runs[0].end_time) + 5.0;
    ASSERT_LT(t_kill, std::min(r[0].total_time, r[1].total_time));
    ASSERT_LT(t_kill, kLate);
  }

  MultiScenario ms(cfg);
  ms.start(strat(Strategy::kRcmpSplit));
  ms.sim().run_until(t_kill);
  ms.cluster().kill(2);
  // Failure handlers ran synchronously: the ground-truth damage per
  // chain is observable now, before detection acts on it.
  std::array<bool, 4> damaged{};
  for (std::uint32_t c = 0; c < 4; ++c) {
    damaged[c] = ms.middleware(c).has_unresolved_damage();
  }
  const auto r = ms.finish();

  EXPECT_TRUE(damaged[0]);
  EXPECT_TRUE(damaged[1]);
  EXPECT_FALSE(damaged[2]);
  EXPECT_FALSE(damaged[3]);
  auto& sched = ms.scheduler();
  for (std::uint32_t c = 0; c < 4; ++c) {
    ASSERT_TRUE(r[c].completed) << "chain " << c;
    const std::uint32_t recoveries = sched.replans(c) + sched.restarts(c);
    const std::string name = "sched.c" + std::to_string(c) + ".replans";
    if (damaged[c]) {
      EXPECT_GT(recoveries, 0u) << "chain " << c;
      EXPECT_EQ(ms.obs().metrics.counter(name), sched.replans(c));
    } else {
      EXPECT_EQ(recoveries, 0u) << "chain " << c;
      EXPECT_EQ(ms.obs().metrics.counter(name), 0u);
    }
  }
}

TEST(Scheduler, SameSeedChaosRunsProduceIdenticalTraces) {
  auto cfg = multi_config(/*chains=*/3, /*nodes=*/8, /*chain_length=*/3,
                          /*records_per_node=*/64);
  cfg.base.trace_capacity = 1 << 15;
  cluster::RandomScheduleOptions opt;
  opt.events = 5;
  opt.max_ordinal = 7;

  auto one_run = [&](std::string* trace, std::string* metrics) {
    MultiScenario ms(cfg);
    ms.run_chaos(strat(Strategy::kRcmpSplit),
                 cluster::random_schedule(opt, 77));
    *trace = ms.obs().tracer.export_jsonl();
    *metrics = ms.obs().metrics.dump_json();
  };
  std::string trace_a, metrics_a, trace_b, metrics_b;
  one_run(&trace_a, &metrics_a);
  one_run(&trace_b, &metrics_b);
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
}

TEST(Scheduler, WeightedFairSharingFavorsHeavyChain) {
  auto cfg = multi_config(/*chains=*/2, /*nodes=*/6, /*chain_length=*/3,
                          /*records_per_node=*/128);
  cfg.weights = {4.0, 1.0};
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r[0].completed);
  ASSERT_TRUE(r[1].completed);
  // Identical work, 4x the weight: the heavy chain must finish first.
  EXPECT_LT(r[0].total_time, r[1].total_time);
  // Its 4/5 entitlement of the 6 map slots (4.8 -> 4) was reachable
  // while contended, and fairness actually had to deny someone.
  EXPECT_GE(ms.scheduler().peak_in_use(0, SlotKind::kMap), 4u);
  EXPECT_GT(ms.scheduler().total_denials(), 0u);
  EXPECT_EQ(ms.obs().metrics.counter("sched.denials"),
            ms.scheduler().total_denials());
}

TEST(Scheduler, OverShareChainDenialsArePinned) {
  // Chain 0 starts alone and backfills every map slot; chain 1's first
  // job bootstraps 0.3 s later, so chain 0 runs past its half share and
  // is denied at the margin while chain 1 is hungry. The placement
  // passes skip nodes without a free slot; since may_acquire counts a
  // denial only on a node that has one, the counts are unchanged.
  auto cfg = multi_config(/*chains=*/2, /*nodes=*/6, /*chain_length=*/3,
                          /*records_per_node=*/128);
  cfg.submit_at = {0.0, 0.3};
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r[0].completed);
  ASSERT_TRUE(r[1].completed);
  EXPECT_EQ(ms.scheduler().peak_in_use(0, SlotKind::kMap),
            ms.scheduler().alive_slots(SlotKind::kMap));
  EXPECT_EQ(ms.scheduler().total_denials(), 30u);
  EXPECT_EQ(ms.scheduler().grants(0), 94u);
  EXPECT_EQ(ms.scheduler().grants(1), 95u);
}

TEST(Scheduler, NextFreeMatchesBruteForceScan) {
  // 150 nodes, so each kind's free-node set spans three 64-bit words
  // with a partial last one. Random acquires, releases, release_alls,
  // compute losses, kills and rejoins from two chains; after every step
  // next_free(from, k) must equal a scan of the inventory for every
  // `from` (including one past the last node) and both kinds.
  constexpr std::uint32_t kNodes = 150;
  testfx::SimFixture f;
  auto spec = testfx::spec_of(kNodes);
  spec.map_slots = 2;
  spec.reduce_slots = 1;
  cluster::Cluster cluster(f.sim, f.net, spec);
  dfs::NameNode dfs(cluster, 64_MiB, 1);
  core::ChainScheduler sched(f.sim, cluster, dfs, nullptr);
  mapred::MapOutputStore store_a;
  mapred::MapOutputStore store_b;
  const std::array<mapred::SlotBroker*, 2> brokers = {
      &sched.broker(sched.add_chain(1.0, &store_a)),
      &sched.broker(sched.add_chain(1.0, &store_b))};

  auto expect_matches_scan = [&](int step) {
    for (int k = 0; k < 2; ++k) {
      const auto kind = static_cast<SlotKind>(k);
      cluster::NodeId expect = cluster::kInvalidNode;
      for (cluster::NodeId from = kNodes + 1; from-- > 0;) {
        if (from < kNodes && sched.free_slots(from, kind) > 0) expect = from;
        ASSERT_EQ(sched.next_free(from, kind), expect)
            << "step " << step << " kind " << k << " from " << from;
        ASSERT_EQ(brokers[0]->next_free(from, kind), expect);
      }
    }
  };

  Rng rng(20261017);
  std::uint32_t acquires = 0;
  std::uint32_t downs = 0;
  std::uint32_t ups = 0;
  std::uint32_t first_word_empty = 0;  // steps with no free slot below 64
  expect_matches_scan(-1);
  for (int step = 0; step < 4000; ++step) {
    // Alternate filling and draining phases, so the sets pass through
    // nearly full and nearly empty words.
    const bool filling = (step / 500) % 2 == 0;
    const auto n = static_cast<cluster::NodeId>(rng.below(kNodes));
    const auto kind = static_cast<SlotKind>(rng.below(2));
    mapred::SlotBroker& broker = *brokers[rng.below(2)];
    const std::uint64_t op = rng.below(40);
    if (op < (filling ? 32u : 8u)) {
      // The first free slot at or after n (wrapping): fills the sets
      // fast enough to empty whole words.
      cluster::NodeId target = cluster::kInvalidNode;
      for (cluster::NodeId i = 0; i < kNodes; ++i) {
        const cluster::NodeId cand = (n + i) % kNodes;
        if (sched.free_slots(cand, kind) > 0) {
          target = cand;
          break;
        }
      }
      if (target != cluster::kInvalidNode) {
        broker.acquire(target, kind);
        ++acquires;
      }
    } else if (op < 36) {
      broker.release(n, kind);
    } else if (op == 36 && !filling) {
      broker.release_all();
    } else if (op == 37 && cluster.compute_alive(n)) {
      cluster.fail_compute(n);
      ++downs;
    } else if (op == 38 && cluster.compute_alive(n)) {
      cluster.kill(n);
      ++downs;
    } else if (op == 39 && !cluster.compute_alive(n)) {
      cluster.recover(n);
      ++ups;
    }
    expect_matches_scan(step);
    if (HasFatalFailure()) return;
    const cluster::NodeId first = sched.next_free(0, kind);
    if (first == cluster::kInvalidNode || first >= 64) ++first_word_empty;
  }
  EXPECT_GT(acquires, 1000u);
  EXPECT_GT(downs, 50u);
  EXPECT_GT(ups, 20u);
  EXPECT_GT(first_word_empty, 100u);
  f.sim.run();  // drain the coalesced pokes (no chain has a kick)
}

TEST(Scheduler, KicksWithNoOpenSlotRunNoPass) {
  // A poke kicks every hungry chain, but a kick runs the chain's
  // placement pass only when a kind it has pending tasks of is open
  // (fault-free, so no backoff scan). Skipping the rest changes no
  // decision: grants, denials and pokes are those of a pass per kick.
  auto cfg = multi_config(/*chains=*/16, /*nodes=*/8, /*chain_length=*/2,
                          /*records_per_node=*/64);
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  std::uint64_t grants = 0;
  for (std::uint32_t c = 0; c < 16; ++c) {
    ASSERT_TRUE(r[c].completed) << "chain " << c;
    grants += ms.scheduler().grants(c);
  }
  EXPECT_EQ(grants, 1338u);
  EXPECT_EQ(ms.scheduler().total_denials(), 1u);
  EXPECT_EQ(ms.scheduler().pokes_run(), 1206u);
  EXPECT_EQ(ms.scheduler().kicks_run(), 11713u);
  EXPECT_EQ(ms.scheduler().kick_passes(), 137u);
}

/// A chain's seat at the scheduler that remembers the demand its engine
/// last published.
class DemandProbe : public mapred::SlotBroker {
 public:
  explicit DemandProbe(mapred::SlotBroker& seat) : seat_(seat) {}
  bool may_acquire(cluster::NodeId n, SlotKind k) const override {
    return seat_.may_acquire(n, k);
  }
  void acquire(cluster::NodeId n, SlotKind k) override {
    seat_.acquire(n, k);
  }
  void release(cluster::NodeId n, SlotKind k) override {
    seat_.release(n, k);
  }
  void release_all() override { seat_.release_all(); }
  void set_demand(SlotKind k, bool hungry) override {
    demand[static_cast<int>(k)] = hungry;
    seat_.set_demand(k, hungry);
  }
  cluster::NodeId next_free(cluster::NodeId from,
                            SlotKind k) const override {
    return seat_.next_free(from, k);
  }

  bool demand[2] = {false, false};

 private:
  mapred::SlotBroker& seat_;
};

TEST(Scheduler, KickWithOnlyMapSlotsOpenKeepsReduceDemand) {
  // Five nodes with one slot of each kind, and a job with 20 maps and 8
  // reducers: its first five reducers hold every reduce slot until the
  // maps are done, three wait. Once no map is pending, each finishing
  // map frees a map slot and the poke kicks the chain with only maps
  // open: no pass runs, and the reduce demand stays published.
  testfx::EngineFixture f;
  DemandProbe probe(f.sched.broker(0));
  mapred::JobRun run(mapred::Env{f.sim, f.net, f.cluster, f.dfs, f.outputs,
                                 f.payloads, probe},
                     f.make_spec(/*reducers=*/8), {}, f.cfg, 1, 7,
                     [](mapred::JobRun&) {});
  std::uint32_t map_only_kicks = 0;
  f.sched.set_kick(0, [&](mapred::OpenSlots open) {
    const bool only_reduces_wanted = !probe.demand[0] && probe.demand[1];
    const bool pass = run.poke(open);
    if (open.map && !open.reduce && only_reduces_wanted) {
      ++map_only_kicks;
      EXPECT_FALSE(pass);
      EXPECT_TRUE(probe.demand[1]);
    }
    return pass;
  });
  run.start();
  f.sim.run();
  ASSERT_TRUE(run.finished());
  EXPECT_EQ(run.result().reducers_executed, 8u);
  EXPECT_GT(map_only_kicks, 0u);
  EXPECT_LE(f.sched.kick_passes() + map_only_kicks, f.sched.kicks_run());
}

TEST(Scheduler, BackfillExceedsFairShareWhenPeerIdle) {
  // Two equal-weight chains on 6 map slots: a strict 50% partition
  // would cap both at 3. Work conservation must let one chain grow past
  // its entitlement whenever the other has no map demand (e.g. during
  // its reduce phase).
  auto cfg = multi_config(/*chains=*/2, /*nodes=*/6, /*chain_length=*/3,
                          /*records_per_node=*/128);
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r[0].completed);
  ASSERT_TRUE(r[1].completed);
  const std::uint32_t half = ms.scheduler().alive_slots(SlotKind::kMap) / 2;
  const std::uint32_t peak =
      std::max(ms.scheduler().peak_in_use(0, SlotKind::kMap),
               ms.scheduler().peak_in_use(1, SlotKind::kMap));
  EXPECT_GT(peak, half);
  EXPECT_GT(ms.scheduler().pokes_run(), 0u);
}

TEST(Scheduler, AdmissionCapBoundsConcurrency) {
  auto cfg = multi_config(/*chains=*/4, /*nodes=*/6, /*chain_length=*/2,
                          /*records_per_node=*/96);
  cfg.max_concurrent = 2;
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  for (std::uint32_t c = 0; c < 4; ++c) {
    ASSERT_TRUE(r[c].completed) << "chain " << c;
  }
  EXPECT_EQ(ms.scheduler().peak_active(), 2u);
  // A queued chain starts only once one of the first two finished.
  const SimTime first_done =
      std::min(r[0].runs.back().end_time, r[1].runs.back().end_time);
  EXPECT_GE(r[2].runs.front().start_time, first_done);
  EXPECT_GE(r[3].runs.front().start_time, first_done);
}

TEST(Scheduler, SharedStorageBudgetEvictsAcrossChains) {
  auto cfg = multi_config(/*chains=*/2, /*nodes=*/6, /*chain_length=*/4,
                          /*records_per_node=*/128);
  mapred::Checksum ref0, ref1;
  {
    MultiScenario free_run(cfg);
    const auto r = free_run.run(strat(Strategy::kRcmpSplit));
    ASSERT_TRUE(r[0].completed && r[1].completed);
    ref0 = free_run.final_output_checksum(0);
    ref1 = free_run.final_output_checksum(1);
    EXPECT_EQ(free_run.scheduler().evicted_bytes(), 0u);
    cfg.base.storage_budget = testfx::tight_budget(r);
  }
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r[0].completed && r[1].completed);
  EXPECT_GT(ms.scheduler().evicted_bytes(), 0u);
  EXPECT_GE(ms.scheduler().evictions(0) + ms.scheduler().evictions(1), 1u);
  // Eviction trades reuse for space, never correctness.
  EXPECT_EQ(ms.final_output_checksum(0), ref0);
  EXPECT_EQ(ms.final_output_checksum(1), ref1);
}

TEST(Scheduler, SharedBudgetEvictionsAreJournaled) {
  // The scheduler journals every eviction it traces: same victim job,
  // bytes, chain tag and time, in the same order. No result cache is
  // attached, so every eviction is a map-output eviction.
  auto cfg = multi_config(/*chains=*/2, /*nodes=*/6, /*chain_length=*/4,
                          /*records_per_node=*/128);
  {
    MultiScenario free_run(cfg);
    cfg.base.storage_budget =
        testfx::tight_budget(free_run.run(strat(Strategy::kRcmpSplit)));
  }
  cfg.base.journal = true;
  cfg.base.trace_capacity = 1 << 16;
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r[0].completed && r[1].completed);
  ASSERT_EQ(ms.obs().tracer.dropped(), 0u);

  std::vector<obs::TraceEvent> traced;
  for (const obs::TraceEvent& ev : ms.obs().tracer.events()) {
    if (ev.type == static_cast<std::uint8_t>(obs::EventType::kEviction)) {
      traced.push_back(ev);
    }
  }
  std::vector<core::JournalRecord> journaled;
  for (const core::JournalRecord& rec : ms.journal()->records()) {
    if (rec.type == core::JournalRecordType::kEviction) {
      journaled.push_back(rec);
    }
  }
  ASSERT_FALSE(traced.empty());
  ASSERT_EQ(journaled.size(), traced.size());
  std::array<std::uint32_t, 2> per_chain = {0, 0};
  for (std::size_t i = 0; i < traced.size(); ++i) {
    SCOPED_TRACE("eviction " + std::to_string(i));
    EXPECT_EQ(journaled[i].a, traced[i].job);
    EXPECT_EQ(static_cast<double>(journaled[i].c), traced[i].value);
    EXPECT_EQ(journaled[i].chain, traced[i].chain);
    EXPECT_EQ(journaled[i].time, traced[i].time);
    ASSERT_GE(journaled[i].chain, 1u);  // two chains: tags are 1 and 2
    ASSERT_LE(journaled[i].chain, 2u);
    ++per_chain[journaled[i].chain - 1u];
  }
  EXPECT_EQ(per_chain[0], ms.scheduler().evictions(0));
  EXPECT_EQ(per_chain[1], ms.scheduler().evictions(1));
}

TEST(Scheduler, CacheEntryEvictionsAreJournaledWithTheCallingChain) {
  // Chain 0 publishes to the result cache and finishes; chain 1 reads
  // another dataset, so at its job boundaries a one-byte budget leaves
  // chain 0's unleased entries as the last lever. Each such eviction is
  // journaled with a = 0xffffffff and the tag of the evicting chain.
  auto cfg = testfx::cache_multi_config(/*chains=*/2);
  cfg.dataset_ids = {0xA11, 0xB0B};
  cfg.base.storage_budget = 1;
  cfg.base.journal = true;
  MultiScenario ms(cfg);
  const auto r = ms.run(testfx::cache_strategy());
  ASSERT_TRUE(r[0].completed && r[1].completed);
  std::uint64_t cache_evictions = 0;
  for (const core::JournalRecord& rec : ms.journal()->records()) {
    if (rec.type != core::JournalRecordType::kEviction ||
        rec.a != 0xffffffffu) {
      continue;
    }
    ++cache_evictions;
    EXPECT_EQ(rec.chain, ms.scheduler().chain_tag(1));
    EXPECT_GT(rec.c, 0u);
  }
  EXPECT_GT(cache_evictions, 0u);
  EXPECT_EQ(cache_evictions, ms.obs().metrics.counter("cache.evictions"));
}

TEST(Scheduler, EvictionTriesTheNextChainWhenTheMostOverFreesNothing) {
  // Chain A is the most over its share, but all of its bytes sit in a
  // pinned job. The arbiter must evict chain B's unpinned job instead
  // of conceding with 4,000 B stored against a 3,500 B budget.
  testfx::SimFixture f;
  cluster::Cluster cluster(f.sim, f.net, testfx::spec_of(4));
  dfs::NameNode dfs(cluster, 64_MiB, 1);  // empty: eviction owns it all
  core::ChainScheduler sched(f.sim, cluster, dfs, nullptr,
                             core::ChainScheduler::Config{0, 3500});
  mapred::MapOutputStore store_a;
  mapred::MapOutputStore store_b;
  auto put_job0 = [](mapred::MapOutputStore& store, double bytes) {
    mapred::MapOutput out;
    out.node = 0;
    out.total_bytes = bytes;
    store.put({/*logical_job=*/0, /*input_partition=*/0,
               /*block_index=*/0},
              std::move(out));
  };
  put_job0(store_a, 3000.0);
  put_job0(store_b, 1000.0);
  store_a.set_pinned_jobs({0});
  const std::uint32_t a = sched.add_chain(1.0, &store_a);
  const std::uint32_t b = sched.add_chain(1.0, &store_b);
  ASSERT_EQ(sched.storage_total(), 4000u);

  sched.enforce_storage(a);
  EXPECT_EQ(sched.evictions(a), 0u);
  EXPECT_EQ(sched.evictions(b), 1u);
  EXPECT_EQ(store_a.total_used(), 3000u);
  EXPECT_EQ(store_b.total_used(), 0u);
  EXPECT_EQ(sched.storage_total(), 3000u);
}

TEST(EvictionPinning, PinnedJobIsNeverEvicted) {
  // Regression: eviction used to be able to select a job whose
  // persisted outputs are the sole surviving copy on the recompute
  // frontier of an in-flight replan — deleting them turns a bounded
  // cascade into a restart. A pinned job now frees exactly nothing.
  mapred::MapOutputStore store;
  for (std::uint32_t job = 0; job < 2; ++job) {
    mapred::MapOutput out;
    out.node = job;
    out.total_bytes = 1000.0;
    store.put({/*logical_job=*/job, /*input_partition=*/0,
               /*block_index=*/0},
              std::move(out));
  }
  store.set_pinned_jobs({0});
  EXPECT_TRUE(store.job_pinned(0));
  EXPECT_EQ(store.evict_upto(0, 1 << 20), 0u);
  EXPECT_EQ(store.used_for_job(0), 1000u);  // outputs untouched
  EXPECT_EQ(store.evict_upto(1, 1 << 20), 1000u);  // unpinned job evicts
  store.set_pinned_jobs({});
  EXPECT_GT(store.evict_upto(0, 1 << 20), 0u);  // unpin re-enables
}

TEST(EvictionPinning, LiveJobIsPinnedAgainstCrossChainEviction) {
  // Regression: the live job was never pinned — the pin set was
  // refreshed before the job started, while running() was still false —
  // so another chain's job boundary could evict map outputs the live
  // job's reducers were still shuffling. Every run below threw
  // "contribution from unregistered mapper".
  for (const std::uint32_t chains : {2u, 3u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("chains " + std::to_string(chains) + " seed " +
                   std::to_string(seed));
      auto cfg = multi_config(chains, /*nodes=*/6, /*chain_length=*/4,
                              /*records_per_node=*/128);
      cfg.base.seed = seed;
      std::vector<mapred::Checksum> oracle;
      Bytes peak = 0;
      {
        MultiScenario free_run(cfg);
        for (std::uint32_t c = 0; c < chains; ++c) {
          oracle.push_back(testfx::oracle_checksum(
              testfx::gather_records(free_run.payloads(), free_run.dfs(),
                                     free_run.input_file(c)),
              cfg.base.chain_length));
        }
        for (const auto& res : free_run.run(strat(Strategy::kRcmpSplit))) {
          ASSERT_TRUE(res.completed);
          peak = std::max(peak, res.peak_storage);
        }
      }
      cfg.base.storage_budget = peak / 2;
      MultiScenario ms(cfg);
      std::vector<core::ChainResult> r;
      ASSERT_NO_THROW(r = ms.run(strat(Strategy::kRcmpSplit)));
      EXPECT_GT(ms.scheduler().evicted_bytes(), 0u);
      for (std::uint32_t c = 0; c < chains; ++c) {
        ASSERT_TRUE(r[c].completed) << "chain " << c;
        EXPECT_EQ(ms.final_output_checksum(c), oracle[c]) << "chain " << c;
      }
    }
  }
}

TEST(EvictionPinning, AuditorTripsOnPinnedVictimChoice) {
  // Every victim choice passes through Observability::check_eviction;
  // the auditor's hook throws on the old behavior (a pinned victim).
  auto cfg = workloads::tiny_config(5, 3);
  ASSERT_TRUE(cfg.audit);
  Scenario s(cfg);
  EXPECT_NO_THROW(s.obs().check_eviction(false, /*logical_job=*/2));
  EXPECT_THROW(s.obs().check_eviction(true, /*logical_job=*/2),
               obs::AuditError);
  EXPECT_GE(s.obs().metrics.counter("audit.eviction_checks"), 2u);
}

TEST(Scheduler, TransientFailureRestoresSlotInventory) {
  auto cfg = multi_config(/*chains=*/2, /*nodes=*/8, /*chain_length=*/3,
                          /*records_per_node=*/96);
  cluster::FaultSchedule schedule;
  cluster::FaultEvent ev;
  ev.mode = cluster::FaultMode::kTransient;
  ev.at_job_ordinal = 2;
  ev.delay = 5.0;
  ev.node = 3;
  ev.downtime = 60.0;
  schedule.events.push_back(ev);

  MultiScenario ms(cfg);
  const auto r = ms.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  ASSERT_TRUE(r[0].completed);
  ASSERT_TRUE(r[1].completed);
  // The rejoined node's slots are back in the shared inventory.
  EXPECT_EQ(ms.scheduler().alive_slots(SlotKind::kMap),
            8 * ms.cluster().spec().map_slots);
  EXPECT_EQ(ms.scheduler().alive_slots(SlotKind::kReduce),
            8 * ms.cluster().spec().reduce_slots);
}

TEST(Scheduler, ChainTaggedTraceAndSchedMetrics) {
  auto cfg = multi_config(/*chains=*/2, /*nodes=*/5, /*chain_length=*/2,
                          /*records_per_node=*/64);
  cfg.base.trace_capacity = 1 << 13;
  MultiScenario ms(cfg);
  const auto r = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r[0].completed && r[1].completed);

  const std::string json = ms.obs().tracer.export_jsonl();
  EXPECT_NE(json.find("\"c\":1"), std::string::npos);
  EXPECT_NE(json.find("\"c\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ev\":\"slot_grant\""), std::string::npos);
  EXPECT_NE(json.find("\"ev\":\"chain_admit\""), std::string::npos);
  EXPECT_NE(json.find("\"ev\":\"chain_done\""), std::string::npos);

  const auto& m = ms.obs().metrics;
  EXPECT_GT(m.counter("sched.grants"), 0u);
  EXPECT_EQ(m.counter("sched.c0.grants"), ms.scheduler().grants(0));
  EXPECT_EQ(m.counter("sched.c1.grants"), ms.scheduler().grants(1));
  // Per-tenant middleware metrics carry the tenant prefix.
  EXPECT_GT(m.counter("t0.jobs.mappers_executed"), 0u);
  EXPECT_GT(m.counter("t1.jobs.mappers_executed"), 0u);
}

}  // namespace
}  // namespace rcmp
