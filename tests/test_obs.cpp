// Tests for the observability subsystem (src/obs): tracer ring +
// deterministic exports, metrics registry, the invariant auditor, and
// regression tests for the accounting bugs the auditor was built to
// flag (eviction arithmetic, unverifiable shuffle buckets, dynamic
// hybrid NaN intervals, mid-job storage sampling).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "mapred/map_output_store.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using core::Strategy;
using core::StrategyConfig;
using obs::AuditPoint;
using workloads::MultiScenario;
using workloads::Scenario;

StrategyConfig rcmp_split() {
  StrategyConfig cfg;
  cfg.strategy = Strategy::kRcmpSplit;
  return cfg;
}

cluster::FailurePlan fail_at(std::vector<std::uint32_t> ords) {
  cluster::FailurePlan plan;
  plan.at_job_ordinals = std::move(ords);
  return plan;
}

// --- tracer ring -----------------------------------------------------

TEST(Tracer, DisabledCapturesNothing) {
  obs::Tracer t;
  t.emit(1.0, obs::EventType::kFailure, obs::kKindKill, 3, obs::kNoField,
         obs::kNoField, 0.0);
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.export_jsonl().empty());
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  obs::Tracer t;
  t.enable(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    t.emit(static_cast<double>(i), obs::EventType::kTaskStart,
           obs::kKindMap, 0, 0, i, 0.0);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first: events 0 and 1 were overwritten.
  EXPECT_EQ(evs.front().index, 2u);
  EXPECT_EQ(evs.back().index, 5u);
  // Re-enabling clears the ring.
  t.enable(4);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, JsonlAndChromeGolden) {
  obs::Tracer t;
  t.enable(8);
  t.emit(0.5, obs::EventType::kJobStart, 0, obs::kNoField, 2, 1, 0.0);
  // A finished map task becomes a Chrome "X" slice: start = time-value.
  t.emit(3.25, obs::EventType::kTaskFinish, obs::kKindMap, 4, 2, 7, 1.5);
  EXPECT_EQ(t.export_jsonl(),
            "{\"t\":0.5,\"ev\":\"job_start\",\"kind\":0,\"node\":-1,"
            "\"job\":2,\"i\":1,\"v\":0}\n"
            "{\"t\":3.25,\"ev\":\"task_finish\",\"kind\":0,\"node\":4,"
            "\"job\":2,\"i\":7,\"v\":1.5}\n");
  EXPECT_EQ(t.export_chrome(),
            "{\"traceEvents\":[{\"name\":\"job_start\",\"ph\":\"i\","
            "\"s\":\"g\",\"ts\":500000.000,\"pid\":0,\"tid\":0},\n"
            "{\"name\":\"map j2 #7\",\"ph\":\"X\",\"ts\":1750000.000,"
            "\"dur\":1500000.000,\"pid\":4,\"tid\":0}]}\n");
}

TEST(Tracer, ScenarioWithoutTraceCapacityStaysSilent) {
  Scenario s(workloads::tiny_config(5, 3));
  const auto r = s.run(rcmp_split());
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(s.obs().tracer.enabled());
  EXPECT_EQ(s.obs().tracer.size(), 0u);
}

TEST(Tracer, SameSeedRunsExportByteIdenticalTraces) {
  auto traced_run = [](std::string* jsonl, std::string* chrome) {
    auto cfg = workloads::payload_config(6, 4, 256);
    cfg.trace_capacity = 1 << 16;
    Scenario s(cfg);
    const auto r = s.run(rcmp_split(), fail_at({2, 3}));
    ASSERT_TRUE(r.completed);
    *jsonl = s.obs().tracer.export_jsonl();
    *chrome = s.obs().tracer.export_chrome();
  };
  std::string j1, c1, j2, c2;
  traced_run(&j1, &c1);
  traced_run(&j2, &c2);
  EXPECT_FALSE(j1.empty());
  EXPECT_FALSE(c1.empty());
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(c1, c2);
  // The trace saw the injected failures and the recomputation.
  EXPECT_NE(j1.find("\"ev\":\"failure\""), std::string::npos);
  EXPECT_NE(j1.find("\"ev\":\"replan\""), std::string::npos);
  EXPECT_NE(j1.find("\"ev\":\"task_reexec\""), std::string::npos);
}

// --- metrics registry ------------------------------------------------

TEST(Metrics, CountersGaugesHistograms) {
  obs::MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.counter("missing"), 0u);
  EXPECT_EQ(m.find_gauge("missing"), nullptr);
  m.add("a");
  m.add("a", 4);
  m.set_gauge("g", 2.5);
  m.observe("h", 1.0);
  m.observe("h", 3.0);
  EXPECT_EQ(m.counter("a"), 5u);
  ASSERT_NE(m.find_gauge("g"), nullptr);
  EXPECT_DOUBLE_EQ(*m.find_gauge("g"), 2.5);
  ASSERT_NE(m.find_histogram("h"), nullptr);
  EXPECT_EQ(m.find_histogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(m.find_histogram("h")->mean(), 2.0);
  // Golden dump: a single-sample histogram keeps every percentile exact
  // (interpolated percentiles of multi-sample sets are not integers).
  obs::MetricsRegistry g;
  g.add("a", 5);
  g.set_gauge("g", 2.5);
  g.observe("h", 2.0);
  EXPECT_EQ(g.dump_json(),
            "{\"counters\":{\"a\":5},\"gauges\":{\"g\":2.5},"
            "\"histograms\":{\"h\":{\"count\":1,\"mean\":2,\"min\":2,"
            "\"max\":2,\"p50\":2,\"p90\":2,\"p99\":2}}}\n");
}

TEST(Metrics, ChainResultIsMirroredAtCompletion) {
  Scenario s(workloads::tiny_config(5, 4));
  const auto r = s.run(rcmp_split(), fail_at({2}));
  ASSERT_TRUE(r.completed);
  const auto& m = s.obs().metrics;
  ASSERT_NE(m.find_gauge("chain.completed"), nullptr);
  EXPECT_DOUBLE_EQ(*m.find_gauge("chain.completed"), 1.0);
  EXPECT_DOUBLE_EQ(*m.find_gauge("chain.jobs_started"),
                   static_cast<double>(r.jobs_started));
  EXPECT_DOUBLE_EQ(*m.find_gauge("chain.replans"),
                   static_cast<double>(r.replans));
  EXPECT_DOUBLE_EQ(*m.find_gauge("chain.peak_storage_bytes"),
                   static_cast<double>(r.peak_storage));
  ASSERT_NE(m.find_histogram("jobs.duration_seconds"), nullptr);
  EXPECT_GT(m.find_histogram("jobs.duration_seconds")->count(), 0u);
}

// --- invariant auditor -----------------------------------------------

TEST(Auditor, CleanRunsPassAndCountChecks) {
  Scenario s(workloads::tiny_config(5, 4));
  const auto r = s.run(rcmp_split(), fail_at({3}));
  ASSERT_TRUE(r.completed);
  ASSERT_NE(s.auditor(), nullptr);
  EXPECT_GT(s.auditor()->checks_run(), 0u);
  // A recomputation under RCMP reuses persisted map outputs, and every
  // reuse decision flows through the Fig. 5 legality check.
  EXPECT_GT(s.auditor()->reuse_checks(), 0u);
  EXPECT_EQ(s.obs().metrics.counter("audit.checks"),
            s.auditor()->checks_run());
}

TEST(Auditor, CatchesCorruptedDfsLedger) {
  Scenario s(workloads::tiny_config(5, 3));
  s.dfs().debug_corrupt_ledger(0, 512);
  EXPECT_THROW(s.run(rcmp_split()), obs::AuditError);
}

TEST(Auditor, CatchesCorruptedMapOutputLedger) {
  Scenario s(workloads::tiny_config(5, 3));
  s.map_outputs().debug_corrupt_ledger(1000);
  EXPECT_THROW(s.run(rcmp_split()), obs::AuditError);
}

TEST(Auditor, ReportsViolationCounterBeforeThrowing) {
  Scenario s(workloads::tiny_config(5, 3));
  s.dfs().debug_corrupt_ledger(1, 64);
  EXPECT_THROW(s.run(rcmp_split()), obs::AuditError);
  EXPECT_GT(s.obs().metrics.counter("audit.violations"), 0u);
}

TEST(Auditor, Fig5ViolationIsFatalWhenEnforced) {
  Scenario s(workloads::tiny_config(5, 3));
  obs::ReuseCheck stale{/*logical_job=*/0, /*input_partition=*/0,
                        /*block_index=*/0, /*stored_layout_version=*/1,
                        /*current_layout_version=*/2,
                        /*fig5_enforced=*/true};
  EXPECT_THROW(s.obs().check_reuse(stale), obs::AuditError);
  // With the rule deliberately disabled the check records but tolerates.
  stale.fig5_enforced = false;
  EXPECT_NO_THROW(s.obs().check_reuse(stale));
}

TEST(Auditor, DisabledByConfig) {
  auto cfg = workloads::tiny_config(5, 3);
  cfg.audit = false;
  Scenario s(cfg);
  EXPECT_EQ(s.auditor(), nullptr);
  s.dfs().debug_corrupt_ledger(0, 512);  // nobody is watching
  const auto r = s.run(rcmp_split());
  EXPECT_TRUE(r.completed);
}

// --- chain-scoped audits ---------------------------------------------
//
// A chain's job-start, job-boundary and final points recount only its
// own ledgers; failure points and the end of the run recount all. Each
// test plants drift at a chosen point through a tap on the audit hook
// and asserts exactly which later point reports it.

/// One audit point as the hook saw it.
struct PointSeen {
  AuditPoint point;
  std::uint32_t chain;
  SimTime at;
};

/// Logs every audit point of `ms` in order and calls `after` once a
/// point's checks have passed. The last entry of `seen` is the point
/// that threw, if one did.
class AuditTap {
 public:
  AuditTap(MultiScenario& ms, std::function<void(const PointSeen&)> after)
      : after_(std::move(after)) {
    auto& hook = ms.obs().audit_hook;
    hook = [this, &ms, inner = std::move(hook)](AuditPoint p,
                                                 std::uint32_t c) {
      seen.push_back({p, c, ms.sim().now()});
      const PointSeen now = seen.back();
      inner(p, c);
      after_(now);
    };
  }
  AuditTap(const AuditTap&) = delete;
  AuditTap& operator=(const AuditTap&) = delete;

  std::vector<PointSeen> seen;

 private:
  std::function<void(const PointSeen&)> after_;
};

/// The head of the AuditError report a failing point `p` produces.
std::string report_head(const PointSeen& p) {
  const char* names[] = {"job_start", "job_boundary", "failure", "final"};
  std::ostringstream os;
  os << "invariant audit failed at t=" << p.at
     << " point=" << names[static_cast<int>(p.point)] << " (";
  return os.str();
}

/// Runs `ms` to the audit error it must raise; returns the report.
std::string run_to_audit_error(MultiScenario& ms) {
  try {
    ms.run(rcmp_split());
  } catch (const obs::AuditError& e) {
    return e.what();
  }
  ADD_FAILURE() << "the planted drift was never reported";
  return "";
}

constexpr std::uint32_t kA = 0;
constexpr std::uint32_t kB = 1;

/// Plants drift in chain B's books right after chain A's first job
/// boundary passes. Chain A's next job start follows at once, so the
/// test sees A's next scoped point pass before B's next point reports.
void expect_reported_at_owners_next_point(
    const std::function<void(MultiScenario&)>& plant) {
  MultiScenario ms(testfx::multi_config(/*chains=*/2));
  std::size_t planted = 0;
  AuditTap tap(ms, [&](const PointSeen& p) {
    if (planted == 0 && p.chain == kA &&
        p.point == AuditPoint::kJobBoundary) {
      plant(ms);
      planted = tap.seen.size();
    }
  });
  const std::string report = run_to_audit_error(ms);
  ASSERT_GT(planted, 0u);
  ASSERT_GT(tap.seen.size(), planted + 1);
  const PointSeen next = tap.seen[planted];
  EXPECT_EQ(next.chain, kA);
  EXPECT_EQ(next.point, AuditPoint::kJobStart);
  // Every point after the plant passed except the last, B's first.
  const PointSeen& reported = tap.seen.back();
  EXPECT_EQ(reported.chain, kB);
  for (std::size_t i = planted; i + 1 < tap.seen.size(); ++i) {
    EXPECT_EQ(tap.seen[i].chain, kA) << "point " << i;
  }
  EXPECT_EQ(report.rfind(report_head(reported), 0), 0u) << report;
}

TEST(Auditor, StoreDriftIsReportedAtTheOwningChainsNextPoint) {
  expect_reported_at_owners_next_point([](MultiScenario& ms) {
    ms.map_outputs(kB).debug_corrupt_ledger(
        mapred::MapOutputStore::Ledger::kNode, 0, 64);
  });
}

TEST(Auditor, DfsSubLedgerDriftIsReportedAtTheOwningChainsNextPoint) {
  expect_reported_at_owners_next_point(
      [](MultiScenario& ms) { ms.dfs().debug_corrupt_ledger(kB, 0, 512); });
}

TEST(Auditor, DfsTotalsDriftIsReportedAtTheNextPointOfAnyChain) {
  // Planted after A's first job start: the next point, whichever chain
  // reaches it, finds the node total off the owners' sum.
  MultiScenario ms(testfx::multi_config(/*chains=*/2));
  std::size_t planted = 0;
  AuditTap tap(ms, [&](const PointSeen& p) {
    if (planted == 0 && p.chain == kA && p.point == AuditPoint::kJobStart) {
      ms.dfs().debug_corrupt_ledger(0, 512);
      planted = tap.seen.size();
    }
  });
  const std::string report = run_to_audit_error(ms);
  ASSERT_GT(planted, 0u);
  ASSERT_EQ(tap.seen.size(), planted + 1);
  EXPECT_EQ(report.rfind(report_head(tap.seen.back()), 0), 0u) << report;
  EXPECT_NE(report.find("sum of the owners' sub-ledgers"), std::string::npos)
      << report;
}

/// Chain B starts after chain A has finished its first job, so A
/// finishes first and B still runs afterwards.
workloads::MultiScenarioConfig staggered_config() {
  auto cfg = testfx::multi_config(/*chains=*/2);
  cfg.submit_at = {0.0, 40.0};
  return cfg;
}

TEST(Auditor, FinishedChainDriftIsReportedAtTheNextFailurePoint) {
  // Drift in finished chain A's store passes B's scoped points and is
  // reported by the full recount of the failure point a kill raises.
  MultiScenario ms(staggered_config());
  std::size_t planted = 0;
  SimTime kill_at = -1.0;
  AuditTap tap(ms, [&](const PointSeen& p) {
    if (planted == 0 && p.chain == kA && p.point == AuditPoint::kFinal) {
      ms.map_outputs(kA).debug_corrupt_ledger(
          mapred::MapOutputStore::Ledger::kNode, 0, 64);
      planted = tap.seen.size();
    } else if (planted > 0 && kill_at < 0.0 && p.chain == kB) {
      kill_at = p.at + 0.5;
      ms.sim().schedule_at(kill_at, [&ms] { ms.cluster().kill(1); });
    }
  });
  const std::string report = run_to_audit_error(ms);
  ASSERT_GT(planted, 0u);
  ASSERT_GE(tap.seen.size(), planted + 2);
  EXPECT_EQ(tap.seen[planted].chain, kB);  // passed
  const PointSeen& reported = tap.seen.back();
  EXPECT_EQ(reported.point, AuditPoint::kFailure);
  EXPECT_EQ(reported.at, kill_at);
  EXPECT_EQ(report.rfind(report_head(reported), 0), 0u) << report;
}

TEST(Auditor, FinishedChainDriftIsReportedAtTheEndOfTheRun) {
  // Without a failure, drift in finished chain A's DFS books passes
  // every point of B until B's final point ends the run.
  MultiScenario ms(staggered_config());
  std::size_t planted = 0;
  AuditTap tap(ms, [&](const PointSeen& p) {
    if (planted == 0 && p.chain == kA && p.point == AuditPoint::kFinal) {
      ms.dfs().debug_corrupt_ledger(kA, 0, 512);
      planted = tap.seen.size();
    }
  });
  const std::string report = run_to_audit_error(ms);
  ASSERT_GT(planted, 0u);
  ASSERT_GE(tap.seen.size(), planted + 2);
  for (std::size_t i = planted; i < tap.seen.size(); ++i) {
    EXPECT_EQ(tap.seen[i].chain, kB) << "point " << i;
  }
  const PointSeen& reported = tap.seen.back();
  EXPECT_EQ(reported.point, AuditPoint::kFinal);
  EXPECT_EQ(report.rfind(report_head(reported), 0), 0u) << report;
  EXPECT_TRUE(ms.middleware(kB).finished());
}

TEST(Auditor, RecountWorkIsLinearInChains) {
  // Fault-free runs of identical chains (one dataset, no cache), so the
  // blocks a scoped point walks depend only on its own chain's
  // progress. Each point recounts one store and the last one, the end
  // of the run, every store and the whole block table. The most blocks
  // a scoped point walks must not grow with the chain count.
  auto max_scoped_blocks = [](std::uint32_t chains) {
    auto cfg = testfx::multi_config(chains);
    cfg.dataset_ids.assign(chains, 0xDA7AULL);
    MultiScenario ms(cfg);
    const auto& m = ms.obs().metrics;
    std::vector<std::uint64_t> walked;  // running total after each point
    AuditTap tap(ms, [&](const PointSeen&) {
      walked.push_back(m.counter("audit.dfs_blocks_recounted"));
    });
    for (const auto& r : ms.run(rcmp_split())) EXPECT_TRUE(r.completed);
    const std::uint64_t points = m.counter("audit.checks");
    EXPECT_EQ(walked.size(), points);
    EXPECT_EQ(m.counter("audit.store_recounts"), points - 1 + chains)
        << chains << " chains";
    std::uint64_t most = 0;
    for (std::size_t i = 0; i + 1 < walked.size(); ++i) {
      most = std::max(most, walked[i] - (i > 0 ? walked[i - 1] : 0));
    }
    EXPECT_EQ(walked.back() - walked[walked.size() - 2],
              ms.dfs().block_count());
    return most;
  };
  const std::uint64_t at4 = max_scoped_blocks(4);
  EXPECT_GT(at4, 0u);
  EXPECT_EQ(max_scoped_blocks(8), at4);
}

TEST(Auditor, FailureEventRecountsEveryStoreOnlyAtItsFirstPoint) {
  // Every chain raises a failure point per failure event. The event's
  // first point recounts every store and the whole block table, its
  // later points only their own chain's books: C + (C - 1) stores per
  // event. Two failures at one instant are two events.
  constexpr std::uint32_t kChains = 4;
  MultiScenario ms(testfx::multi_config(kChains));
  const auto& m = ms.obs().metrics;
  std::vector<std::uint64_t> stores;  // recounted, per failure point
  std::vector<std::uint64_t> blocks;  // walked, per failure point
  std::vector<std::uint64_t> table;   // block-table size, per point
  std::uint64_t stores_before = 0;
  std::uint64_t blocks_before = 0;
  bool failed = false;
  AuditTap tap(ms, [&](const PointSeen& p) {
    const std::uint64_t s = m.counter("audit.store_recounts");
    const std::uint64_t b = m.counter("audit.dfs_blocks_recounted");
    if (p.point == AuditPoint::kFailure) {
      stores.push_back(s - stores_before);
      blocks.push_back(b - blocks_before);
      table.push_back(ms.dfs().block_count());
    } else if (!failed && p.point == AuditPoint::kJobBoundary) {
      failed = true;
      ms.sim().schedule_at(p.at + 0.5, [&ms] {
        ms.cluster().fail_compute(1);
        ms.cluster().fail_compute(2);
      });
    }
    stores_before = s;
    blocks_before = b;
  });
  for (const auto& r : ms.run(rcmp_split())) EXPECT_TRUE(r.completed);
  ASSERT_EQ(stores.size(), 2 * kChains);
  for (std::uint32_t event = 0; event < 2; ++event) {
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < kChains; ++c) {
      const std::size_t i = event * kChains + c;
      total += stores[i];
      EXPECT_EQ(stores[i], c == 0 ? kChains : 1u) << "event " << event;
      if (c == 0) {
        EXPECT_EQ(blocks[i], table[i]) << "event " << event;
      } else {
        EXPECT_LT(blocks[i], blocks[event * kChains]) << "event " << event;
      }
    }
    EXPECT_EQ(total, kChains + (kChains - 1)) << "event " << event;
  }
}

// --- satellite regressions -------------------------------------------

// evict_upto used to accumulate freed bytes in a double; the integer
// ledger must free and report exact byte counts.
TEST(MapOutputStoreRegression, EvictReportsExactIntegerBytes) {
  mapred::MapOutputStore store;
  const double sizes[] = {1000.6, 2000.4, 3000.5};
  Bytes charged = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    mapred::MapOutput out;
    out.node = i;
    out.total_bytes = sizes[i];
    charged += static_cast<Bytes>(std::llround(sizes[i]));
    store.put(mapred::MapOutputKey{7, 0, i}, std::move(out));
  }
  EXPECT_EQ(store.total_used(), charged);
  EXPECT_EQ(store.used_for_job(7), charged);
  // Ask for one byte: exactly one output (the highest key) goes.
  const Bytes freed = store.evict_upto(7, 1);
  EXPECT_EQ(freed, static_cast<Bytes>(std::llround(3000.5)));
  EXPECT_EQ(store.total_used(), charged - freed);
  // Ask for everything: the report matches the ledger delta exactly.
  const Bytes rest = store.evict_upto(7, ~Bytes{0});
  EXPECT_EQ(rest, charged - freed);
  EXPECT_EQ(store.total_used(), 0u);
  EXPECT_TRUE(store.audit_ledger().empty());
}

// bucket_intact() used to return true for any partition index at or
// beyond bucket_sums.size() — an unverifiable read passed silently.
TEST(MapOutputStoreRegression, MissingChecksumIsNeverIntact) {
  mapred::MapOutputStore store;
  mapred::MapOutput out;
  out.node = 0;
  out.total_bytes = 64.0;
  out.buckets.resize(2);
  out.buckets[0].push_back(mapred::Record{1, 2});
  out.buckets[1].push_back(mapred::Record{3, 4});
  // Pre-seeded sums for only the first bucket suppress auto-capture.
  mapred::Checksum sum0;
  sum0.add(out.buckets[0][0]);
  out.bucket_sums.push_back(sum0);
  const mapred::MapOutputKey key{1, 0, 0};
  store.put(key, std::move(out));

  EXPECT_EQ(store.bucket_state(key, 0), mapred::BucketState::kIntact);
  EXPECT_EQ(store.bucket_state(key, 1), mapred::BucketState::kMissingSum);
  EXPECT_FALSE(store.bucket_intact(key, 1));
  // Out-of-range partitions are just as unverifiable.
  EXPECT_EQ(store.bucket_state(key, 9), mapred::BucketState::kMissingSum);
}

// should_replicate_now() with a zero failure rate and zero replication
// overhead used to compute sqrt(0 * inf) = NaN; the hardened version
// treats an infinite MTBF as "never replicate".
TEST(DynamicHybridRegression, ZeroFailureRateNeverReplicates) {
  auto run_with = [](double rate, double overhead) {
    Scenario s(workloads::tiny_config(5, 6));
    StrategyConfig cfg = rcmp_split();
    cfg.hybrid_dynamic = true;
    cfg.node_failure_rate_per_day = rate;
    cfg.hybrid_replication_overhead = overhead;
    return s.run(cfg);
  };
  const auto nan_case = run_with(0.0, 0.0);
  ASSERT_TRUE(nan_case.completed);
  EXPECT_EQ(nan_case.replication_points, 0u);
  const auto inf_case = run_with(0.0, 0.3);
  ASSERT_TRUE(inf_case.completed);
  EXPECT_EQ(inf_case.replication_points, 0u);
}

// peak_storage used to be sampled only at job boundaries: a chain that
// dies inside its first job reported peak_storage == 0 even though the
// DFS held the whole source input. Failure events and shuffle
// completions now sample too.
TEST(StorageSamplingRegression, PeakSampledEvenWhenChainDiesEarly) {
  auto cfg = workloads::tiny_config(5, 3);
  cfg.input_replication = 1;  // any storage loss kills the source
  Scenario s(cfg);
  const auto r = s.run(rcmp_split(), fail_at({1}));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.fail_reason, core::ChainResult::FailReason::kSourceDataLost);
  EXPECT_GT(r.peak_storage, 0u);
}

TEST(StorageSamplingRegression, ShuffleCompletionsSampleMidJob) {
  Scenario s(workloads::tiny_config(5, 3));
  const auto r = s.run(rcmp_split());
  ASSERT_TRUE(r.completed);
  // One sample per submit + per boundary + final would be ~2*jobs+2;
  // per-reducer shuffle-completion samples push well past that.
  const std::uint64_t samples = s.obs().metrics.counter("storage.samples");
  EXPECT_GT(samples, 2u * r.jobs_started + 2u);
}

}  // namespace
}  // namespace rcmp
