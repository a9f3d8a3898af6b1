// Crash-point consistency fuzzing for coordinator recovery
// (core/journal.hpp): crash the master at EVERY journal-record
// boundary of a chaos-corpus scene and assert the final output is
// byte-equal to the crash-free run.
//
// The sweep models the canonical WAL failure mode as pure prefix
// truncation: crashing "at record k" means the append that would have
// created record k (and everything after it) never became durable. A
// reference run per scene yields the crash-free checksum and the
// journal length N; the fuzzer then replays the scene N times, arming
// the crash at k = 0..N-1. The auditor stays armed throughout (an
// AuditError or audit.violations != 0 fails the sweep), so every
// recovery is held to a live coordinator's ledger standard.
//
// Corpus: the four chaos shapes the failure drill qualifies — calm,
// single kill, failure-heavy multi-fault, heartbeat jitter under the
// detector — plus a two-tenant shared-journal sweep.
//
// CI scaling: RCMP_CRASH_POINTS=<target> keeps each scene sweeping
// fresh seeds until the whole suite covered at least that many crash
// points (the nightly job exports 500).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/chaos.hpp"
#include "core/journal.hpp"
#include "fixtures.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using cluster::FaultEvent;
using cluster::FaultMode;
using cluster::FaultSchedule;
using core::Strategy;
using testfx::chaos_config;
using testfx::multi_config;
using testfx::strat;
using workloads::MultiScenario;
using workloads::Scenario;

/// Whole-suite crash-point target (0 = one pass per scene). Shared
/// evenly by the five scenes.
std::size_t per_scene_target() {
  const char* env = std::getenv("RCMP_CRASH_POINTS");
  if (env == nullptr) return 0;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? (static_cast<std::size_t>(v) + 4) / 5 : 0;
}

/// One full boundary sweep of a single-tenant scene at cfg.seed:
/// reference run (journal attached, never sealed), then one run per
/// journal-record boundary with the crash armed there. Returns the
/// number of crash points exercised.
std::size_t sweep_scene(workloads::ScenarioConfig cfg,
                        const FaultSchedule& schedule) {
  cfg.journal = true;
  mapred::Checksum reference;
  std::size_t n_records = 0;
  {
    Scenario s(cfg);
    const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
    EXPECT_TRUE(r.completed) << "reference run did not complete";
    if (!r.completed) return 0;
    reference = s.final_output_checksum();
    n_records = s.journal()->size();
  }
  EXPECT_GT(n_records, 0u);
  for (std::size_t k = 0; k < n_records; ++k) {
    Scenario s(cfg);
    s.arm_master_crash(k);
    const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
    EXPECT_TRUE(r.completed)
        << "crash point " << k << "/" << n_records << " seed "
        << cfg.seed;
    if (!r.completed) return k;  // stop sweeping a broken scene
    EXPECT_TRUE(s.final_output_checksum() == reference)
        << "checksum diverged at crash point " << k << "/" << n_records
        << " seed " << cfg.seed;
    EXPECT_EQ(s.obs().metrics.counter("audit.violations"), 0u)
        << "crash point " << k;
  }
  return n_records;
}

/// sweep_scene, then keep re-sweeping fresh seeds until the per-scene
/// crash-point target is met.
void fuzz_scene(const FaultSchedule& schedule,
                bool detector = false) {
  auto cfg = chaos_config();
  cfg.detector.enabled = detector;
  std::size_t points = sweep_scene(cfg, schedule);
  const std::size_t target = per_scene_target();
  std::uint64_t variant = 1;
  while (points < target && !testing::Test::HasFailure()) {
    cfg.seed += 1 + variant++;  // fresh deterministic seed per round
    points += sweep_scene(cfg, schedule);
  }
}

TEST(JournalCrashFuzz, CalmChainEveryBoundary) {
  fuzz_scene(FaultSchedule{});
}

TEST(JournalCrashFuzz, SingleKillEveryBoundary) {
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kKill, 2, 15.0});
  fuzz_scene(schedule);
}

TEST(JournalCrashFuzz, FailureHeavyEveryBoundary) {
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kKill, 2, 15.0});
  schedule.events.push_back(FaultEvent{FaultMode::kDisk, 3, 10.0});
  schedule.events.push_back(FaultEvent{FaultMode::kCompute, 4, 12.0});
  fuzz_scene(schedule);
}

TEST(JournalCrashFuzz, HeartbeatJitterEveryBoundary) {
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kHeartbeatLoss, 2, 15.0,
                                       cluster::kInvalidNode,
                                       cluster::kAnyRack, 60.0});
  schedule.events.push_back(FaultEvent{FaultMode::kKill, 3, 15.0});
  fuzz_scene(schedule, /*detector=*/true);
}

TEST(JournalCrashFuzz, MultiTenantSharedJournalEveryBoundary) {
  auto cfg = multi_config(2);
  cfg.base.journal = true;
  auto sweep = [&cfg](std::uint64_t seed) {
    cfg.base.seed = seed;
    std::vector<mapred::Checksum> reference;
    std::size_t n_records = 0;
    {
      MultiScenario ms(cfg);
      const auto results = ms.run(strat(Strategy::kRcmpSplit));
      for (std::size_t c = 0; c < results.size(); ++c) {
        EXPECT_TRUE(results[c].completed);
        if (!results[c].completed) return std::size_t{0};
        reference.push_back(ms.final_output_checksum(
            static_cast<std::uint32_t>(c)));
      }
      n_records = ms.journal()->size();
    }
    for (std::size_t k = 0; k < n_records; ++k) {
      MultiScenario ms(cfg);
      ms.arm_master_crash(k);
      const auto results = ms.run(strat(Strategy::kRcmpSplit));
      for (std::size_t c = 0; c < results.size(); ++c) {
        EXPECT_TRUE(results[c].completed)
            << "chain " << c << " crash point " << k << " seed " << seed;
        if (!results[c].completed) return k;
        EXPECT_TRUE(ms.final_output_checksum(static_cast<std::uint32_t>(
                        c)) == reference[c])
            << "chain " << c << " crash point " << k << " seed " << seed;
      }
      EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
    }
    return n_records;
  };
  const std::uint64_t base_seed = cfg.base.seed;
  std::size_t points = sweep(base_seed);
  const std::size_t target = per_scene_target();
  std::uint64_t variant = 1;
  while (points < target && !testing::Test::HasFailure()) {
    points += sweep(base_seed + variant++);
  }
}

}  // namespace
}  // namespace rcmp
