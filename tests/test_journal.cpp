// Write-ahead decision journal and coordinator crash–recovery
// (core/journal.hpp, Middleware::crash_master/recover_from_journal).
//
// Three layers, mirroring the subsystem's own structure:
//
//   1. DecisionJournal unit semantics: dense LSNs, crash-point sealing
//      as pure prefix truncation, unseal, deterministic JSONL export.
//   2. Schedule validation: kMasterCrash without journaling is a
//      ConfigError naming the enabling flag, at both the validator and
//      the Scenario::run_chaos entry points.
//   3. End-to-end recovery: a chaos-injected (or armed) master crash
//      wipes the coordinator, replay resumes it, and the final output
//      is byte-equal to the crash-free run — single- and multi-tenant,
//      with the recovery budget enforced and the journal-attached
//      no-crash run pinned byte-identical to the journal-free one.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/chaos.hpp"
#include "common/error.hpp"
#include "core/journal.hpp"
#include "fixtures.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using cluster::FaultEvent;
using cluster::FaultMode;
using cluster::FaultSchedule;
using core::ChainResult;
using core::DecisionJournal;
using core::JournalRecordType;
using core::Strategy;
using testfx::chaos_config;
using testfx::multi_config;
using testfx::reference_for;
using testfx::strat;
using workloads::MultiScenario;
using workloads::Scenario;

// --- unit layer: the journal itself ----------------------------------

TEST(JournalUnit, AppendAssignsDenseLsnsAndKeepsOperands) {
  DecisionJournal j;
  EXPECT_TRUE(j.append(JournalRecordType::kChainAdmit, 0, 0, 0, 5, 0.0));
  EXPECT_TRUE(j.append(JournalRecordType::kJobCommit, 2, 1, 7, 3, 1.5));
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.records()[0].lsn, 0u);
  EXPECT_EQ(j.records()[1].lsn, 1u);
  EXPECT_EQ(j.records()[1].type, JournalRecordType::kJobCommit);
  EXPECT_EQ(j.records()[1].chain, 2u);
  EXPECT_EQ(j.records()[1].a, 1u);
  EXPECT_EQ(j.records()[1].b, 7u);
  EXPECT_EQ(j.records()[1].c, 3u);
  EXPECT_DOUBLE_EQ(j.records()[1].time, 1.5);
  EXPECT_EQ(j.dropped_appends(), 0u);
  EXPECT_FALSE(j.sealed());
}

TEST(JournalUnit, ArmedCrashSealsAsPrefixTruncation) {
  DecisionJournal j;
  int fired = 0;
  j.arm_crash(2, [&fired] { ++fired; });
  EXPECT_TRUE(j.append(JournalRecordType::kChainAdmit, 0, 0, 0, 3, 0.0));
  EXPECT_TRUE(j.append(JournalRecordType::kJobCommit, 0, 0, 1, 1, 1.0));
  EXPECT_EQ(fired, 0);
  // The append that would create record 2 never becomes durable: the
  // journal seals, the record drops, the crash callback fires once.
  EXPECT_FALSE(j.append(JournalRecordType::kJobCommit, 0, 1, 2, 2, 2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(j.sealed());
  EXPECT_EQ(j.size(), 2u);
  // Later appends keep dropping without re-firing.
  EXPECT_FALSE(j.append(JournalRecordType::kRestart, 0, 1, 0, 0, 3.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(j.dropped_appends(), 2u);
}

TEST(JournalUnit, UnsealReopensAppendsAfterRecovery) {
  DecisionJournal j;
  j.arm_crash(0, [] {});
  EXPECT_FALSE(j.append(JournalRecordType::kChainAdmit, 0, 0, 0, 3, 0.0));
  ASSERT_TRUE(j.sealed());
  j.unseal();
  EXPECT_FALSE(j.sealed());
  EXPECT_TRUE(j.append(JournalRecordType::kChainAdmit, 0, 0, 0, 3, 1.0));
  EXPECT_EQ(j.size(), 1u);
  EXPECT_EQ(j.dropped_appends(), 1u);
  // The dropped pre-crash append left no LSN hole.
  EXPECT_EQ(j.records()[0].lsn, 0u);
}

TEST(JournalUnit, ExportJsonlIsDeterministicAndTyped) {
  auto build = [] {
    DecisionJournal j;
    j.append(JournalRecordType::kChainAdmit, 0, 0, 0, 5, 0.0);
    j.append(JournalRecordType::kJobCommit, 1, 0, 4, 1, 17.25);
    j.append(JournalRecordType::kCachePublish, 1, 0, 4, 0xbeef, 17.25);
    return j;
  };
  const std::string a = build().export_jsonl();
  EXPECT_EQ(a, build().export_jsonl());
  EXPECT_NE(a.find("\"type\":\"chain_admit\""), std::string::npos);
  EXPECT_NE(a.find("\"type\":\"job_commit\""), std::string::npos);
  EXPECT_NE(a.find("\"type\":\"cache_publish\""), std::string::npos);
  // One line per record.
  std::size_t lines = 0;
  for (char c : a) lines += c == '\n';
  EXPECT_EQ(lines, 3u);
}

// --- validation layer ------------------------------------------------

TEST(JournalValidation, MasterCrashWithoutJournalingIsConfigError) {
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kMasterCrash, 2, 10.0});
  EXPECT_NO_THROW(cluster::validate_fault_schedule(schedule, true));
  try {
    cluster::validate_fault_schedule(schedule, false);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    // The error must name the enabling flag.
    EXPECT_NE(std::string(e.what()).find("journal"), std::string::npos);
  }
  // Worker-only schedules stay valid either way.
  FaultSchedule workers;
  workers.events.push_back(FaultEvent{FaultMode::kKill, 2, 10.0});
  EXPECT_NO_THROW(cluster::validate_fault_schedule(workers, false));
}

TEST(JournalValidation, ScenarioRejectsMasterCrashScheduleWithoutJournal) {
  auto cfg = chaos_config();
  ASSERT_FALSE(cfg.journal);
  Scenario s(cfg);
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kMasterCrash, 2, 10.0});
  EXPECT_THROW(s.run_chaos(strat(Strategy::kRcmpSplit), schedule),
               ConfigError);
}

// --- recovery layer --------------------------------------------------

TEST(JournalRecovery, ChaosMasterCrashRecoversByteIdentical) {
  auto cfg = chaos_config();
  const auto reference = reference_for(cfg);
  cfg.journal = true;
  Scenario s(cfg);
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kMasterCrash, 2, 10.0});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.master_crashes, 1u);
  EXPECT_EQ(s.injector()->counts().master_crashes, 1u);
  EXPECT_TRUE(s.final_output_checksum() == reference);
  EXPECT_EQ(s.obs().metrics.counter("master.recovery.crashes"), 1u);
  EXPECT_EQ(s.obs().metrics.counter("master.recovery.replays"), 1u);
  EXPECT_EQ(s.obs().metrics.counter("audit.violations"), 0u);
  EXPECT_GE(s.obs().metrics.counter("audit.journal_replay_checks"), 1u);
}

TEST(JournalRecovery, CrashDuringWorkerFailureRecoveryStaysCorrect) {
  // The hardest composition: the master dies while a replan (caused by
  // a real worker kill) is in flight. Recovery must discard uncommitted
  // partial output instead of double-writing it.
  auto cfg = chaos_config();
  const auto reference = reference_for(cfg);
  cfg.journal = true;
  Scenario s(cfg);
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kKill, 2, 15.0});
  schedule.events.push_back(FaultEvent{FaultMode::kMasterCrash, 3, 10.0});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.master_crashes, 1u);
  EXPECT_TRUE(s.final_output_checksum() == reference);
  EXPECT_EQ(s.obs().metrics.counter("audit.violations"), 0u);
}

TEST(JournalRecovery, ArmedCrashOnFailurePlanPathRecovers) {
  // The ordinal-kill (FailurePlan) path supports armed crash points
  // too: crash exactly when journal record 2 would be appended.
  auto cfg = chaos_config();
  const auto reference = reference_for(cfg);
  cfg.journal = true;
  Scenario s(cfg);
  s.arm_master_crash(2);
  const auto r = s.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.master_crashes, 1u);
  EXPECT_TRUE(s.final_output_checksum() == reference);
  // The sealed suffix was dropped, then recovery unsealed and the
  // resumed coordinator journaled onward.
  ASSERT_NE(s.journal(), nullptr);
  EXPECT_FALSE(s.journal()->sealed());
  EXPECT_GE(s.journal()->dropped_appends(), 1u);
  EXPECT_GT(s.journal()->size(), 2u);
}

TEST(JournalRecovery, RecoveryBudgetExhaustionFailsTheChain) {
  auto cfg = chaos_config();
  cfg.journal = true;
  Scenario s(cfg);
  auto strategy = strat(Strategy::kRcmpSplit);
  strategy.max_master_recoveries = 1;
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kMasterCrash, 2, 10.0});
  schedule.events.push_back(FaultEvent{FaultMode::kMasterCrash, 3, 10.0});
  const auto r = s.run_chaos(strategy, schedule);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.fail_reason,
            ChainResult::FailReason::kRecoveryBudgetExhausted);
  EXPECT_EQ(r.master_crashes, 2u);
}

TEST(JournalRecovery, MultiTenantCrashRecoversEveryChain) {
  auto cfg = multi_config(2);
  cfg.base.journal = true;
  // Crash-free reference checksums (journal attached, never sealed).
  std::vector<mapred::Checksum> ref;
  {
    MultiScenario ms(cfg);
    const auto results = ms.run(strat(Strategy::kRcmpSplit));
    for (std::size_t c = 0; c < results.size(); ++c) {
      ASSERT_TRUE(results[c].completed);
      ref.push_back(ms.final_output_checksum(
          static_cast<std::uint32_t>(c)));
    }
  }
  MultiScenario ms(cfg);
  ASSERT_NE(ms.journal(), nullptr);
  ms.journal()->arm_crash(4, [&ms] {
    ms.sim().schedule_after(0.0, [&ms] { ms.crash_master(); });
  });
  const auto results = ms.run(strat(Strategy::kRcmpSplit));
  ASSERT_EQ(results.size(), ref.size());
  for (std::size_t c = 0; c < results.size(); ++c) {
    EXPECT_TRUE(results[c].completed) << "chain " << c;
    EXPECT_TRUE(ms.final_output_checksum(static_cast<std::uint32_t>(c)) ==
                ref[c])
        << "chain " << c;
  }
  EXPECT_EQ(ms.obs().metrics.counter("audit.violations"), 0u);
}

// --- the zero-cost contract ------------------------------------------

TEST(JournalPinning, JournalAttachedNoCrashIsByteIdenticalToDisabled) {
  // The journal is pure bookkeeping: attaching it without ever crashing
  // must not perturb a single byte of the trace or the metrics (the
  // same pin the detector and policy shims carry).
  auto one_run = [](bool journal, std::string* trace,
                    std::string* metrics, double* total_time) {
    auto cfg = chaos_config();
    cfg.trace_capacity = 1 << 16;
    cfg.journal = journal;
    Scenario s(cfg);
    FaultSchedule schedule;
    schedule.events.push_back(FaultEvent{FaultMode::kKill, 2, 15.0});
    const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
    ASSERT_TRUE(r.completed);
    *trace = s.obs().tracer.export_jsonl();
    *metrics = s.obs().metrics.dump_json();
    *total_time = r.total_time;
  };
  std::string trace_on, metrics_on, trace_off, metrics_off;
  double time_on = 0.0, time_off = 0.0;
  one_run(true, &trace_on, &metrics_on, &time_on);
  one_run(false, &trace_off, &metrics_off, &time_off);
  EXPECT_FALSE(trace_on.empty());
  EXPECT_EQ(trace_on, trace_off);
  EXPECT_EQ(metrics_on, metrics_off);
  EXPECT_DOUBLE_EQ(time_on, time_off);
}

TEST(JournalPinning, SameSeedCrashRunsAreByteIdentical) {
  auto one_run = [](std::string* trace, std::string* metrics) {
    auto cfg = chaos_config();
    cfg.trace_capacity = 1 << 16;
    cfg.journal = true;
    Scenario s(cfg);
    FaultSchedule schedule;
    schedule.events.push_back(FaultEvent{FaultMode::kKill, 2, 15.0});
    schedule.events.push_back(
        FaultEvent{FaultMode::kMasterCrash, 3, 10.0});
    const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
    ASSERT_TRUE(r.completed);
    *trace = s.obs().tracer.export_jsonl();
    *metrics = s.obs().metrics.dump_json();
  };
  std::string trace_a, metrics_a, trace_b, metrics_b;
  one_run(&trace_a, &metrics_a);
  one_run(&trace_b, &metrics_b);
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
}

}  // namespace
}  // namespace rcmp
