// The benchmark's four workloads and one measured run of each.
//
// A run builds one scene through the public workloads::Scenario /
// MultiScenario API, drives it to completion, checks payload outputs
// against an eager oracle and reads every layer's counters from outside
// through public accessors. Nothing in src/ knows it is being measured:
// host-time spans come from wrapping the obs::Observability hooks the
// auditor installs, and per-layer event counts from the program's own
// obs::Tracer, enabled only when traced.
//
// Counters must come from runs with the same audit setting. Turning the
// auditor off moves sim.events and sim.events_cancelled by one on the
// paper presets (Auditor::run_checks calls FlowNetwork::audit(), which
// flushes a pending reallocation early) while the makespan stays equal.
// Every run, traced or not, therefore keeps ScenarioConfig::audit at its
// default, on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rcmp::rbench {

/// Workload names, in round-robin order.
inline constexpr std::string_view kWorkloads[] = {
    "dco_late_kill", "tenants_steady", "tenants_chaos", "cache_shared"};

bool known_workload(std::string_view name);

struct RunOptions {
  std::string workload;
  /// Drives the inputs, the DFS placement, the fault victims and every
  /// other random choice of the scene.
  std::uint64_t seed = 42;
  /// Enable the tracer, time the auditor hooks and write the traces.
  bool traced = false;
  /// Where a traced run writes <workload>.spans.json (benchmark spans,
  /// Chrome trace_event JSON) and <workload>.trace.jsonl (the program's
  /// own trace); empty = do not write them.
  std::string trace_dir;
};

using Values = std::vector<std::pair<std::string, double>>;

/// What one run reports to the parent process.
struct RunReport {
  /// Host seconds of each scene construction (the run builds the scene
  /// several times and drives the last one).
  std::vector<double> setup_s;
  /// Host seconds of run() / start()+finish().
  double drive_s = 0.0;
  /// Chains in the scene (the benchmark's operations), those that did
  /// not complete, and completed ones whose final output differs from
  /// the oracle's.
  std::uint32_t ops_total = 0;
  std::uint32_t ops_failed = 0;
  std::uint32_t wrong_outputs = 0;
  /// AuditError or other exception text when the run threw.
  std::string error;
  /// Simulated completion time of each chain. Deterministic for a
  /// (workload, seed), like `counters`.
  std::vector<double> chain_done_s;
  /// Simulated work counters: equal in every run of a (workload, seed),
  /// traced or not.
  Values counters;
  /// Traced run only: tracer event counts and host-time spans.
  Values traced;

  /// Line-oriented text form, sent from a run's child process to its
  /// parent.
  std::string encode() const;
  static RunReport decode(std::string_view text);
};

RunReport run_once(const RunOptions& opt);

}  // namespace rcmp::rbench
