// Shared helpers for the figure-reproduction bench binaries.
//
// Each bench binary regenerates one figure of the paper's evaluation as
// a table with the same rows/series the figure plots. Absolute times are
// simulated seconds; the claims under reproduction are the *ratios*
// (slowdown factors, speed-ups) — see EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/extrapolation.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "workloads/scenario.hpp"

namespace rcmp::bench {

/// Run a scenario `repeats` times with distinct seeds; returns the mean
/// total chain time. (The paper averages 5 runs on STIC, 3 on DCO.)
///
/// Repeats are independent simulations (each run owns its Simulation,
/// cluster, and RNG), so they are spread across a small thread pool.
/// Results land in a per-repeat slot and are reduced in repeat order,
/// so the mean is bit-identical to a serial run regardless of thread
/// scheduling.
inline double mean_total_time(const workloads::ScenarioConfig& base,
                              const core::StrategyConfig& strategy,
                              const cluster::FailurePlan& failures,
                              int repeats, std::uint64_t seed0 = 1000) {
  std::vector<double> totals(static_cast<std::size_t>(repeats), 0.0);
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int i = next.fetch_add(1); i < repeats; i = next.fetch_add(1)) {
      workloads::ScenarioConfig cfg = base;
      cfg.seed = seed0 + static_cast<std::uint64_t>(i) * 7919;
      totals[static_cast<std::size_t>(i)] =
          workloads::run_scenario(cfg, strategy, failures).total_time;
    }
  };
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned pool = std::min<unsigned>(
      hw == 0 ? 1 : hw, static_cast<unsigned>(repeats > 0 ? repeats : 1));
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (unsigned p = 0; p < pool; ++p) threads.emplace_back(worker);
    for (auto& th : threads) th.join();
  }
  Samples t;
  for (double v : totals) t.add(v);
  return t.mean();
}

// --- machine-readable micro-bench output (BENCH_simcore.json) ----------

/// One measured benchmark: wall time per iteration plus user counters
/// (e.g. ns_per_item, reallocs). Written one record per line, so the
/// baseline check can parse it without a JSON library.
struct BenchRecord {
  std::string name;
  double real_time_ns = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"real_time_ns\": %.3f",
                 r.name.c_str(), r.real_time_ns);
    for (const auto& [k, v] : r.counters) {
      std::fprintf(f, ", \"%s\": %.6f", k.c_str(), v);
    }
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Parse (name, real_time_ns) pairs back out of a file written by
/// write_bench_json. Tolerates missing files (returns empty).
inline std::vector<std::pair<std::string, double>> read_bench_json(
    const std::string& path) {
  std::vector<std::pair<std::string, double>> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto name_key = line.find("\"name\": \"");
    const auto time_key = line.find("\"real_time_ns\": ");
    if (name_key == std::string::npos || time_key == std::string::npos) {
      continue;
    }
    const auto name_begin = name_key + 9;
    const auto name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    out.emplace_back(line.substr(name_begin, name_end - name_begin),
                     std::strtod(line.c_str() + time_key + 16, nullptr));
  }
  return out;
}

/// Count benchmarks slower than `factor` times their baseline entry
/// (names present only on one side are ignored); prints one line per
/// regression so CI logs show the offender.
inline int count_regressions(
    const std::vector<BenchRecord>& current,
    const std::vector<std::pair<std::string, double>>& baseline,
    double factor) {
  int regressions = 0;
  for (const BenchRecord& r : current) {
    for (const auto& [name, base_ns] : baseline) {
      if (name != r.name || base_ns <= 0.0) continue;
      if (r.real_time_ns > factor * base_ns) {
        std::fprintf(stderr,
                     "REGRESSION %s: %.0f ns/iter vs baseline %.0f "
                     "(>%.1fx)\n",
                     r.name.c_str(), r.real_time_ns, base_ns, factor);
        ++regressions;
      }
      break;
    }
  }
  return regressions;
}

/// The gate flags of the BENCH_* binaries: --json_out=PATH writes the
/// records (write_bench_json), --baseline=PATH fails the run when any
/// record is more than 2x slower than its entry there.
struct GateArgs {
  std::string json_out;
  std::string baseline;
};

/// Take --json_out= and --baseline= out of argv. Every other argument
/// is appended to `rest` (after argv[0]) when `rest` is given, and is
/// rejected otherwise: prints "unknown argument" and returns false.
inline bool parse_gate_args(int argc, char** argv, GateArgs& args,
                            std::vector<char*>* rest = nullptr) {
  if (rest != nullptr && argc > 0) rest->push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      args.json_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      args.baseline = argv[i] + 11;
    } else if (rest != nullptr) {
      rest->push_back(argv[i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

/// Write the records and apply the baseline gate per `args`; returns
/// the process exit code: 1 when the JSON cannot be written, the
/// baseline is missing or empty, or any record regressed past 2x.
inline int finish_gate(const GateArgs& args,
                       const std::vector<BenchRecord>& records) {
  if (!args.json_out.empty() && !write_bench_json(args.json_out, records)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_out.c_str());
    return 1;
  }
  if (args.baseline.empty()) return 0;
  const auto base = read_bench_json(args.baseline);
  if (base.empty()) {
    std::fprintf(stderr, "baseline %s missing or empty\n",
                 args.baseline.c_str());
    return 1;
  }
  return count_regressions(records, base, 2.0) > 0 ? 1 : 0;
}

/// Collect all runs of one scenario execution (for profiles/speed-ups).
inline core::ChainResult one_run(const workloads::ScenarioConfig& base,
                                 const core::StrategyConfig& strategy,
                                 const cluster::FailurePlan& failures,
                                 std::uint64_t seed = 1000) {
  workloads::ScenarioConfig cfg = base;
  cfg.seed = seed;
  return workloads::run_scenario(cfg, strategy, failures);
}

inline core::StrategyConfig make_strategy(core::Strategy s,
                                          std::uint32_t replication = 1) {
  core::StrategyConfig cfg;
  cfg.strategy = s;
  cfg.replication = replication;
  return cfg;
}

inline cluster::FailurePlan fail_at(std::vector<std::uint32_t> ordinals) {
  cluster::FailurePlan plan;
  plan.at_job_ordinals = std::move(ordinals);
  return plan;
}

inline void print_figure_header(const std::string& figure,
                                const std::string& caption) {
  std::printf("\n=== %s ===\n%s\n\n", figure.c_str(), caption.c_str());
}

}  // namespace rcmp::bench
