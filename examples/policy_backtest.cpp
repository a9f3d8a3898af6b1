// policy_backtest: replay the checked-in chaos-scene corpus under every
// resilience policy (core/policy.hpp) and print the scoreboard —
// makespan, replans, wasted work, storage spent, decision counts,
// invariant violations — per (scene, policy) pair.
//
//   $ ./policy_backtest
//   $ ./policy_backtest --seed 7 --json scoreboard.json
//   $ ./policy_backtest --bench-json BENCH_policy.json --baseline B
//     (B = ../bench/BENCH_policy.baseline.json)
//
// With --baseline the run fails (exit 1) if any static-policy makespan
// regresses more than 2x against the checked-in baseline — the nightly
// CI gate that keeps the policy seams honest about their zero-cost
// claim. Same seed => byte-identical --json output.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/backtest.hpp"
#include "bench/bench_util.hpp"
#include "common/error.hpp"
#include "common/log.hpp"

namespace {

using namespace rcmp;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "policy_backtest: %s\n", msg.c_str());
  std::exit(2);
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) die("cannot write " + path);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  std::vector<std::string> policies = core::builtin_policy_names();
  core::PolicyParams params;
  std::string json_path;
  std::string bench_path;
  std::string baseline_path;

  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(next_value(i)));
    } else if (arg == "--policies") {
      policies = split_csv(next_value(i));
      if (policies.empty()) die("--policies needs at least one name");
    } else if (arg == "--json") {
      json_path = next_value(i);
    } else if (arg == "--bench-json") {
      bench_path = next_value(i);
    } else if (arg == "--baseline") {
      baseline_path = next_value(i);
    } else if (arg == "--atlas-risk-threshold") {
      params.atlas.risk_threshold = std::atof(next_value(i));
    } else if (arg == "--atlas-decay") {
      params.atlas.decay = std::atof(next_value(i));
    } else if (arg == "--spec-cost-ratio") {
      params.binocular.cost_ratio = std::atof(next_value(i));
    } else if (arg == "--verbose") {
      Log::set_level(LogLevel::kInfo);
    } else {
      die("unknown flag: " + arg +
          " (flags: --seed N --policies a,b --json PATH --bench-json "
          "PATH --baseline PATH --atlas-risk-threshold X --atlas-decay "
          "X --spec-cost-ratio X)");
    }
  }

  analysis::BacktestReport report;
  try {
    report = analysis::run_backtest(analysis::default_corpus(seed),
                                    policies, params);
  } catch (const ConfigError& e) {
    die(e.what());
  }

  std::printf("policy backtest, seed %llu:\n\n",
              static_cast<unsigned long long>(seed));
  std::fputs(analysis::scoreboard_table(report).c_str(), stdout);

  if (!json_path.empty()) {
    write_file(json_path, analysis::scoreboard_json(report));
  }

  // Bench records: one per (scene, policy), "time" = simulated makespan
  // (the baseline gate compares ratios, so units only need consistency).
  std::vector<bench::BenchRecord> records;
  std::uint32_t violations = 0;
  std::uint32_t incomplete = 0;
  for (const analysis::PolicyScore& r : report.rows) {
    bench::BenchRecord rec;
    rec.name = "policy/" + r.scene + "/" + r.policy;
    rec.real_time_ns = r.makespan * 1e9;
    rec.counters = {{"replans", static_cast<double>(r.replans)},
                    {"wasted_work_seconds", r.wasted_work_seconds}};
    records.push_back(std::move(rec));
    violations += r.violations;
    if (!r.completed) ++incomplete;
  }
  if (!bench_path.empty()) {
    if (!bench::write_bench_json(bench_path, records)) {
      die("cannot write " + bench_path);
    }
  }

  int regressions = 0;
  if (!baseline_path.empty()) {
    // Gate only the static rows: adaptive policies may legitimately
    // trade makespan on one scene for another, but the inert shim has
    // no excuse to move at all.
    std::vector<bench::BenchRecord> static_rows;
    for (const bench::BenchRecord& r : records) {
      if (r.name.size() >= 7 &&
          r.name.compare(r.name.size() - 7, 7, "/static") == 0) {
        static_rows.push_back(r);
      }
    }
    regressions = bench::count_regressions(
        static_rows, bench::read_bench_json(baseline_path), 2.0);
  }

  std::printf(
      "\n%zu rows, %u violation(s), %u incomplete, %d static "
      "regression(s)%s\n",
      report.rows.size(), violations, incomplete, regressions,
      violations == 0 && regressions == 0 ? "" : " — FAIL");
  return violations == 0 && regressions == 0 ? 0 : 1;
}
