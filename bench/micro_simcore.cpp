// Micro-benchmarks (google-benchmark) for the simulator substrate:
// event-queue throughput, flow reallocation cost, the per-record check
// kernel, the map-output ledger recount, map placement, and an
// end-to-end chain simulation — the knobs that bound how large a
// cluster the reproduction can sweep.
//
// Beyond the console table, the binary emits a machine-readable summary
// (--json_out=BENCH_simcore.json) and can gate on a checked-in baseline
// (--baseline=..., exit 1 when any benchmark runs >2x slower); CI runs
// it as a smoke job on every push. See EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/md5.hpp"
#include "common/rng.hpp"
#include "mapred/map_output_store.hpp"
#include "mapred/record.hpp"
#include "obs/trace.hpp"
#include "resources/flow_network.hpp"
#include "sim/simulation.hpp"
#include "workloads/scenario.hpp"

namespace {

using namespace rcmp;

void BM_EventQueue(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule_after(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

// Cancel-heavy workload: the flow network retargets its completion
// timer on every reallocation, so half of all scheduled events being
// cancelled is representative. Physical cancellation must keep the
// queue free of dead entries.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  std::vector<sim::EventId> ids;
  for (auto _ : state) {
    sim::Simulation sim;
    ids.clear();
    ids.reserve(static_cast<std::size_t>(batch));
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      ids.push_back(
          sim.schedule_after(static_cast<double>(i % 211), [&fired] {
            ++fired;
          }));
    }
    for (int i = 0; i < batch; i += 2) sim.cancel(ids[i]);
    sim.run();
    benchmark::DoNotOptimize(fired);
    state.counters["cancelled"] =
        static_cast<double>(sim.events_cancelled());
    state.counters["peak_pending"] =
        static_cast<double>(sim.peak_pending());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(100000);

// N flows sharing a star topology: every flow start/finish triggers a
// max-min reallocation across all links.
void BM_FlowReallocation(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    res::FlowNetwork net(sim);
    std::vector<res::LinkId> up, down;
    for (int n = 0; n < nodes; ++n) {
      up.push_back(net.add_link({"u", 1e9, 0.0}));
      down.push_back(net.add_link({"d", 1e9, 0.0}));
    }
    const auto fabric = net.add_link({"f", 1e9 * nodes / 2.0, 0.0});
    int done = 0;
    for (int s = 0; s < nodes; ++s) {
      for (int d = 0; d < nodes; ++d) {
        if (s == d) continue;
        res::FlowSpec fs;
        fs.path = {up[s], fabric, down[d]};
        fs.bytes = 10'000'000;
        fs.on_complete = [&done] { ++done; };
        net.start_flow(std::move(fs));
      }
    }
    sim.run();
    benchmark::DoNotOptimize(done);
    state.counters["reallocs"] =
        static_cast<double>(net.reallocations());
  }
}
BENCHMARK(BM_FlowReallocation)->Arg(10)->Arg(30);

// R disjoint rack-local stars with in-rack flows only: the link-sharing
// graph has R connected components, so each start/finish must
// reallocate one rack and leave the other R-1 untouched. The
// flows_touched counter makes the incrementality visible (compare
// against reallocs * total flows for a full-recompute implementation).
void BM_FlowReallocationMultiComponent(benchmark::State& state) {
  const int racks = static_cast<int>(state.range(0));
  constexpr int kNodesPerRack = 8;
  for (auto _ : state) {
    sim::Simulation sim;
    res::FlowNetwork net(sim);
    int done = 0;
    for (int r = 0; r < racks; ++r) {
      std::vector<res::LinkId> up, down;
      for (int n = 0; n < kNodesPerRack; ++n) {
        up.push_back(net.add_link({"u", 1e9, 0.0}));
        down.push_back(net.add_link({"d", 1e9, 0.0}));
      }
      const auto tor = net.add_link({"t", 1e9 * kNodesPerRack / 2.0, 0.0});
      for (int s = 0; s < kNodesPerRack; ++s) {
        for (int d = 0; d < kNodesPerRack; ++d) {
          if (s == d) continue;
          res::FlowSpec fs;
          fs.path = {up[s], tor, down[d]};
          fs.bytes = 10'000'000;
          fs.on_complete = [&done] { ++done; };
          net.start_flow(std::move(fs));
        }
      }
    }
    sim.run();
    benchmark::DoNotOptimize(done);
    state.counters["reallocs"] = static_cast<double>(net.reallocations());
    state.counters["flows_touched"] =
        static_cast<double>(net.flows_reallocated());
  }
}
BENCHMARK(BM_FlowReallocationMultiComponent)->Arg(8);

// The tracer's emit() is inlined into every hot emission site in the
// engine and middleware; when tracing is off it must cost one branch.
// Arg(0) = disabled, Arg(1) = enabled with a warm ring (steady-state
// overwrite path, no allocation).
void BM_TracerEmit(benchmark::State& state) {
  obs::Tracer tracer;
  if (state.range(0) != 0) tracer.enable(1 << 12);
  constexpr int kBatch = 1024;
  double t = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      t += 0.25;
      tracer.emit(t, obs::EventType::kTaskFinish, obs::kKindMap,
                  static_cast<std::uint32_t>(i & 7), 3,
                  static_cast<std::uint32_t>(i), 0.25);
    }
    benchmark::DoNotOptimize(tracer.size());
  }
  state.counters["dropped"] = static_cast<double>(tracer.dropped());
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TracerEmit)->Arg(0)->Arg(1);

// The per-record check kernel (MD5 + byte sum over one payload
// expansion) runs in every payload-mode map and reduce UDF and in every
// block and bucket checksum; checksum_of is its aggregate entry point.
// The label names the lane level the CPU selected, so a timing says
// which compiled form it measured.
void BM_RecordChecks(benchmark::State& state) {
  constexpr std::size_t kRecords = 4096;
  Rng rng(0x5EC04D5ULL);
  std::vector<mapred::Record> records(kRecords);
  for (auto& r : records) r = mapred::Record{rng(), rng()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapred::checksum_of(records));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRecords));
  state.SetLabel(Md5::lane_kernel());
}
BENCHMARK(BM_RecordChecks);

// The auditor recounts every chain's map-output ledger from the stored
// outputs at every audit point. The store has the Fig. 8c DCO shape:
// 7 jobs x 3,600 outputs spread over 60 nodes.
void BM_MapOutputAudit(benchmark::State& state) {
  constexpr std::uint32_t kJobs = 7;
  constexpr std::uint32_t kOutputs = 3600;
  constexpr std::uint32_t kNodes = 60;
  mapred::MapOutputStore store;
  for (std::uint32_t j = 0; j < kJobs; ++j) {
    for (std::uint32_t m = 0; m < kOutputs; ++m) {
      mapred::MapOutput out;
      out.node = m % kNodes;
      out.total_bytes = 64.0 * 1024 * 1024;
      store.put({j, m / kNodes, m % kNodes}, std::move(out));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.audit_ledger());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kJobs * kOutputs));
}
BENCHMARK(BM_MapOutputAudit);

// Map placement at scale: a 2-job DCO chain on 10 nodes with 8 MiB
// blocks, 25,600 maps per job. Job 2 reads reducer-written partitions,
// whose blocks sit together in the pending list, so a locality pass
// that scanned pending maps from the front for every free slot would
// dominate the drive.
void BM_MapPlacement(benchmark::State& state) {
  auto cfg = workloads::dco_config_nodes(10);
  cfg.block_size = 8ULL << 20;
  cfg.chain_length = 2;
  core::StrategyConfig s;
  s.strategy = core::Strategy::kRcmpSplit;
  for (auto _ : state) {
    auto r = workloads::run_scenario(cfg, s, {});
    benchmark::DoNotOptimize(r.total_time);
  }
}
BENCHMARK(BM_MapPlacement)->Unit(benchmark::kMillisecond);

void BM_SticChain(benchmark::State& state) {
  for (auto _ : state) {
    auto cfg = workloads::stic_config(1, 1);
    core::StrategyConfig s;
    s.strategy = core::Strategy::kRcmpSplit;
    auto r = workloads::run_scenario(cfg, s, {});
    benchmark::DoNotOptimize(r.total_time);
  }
}
BENCHMARK(BM_SticChain)->Unit(benchmark::kMillisecond);

// Console output as usual, plus a capture of every run so main() can
// emit the JSON summary and apply the baseline gate.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      rcmp::bench::BenchRecord rec;
      rec.name = run.benchmark_name();
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      rec.real_time_ns = run.real_accumulated_time / iters * 1e9;
      // Counters reach reporters already finalized (rates divided by
      // time, averages by iterations) — record them as presented.
      for (const auto& [name, counter] : run.counters) {
        rec.counters.emplace_back(name, counter.value);
      }
      if (rec.real_time_ns > 0.0) {
        rec.counters.emplace_back("ns_per_op", rec.real_time_ns);
      }
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<rcmp::bench::BenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<rcmp::bench::BenchRecord> records_;
};

}  // namespace

int main(int argc, char** argv) {
  // Flags other than the gate's pass through to Google Benchmark.
  rcmp::bench::GateArgs gate;
  std::vector<char*> passthrough;
  rcmp::bench::parse_gate_args(argc, argv, gate, &passthrough);
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  return rcmp::bench::finish_gate(gate, reporter.records());
}
