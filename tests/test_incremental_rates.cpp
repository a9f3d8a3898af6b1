// Property and determinism tests for the incremental max-min
// reallocator.
//
// The flow network recomputes rates one link-sharing component at a
// time and batches same-instant mutations; these tests pin the two
// contracts that make that safe: (1) the resulting allocation is
// exactly the one a full whole-network progressive filling produces,
// and (2) end-to-end scenario results stay bit-identical run to run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "resources/flow_network.hpp"
#include "workloads/presets.hpp"
#include "workloads/scenario.hpp"

namespace rcmp::res {
namespace {

struct RefFlow {
  std::vector<LinkId> path;
  std::vector<double> weights;
};

/// Reference allocation: whole-network progressive filling, links
/// scanned in ascending id order — the textbook algorithm the
/// incremental component passes must reproduce.
std::vector<double> full_max_min(const std::vector<double>& capacity,
                                 const std::vector<RefFlow>& flows) {
  const std::size_t links = capacity.size();
  std::vector<double> rem = capacity;
  std::vector<double> unfrozen(links, 0.0);
  for (const RefFlow& f : flows) {
    for (std::size_t i = 0; i < f.path.size(); ++i) {
      unfrozen[f.path[i]] += f.weights[i];
    }
  }
  std::vector<double> rate(flows.size(), -1.0);
  for (;;) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = links;
    for (std::size_t l = 0; l < links; ++l) {
      if (unfrozen[l] <= 1e-9) continue;
      const double share = std::max(0.0, rem[l]) / unfrozen[l];
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    if (best_link == links) break;
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      if (rate[fi] >= 0.0) continue;
      const RefFlow& f = flows[fi];
      bool crosses = false;
      for (LinkId l : f.path) crosses = crosses || l == best_link;
      if (!crosses) continue;
      rate[fi] = best_share;
      for (std::size_t i = 0; i < f.path.size(); ++i) {
        rem[f.path[i]] -= best_share * f.weights[i];
        unfrozen[f.path[i]] -= f.weights[i];
      }
    }
    unfrozen[best_link] = 0.0;
  }
  return rate;
}

// Randomized rack topologies (node up/down links, per-rack ToR, shared
// fabric) with a mix of in-rack and cross-rack flows, some cancelled
// mid-flight: the incremental rates must match the full recompute on
// every active flow.
TEST(IncrementalRates, MatchesFullRecomputeOnRandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    sim::Simulation sim;
    FlowNetwork net(sim);

    const std::uint32_t racks = 1 + rng.below(3);
    const std::uint32_t nodes = 2 + rng.below(4);
    std::vector<double> capacity;
    auto add = [&](double cap) {
      capacity.push_back(cap);
      return net.add_link({"l", cap, 0.0});
    };
    const LinkId fabric = add(100.0 + rng.below(200));
    std::vector<LinkId> tor, up, down;
    for (std::uint32_t r = 0; r < racks; ++r) {
      tor.push_back(add(80.0 + rng.below(120)));
    }
    for (std::uint32_t i = 0; i < racks * nodes; ++i) {
      up.push_back(add(50.0 + rng.below(100)));
      down.push_back(add(50.0 + rng.below(100)));
    }

    const std::uint32_t flow_count = 10 + rng.below(40);
    std::vector<FlowId> ids;
    std::vector<RefFlow> specs;
    for (std::uint32_t i = 0; i < flow_count; ++i) {
      const std::uint32_t src = rng.below(racks * nodes);
      const std::uint32_t dst = rng.below(racks * nodes);
      RefFlow rf;
      rf.path.push_back(up[src]);
      if (src / nodes == dst / nodes) {
        rf.path.push_back(tor[src / nodes]);
      } else {
        rf.path.push_back(tor[src / nodes]);
        rf.path.push_back(fabric);
        rf.path.push_back(tor[dst / nodes]);
      }
      rf.path.push_back(down[dst]);
      rf.weights.assign(rf.path.size(), 1.0);
      if (rng.below(4) == 0) rf.weights.back() = 1.4;  // write penalty
      FlowSpec fs;
      for (LinkId l : rf.path) fs.path.push_back(l);
      for (double w : rf.weights) fs.weights.push_back(w);
      fs.bytes = 100000 + rng.below(900000);
      ids.push_back(net.start_flow(std::move(fs)));
      specs.push_back(std::move(rf));
    }
    // Cancel a random subset mid-flight (well before any completion:
    // >= 1e5 bytes over <= ~350 B/s shares).
    for (std::uint32_t i = 0; i < flow_count; ++i) {
      if (rng.below(3) == 0) {
        sim.schedule_at(0.5, [&net, f = ids[i]] { net.cancel_flow(f); });
      }
    }
    bool probed = false;
    sim.schedule_at(0.75, [&] {
      probed = true;
      std::vector<RefFlow> active;
      std::vector<FlowId> active_ids;
      for (std::uint32_t i = 0; i < flow_count; ++i) {
        if (!net.flow_active(ids[i])) continue;
        active.push_back(specs[i]);
        active_ids.push_back(ids[i]);
      }
      ASSERT_FALSE(active.empty());
      const std::vector<double> expect = full_max_min(capacity, active);
      for (std::size_t i = 0; i < active.size(); ++i) {
        EXPECT_NEAR(net.flow_rate(active_ids[i]), expect[i], 1e-9)
            << "seed " << seed << " flow " << i;
      }
    });
    sim.run_until(0.75);
    ASSERT_TRUE(probed) << "seed " << seed;
  }
}

// Identical (seed, config) pairs must reproduce end-to-end results
// bit-for-bit — the event queue's (time, insertion-sequence) contract
// and the component-restricted reallocation guarantee it.
TEST(IncrementalRates, ScenarioResultsAreBitIdentical) {
  for (const core::Strategy strategy :
       {core::Strategy::kRcmpSplit, core::Strategy::kRcmpNoSplit,
        core::Strategy::kRcmpScatter}) {
    core::StrategyConfig s;
    s.strategy = strategy;
    auto cfg = workloads::stic_config(1, 1);
    const auto a = workloads::run_scenario(cfg, s, {});
    const auto b = workloads::run_scenario(cfg, s, {});
    EXPECT_EQ(a.completed, b.completed);
    // Bit-identical, not merely close:
    EXPECT_EQ(std::memcmp(&a.total_time, &b.total_time, sizeof(double)),
              0);
    EXPECT_EQ(a.jobs_started, b.jobs_started);
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.peak_storage, b.peak_storage);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
      EXPECT_EQ(std::memcmp(&a.runs[i].start_time, &b.runs[i].start_time,
                            sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&a.runs[i].end_time, &b.runs[i].end_time,
                            sizeof(double)),
                0);
      EXPECT_EQ(a.runs[i].mappers_executed, b.runs[i].mappers_executed);
      EXPECT_EQ(a.runs[i].reducers_executed, b.runs[i].reducers_executed);
    }
  }
}

}  // namespace
}  // namespace rcmp::res
