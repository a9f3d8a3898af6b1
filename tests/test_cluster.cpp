// Unit tests for cluster topology, kill semantics, failure injection
// (the paper's failure plan as a kill_schedule on the chaos engine) and
// failure-trace generation.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/chaos.hpp"
#include "cluster/cluster.hpp"
#include "cluster/failure_trace.hpp"

namespace rcmp::cluster {
namespace {

struct Fixture {
  sim::Simulation sim;
  res::FlowNetwork net{sim};
};

ClusterSpec small_spec() {
  ClusterSpec spec;
  spec.nodes = 4;
  spec.racks = 2;
  spec.disk_bw = 100e6;
  spec.nic_bw = 1e9;
  return spec;
}

TEST(Cluster, BuildsLinksPerNodePlusFabric) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  // 3 links per node (disk, up, down) + fabric + 2 per rack (2 racks).
  EXPECT_EQ(f.net.link_count(), 4u * 3 + 1 + 2 * 2);
  EXPECT_TRUE(c.has_rack_links());
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.alive_count(), 4u);
}

TEST(Cluster, SingleRackHasNoRackLinks) {
  Fixture f;
  auto spec = small_spec();
  spec.racks = 1;
  Cluster c(f.sim, f.net, spec);
  EXPECT_FALSE(c.has_rack_links());
  EXPECT_EQ(f.net.link_count(), 4u * 3 + 1);
}

TEST(Cluster, FabricCapacityHonorsOversubscription) {
  Fixture f;
  auto spec = small_spec();
  spec.fabric_oversubscription = 4.0;
  Cluster c(f.sim, f.net, spec);
  EXPECT_DOUBLE_EQ(f.net.link_capacity(c.fabric()),
                   spec.nic_bw * spec.nodes / 4.0);
}

TEST(Cluster, RackAssignmentRoundRobin) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  EXPECT_EQ(c.rack_of(0), 0u);
  EXPECT_EQ(c.rack_of(1), 1u);
  EXPECT_EQ(c.rack_of(2), 0u);
  EXPECT_EQ(c.rack_of(3), 1u);
}

TEST(Cluster, KillUpdatesStateAndNotifies) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  std::vector<NodeId> killed;
  c.on_failure([&](const FailureEvent& ev) {
    EXPECT_TRUE(ev.whole_node());
    killed.push_back(ev.node);
  });
  c.kill(2);
  EXPECT_FALSE(c.alive(2));
  EXPECT_EQ(c.alive_count(), 3u);
  EXPECT_EQ(killed, (std::vector<NodeId>{2}));
  EXPECT_EQ(c.alive_nodes(), (std::vector<NodeId>{0, 1, 3}));
}

TEST(Cluster, DoubleKillIsAnError) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  c.kill(1);
  EXPECT_THROW(c.kill(1), InvariantError);
}

TEST(Cluster, KillHandlersRunInRegistrationOrder) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  std::vector<int> order;
  c.on_failure([&](const FailureEvent&) { order.push_back(1); });
  c.on_failure([&](const FailureEvent&) { order.push_back(2); });
  c.kill(0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Cluster, LocalPathTouchesOnlyDisk) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  const auto read = c.path_disk_read(1);
  ASSERT_EQ(read.links.size(), 1u);
  EXPECT_EQ(read.links[0], c.disk(1));
  EXPECT_DOUBLE_EQ(read.weights[0], 1.0);
  const auto write = c.path_disk_write(1);
  EXPECT_DOUBLE_EQ(write.weights[0], small_spec().disk_write_penalty);
}

TEST(Cluster, RemoteTransferPathSingleRack) {
  Fixture f;
  auto spec = small_spec();
  spec.racks = 1;
  Cluster c(f.sim, f.net, spec);
  const auto p = c.path_transfer(0, 2, true, true);
  ASSERT_EQ(p.links.size(), 5u);
  EXPECT_EQ(p.links[0], c.disk(0));
  EXPECT_EQ(p.links[1], c.nic_up(0));
  EXPECT_EQ(p.links[2], c.fabric());
  EXPECT_EQ(p.links[3], c.nic_down(2));
  EXPECT_EQ(p.links[4], c.disk(2));
  EXPECT_DOUBLE_EQ(p.weights[4], small_spec().disk_write_penalty);
}

TEST(Cluster, IntraRackTransferStaysOnToR) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());  // 2 racks: 0,2 | 1,3
  const auto p = c.path_transfer(0, 2, true, true);
  // disk, up, down, disk — no rack or fabric links for same-rack.
  ASSERT_EQ(p.links.size(), 4u);
  EXPECT_EQ(p.links[1], c.nic_up(0));
  EXPECT_EQ(p.links[2], c.nic_down(2));
}

TEST(Cluster, CrossRackTransferUsesRackLinks) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  const auto p = c.path_transfer(0, 1, true, true);  // rack 0 -> rack 1
  // disk, up, rack_up, fabric, rack_down, down, disk.
  ASSERT_EQ(p.links.size(), 7u);
  EXPECT_EQ(p.links[3], c.fabric());
}

TEST(Cluster, LongestPathFitsTheHopList) {
  // Every path the cluster builds, over every endpoint pair, end flag
  // and storage tier, fits the inline hop list; the cross-rack one that
  // reads the source disk and writes the destination disk fills it.
  Fixture f;
  auto spec = small_spec();
  spec.nodes = 6;
  spec.racks = 3;
  spec.ram_bytes = 1ULL << 30;
  Cluster c(f.sim, f.net, spec);
  const StorageTier tiers[] = {StorageTier::kDisk, StorageTier::kMemory};
  std::size_t longest = 0;
  for (NodeId src = 0; src < spec.nodes; ++src) {
    for (NodeId dst = 0; dst < spec.nodes; ++dst) {
      for (int ends = 0; ends < 4; ++ends) {
        for (StorageTier st : tiers) {
          for (StorageTier dt : tiers) {
            const auto p = c.path_transfer(src, dst, (ends & 1) != 0,
                                           (ends & 2) != 0, st, dt);
            EXPECT_EQ(p.links.size(), p.weights.size());
            longest = std::max(longest, p.links.size());
          }
        }
      }
    }
  }
  EXPECT_EQ(longest, res::kMaxHops);
  const auto p = c.path_transfer(0, 1, true, true);  // rack 0 -> rack 1
  ASSERT_EQ(p.links.size(), res::kMaxHops);
  EXPECT_EQ(p.links[0], c.disk(0));
  EXPECT_EQ(p.links[1], c.nic_up(0));
  EXPECT_EQ(p.links[3], c.fabric());
  EXPECT_EQ(p.links[5], c.nic_down(1));
  EXPECT_EQ(p.links[6], c.disk(1));
  EXPECT_DOUBLE_EQ(p.weights[6], spec.disk_write_penalty);
}

TEST(Cluster, SameNodeTransferCrossesDiskTwice) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  const auto p = c.path_transfer(3, 3, true, true);
  ASSERT_EQ(p.links.size(), 2u);
  EXPECT_EQ(p.links[0], c.disk(3));
  EXPECT_EQ(p.links[1], c.disk(3));
}

TEST(Cluster, MemoryToMemorySameNodeIsFree) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  EXPECT_TRUE(c.path_transfer(1, 1, false, false).links.empty());
}

// The paper's failure plan runs on the chaos engine as a kill_schedule.

TEST(FailureInjector, KillsAfterDelay) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  FailurePlan plan;
  plan.at_job_ordinals = {1};
  ChaosEngine inj(c, kill_schedule(plan, c.size()), 42);
  inj.notify_job_start(1);
  f.sim.run_until(14.9);
  EXPECT_EQ(c.alive_count(), 4u);
  f.sim.run_until(15.1);
  EXPECT_EQ(c.alive_count(), 3u);
  EXPECT_EQ(inj.injected(), 1u);
}

TEST(FailureInjector, IgnoresOtherOrdinals) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  FailurePlan plan;
  plan.at_job_ordinals = {3};
  ChaosEngine inj(c, kill_schedule(plan, c.size()), 42);
  inj.notify_job_start(1);
  inj.notify_job_start(2);
  f.sim.run();
  EXPECT_EQ(inj.injected(), 0u);
  inj.notify_job_start(3);
  f.sim.run();
  EXPECT_EQ(inj.injected(), 1u);
}

TEST(FailureInjector, DoubleFailureSameJobStaggered) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  FailurePlan plan;
  plan.at_job_ordinals = {2, 2};
  ChaosEngine inj(c, kill_schedule(plan, c.size()), 42);
  inj.notify_job_start(2);
  f.sim.run_until(15.1);
  EXPECT_EQ(inj.injected(), 1u);
  f.sim.run_until(30.1);
  EXPECT_EQ(inj.injected(), 2u);
  EXPECT_EQ(c.alive_count(), 2u);
}

TEST(FailureInjector, PicksOnlyAliveVictims) {
  Fixture f;
  auto spec = small_spec();
  spec.nodes = 2;
  Cluster c(f.sim, f.net, spec);
  FailurePlan plan;
  plan.at_job_ordinals = {1, 1};
  ChaosEngine inj(c, kill_schedule(plan, c.size()), 7);
  inj.notify_job_start(1);
  f.sim.run();
  EXPECT_EQ(inj.injected(), 2u);
  EXPECT_EQ(c.alive_count(), 0u);
  // Both victims distinct.
  EXPECT_NE(inj.killed_nodes()[0], inj.killed_nodes()[1]);
}

TEST(FailureTrace, CalibratedFractions) {
  const auto stic = generate_trace(stic_trace_model(), 1);
  EXPECT_NEAR(stic.failure_day_fraction(), 0.17, 0.04);
  const auto sugar = generate_trace(sugar_trace_model(), 2);
  EXPECT_NEAR(sugar.failure_day_fraction(), 0.12, 0.04);
}

TEST(FailureTrace, DeterministicPerSeed) {
  const auto a = generate_trace(stic_trace_model(), 5);
  const auto b = generate_trace(stic_trace_model(), 5);
  EXPECT_EQ(a.failures_per_day, b.failures_per_day);
  const auto c = generate_trace(stic_trace_model(), 6);
  EXPECT_NE(a.failures_per_day, c.failures_per_day);
}

TEST(FailureTrace, CdfMonotoneReaches100) {
  const auto t = generate_trace(stic_trace_model(), 3);
  const auto cdf = t.cdf_percent(40);
  ASSERT_EQ(cdf.size(), 41u);
  for (std::size_t i = 1; i < cdf.size(); ++i)
    EXPECT_GE(cdf[i], cdf[i - 1]);
  EXPECT_DOUBLE_EQ(cdf.back(), 100.0);
  // CDF at 0 equals the fraction of failure-free days.
  EXPECT_NEAR(cdf[0], (1.0 - t.failure_day_fraction()) * 100.0, 1e-9);
}

TEST(FailureTrace, BurstTailExists) {
  const auto t = generate_trace(stic_trace_model(), 4);
  std::uint32_t max_day = 0;
  for (auto c : t.failures_per_day) max_day = std::max(max_day, c);
  EXPECT_GT(max_day, 5u);  // outage days reach the long tail
}

TEST(FailureTrace, MeanGapMatchesOccasionalFailures) {
  const auto t = generate_trace(stic_trace_model(), 1);
  // ~17% failure days -> gaps of roughly 6 days (paper: failures are
  // expected "only at an interval of days").
  EXPECT_GT(t.mean_days_between_failure_days(), 3.0);
  EXPECT_LT(t.mean_days_between_failure_days(), 12.0);
}

TEST(FailureTrace, ImpliedPerNodeRateIsTiny) {
  const auto model = stic_trace_model();
  const auto t = generate_trace(model, 1);
  const double rate = implied_per_node_daily_failure_rate(model, t);
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 0.01);  // < 1% per node per day
}

}  // namespace
}  // namespace rcmp::cluster

// Appended coverage for straggler injection and link pressure.
namespace rcmp::cluster {
namespace {

TEST(Straggler, CpuFactorValidatedAndStored) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  EXPECT_DOUBLE_EQ(c.cpu_factor(0), 1.0);
  c.set_cpu_factor(0, 5.0);
  EXPECT_DOUBLE_EQ(c.cpu_factor(0), 5.0);
  EXPECT_THROW(c.set_cpu_factor(0, 0.0), InvariantError);
}

TEST(Straggler, DegradeDiskReducesCapacity) {
  Fixture f;
  Cluster c(f.sim, f.net, small_spec());
  const auto before = f.net.link_capacity(c.disk(1));
  c.degrade_disk(1, 4.0);
  EXPECT_DOUBLE_EQ(f.net.link_capacity(c.disk(1)), before / 4.0);
  EXPECT_THROW(c.degrade_disk(1, 0.5), InvariantError);
}

TEST(RackLinks, OversubscriptionShrinksRackBandwidth) {
  Fixture f;
  auto spec = small_spec();
  spec.racks = 2;
  spec.rack_oversubscription = 4.0;
  Cluster c(f.sim, f.net, spec);
  const auto p = c.path_transfer(0, 1, false, false);  // cross-rack
  ASSERT_EQ(p.links.size(), 5u);  // up, rack_up, fabric, rack_down, down
  // rack link capacity = (4/2 nodes) * nic / 4.
  EXPECT_DOUBLE_EQ(f.net.link_capacity(p.links[1]),
                   2.0 * spec.nic_bw / 4.0);
}

}  // namespace
}  // namespace rcmp::cluster
