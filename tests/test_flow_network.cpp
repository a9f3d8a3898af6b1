// Unit tests for the max-min fair-share flow network.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "resources/flow_network.hpp"

namespace rcmp::res {
namespace {

struct Net {
  sim::Simulation sim;
  FlowNetwork net{sim};
};

FlowSpec flow(HopList<LinkId> path, Bytes bytes,
              std::function<void()> done = nullptr) {
  FlowSpec fs;
  fs.path = std::move(path);
  fs.bytes = bytes;
  fs.on_complete = std::move(done);
  return fs;
}

TEST(FlowNetwork, SingleFlowTakesBytesOverCapacity) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  double done_at = -1.0;
  n.net.start_flow(flow({l}, 1000, [&] { done_at = n.sim.now(); }));
  n.sim.run();
  EXPECT_NEAR(done_at, 10.0, 1e-6);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  double a = -1, b = -1;
  n.net.start_flow(flow({l}, 1000, [&] { a = n.sim.now(); }));
  n.net.start_flow(flow({l}, 1000, [&] { b = n.sim.now(); }));
  n.sim.run();
  EXPECT_NEAR(a, 20.0, 1e-6);
  EXPECT_NEAR(b, 20.0, 1e-6);
}

TEST(FlowNetwork, ShortFlowFreesCapacityForLong) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  double a = -1, b = -1;
  n.net.start_flow(flow({l}, 500, [&] { a = n.sim.now(); }));
  n.net.start_flow(flow({l}, 1500, [&] { b = n.sim.now(); }));
  n.sim.run();
  // Both run at 50 B/s; A finishes at t=10 (500 bytes), then B has 1000
  // left at 100 B/s -> t=20.
  EXPECT_NEAR(a, 10.0, 1e-6);
  EXPECT_NEAR(b, 20.0, 1e-6);
}

TEST(FlowNetwork, LateArrivalSlowsExisting) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  double a = -1;
  n.net.start_flow(flow({l}, 1000, [&] { a = n.sim.now(); }));
  n.sim.schedule_at(5.0, [&] {
    n.net.start_flow(flow({l}, 10000, nullptr));
  });
  n.sim.run_until(100.0);
  // 500 bytes at 100 B/s, then 500 at 50 B/s -> 5 + 10 = 15.
  EXPECT_NEAR(a, 15.0, 1e-6);
}

TEST(FlowNetwork, MaxMinAcrossBottlenecks) {
  Net n;
  // Flow A crosses narrow; flows B,C cross wide. Max-min: A gets 10
  // (narrow), B and C split the wide link's remainder.
  const auto narrow = n.net.add_link({"n", 10.0, 0.0});
  const auto wide = n.net.add_link({"w", 100.0, 0.0});
  n.net.start_flow(flow({narrow, wide}, 1000));
  auto fb = n.net.start_flow(flow({wide}, 1000));
  auto fc = n.net.start_flow(flow({wide}, 1000));
  n.sim.run_until(0.0);  // allocation happens immediately
  EXPECT_NEAR(n.net.flow_rate(fb), 45.0, 1e-6);
  EXPECT_NEAR(n.net.flow_rate(fc), 45.0, 1e-6);
}

TEST(FlowNetwork, DoubleCrossingChargesTwice) {
  Net n;
  // Read+write on the same disk: flow crosses the link twice and should
  // move at half capacity.
  const auto disk = n.net.add_link({"d", 100.0, 0.0});
  double a = -1;
  n.net.start_flow(flow({disk, disk}, 1000, [&] { a = n.sim.now(); }));
  n.sim.run();
  EXPECT_NEAR(a, 20.0, 1e-6);
}

TEST(FlowNetwork, WeightsScaleConsumption) {
  Net n;
  const auto disk = n.net.add_link({"d", 140.0, 0.0});
  // One write-penalized flow (weight 1.4): rate*1.4 = 140 -> 100 B/s.
  FlowSpec fs;
  fs.path = {disk};
  fs.weights = {1.4};
  fs.bytes = 1000;
  double a = -1;
  fs.on_complete = [&] { a = n.sim.now(); };
  n.net.start_flow(std::move(fs));
  n.sim.run();
  EXPECT_NEAR(a, 10.0, 1e-6);
}

TEST(FlowNetwork, WeightedAndUnweightedShareEqualRates) {
  Net n;
  const auto disk = n.net.add_link({"d", 120.0, 0.0});
  FlowSpec heavy;
  heavy.path = {disk};
  heavy.weights = {2.0};
  heavy.bytes = 3000;
  const auto fh = n.net.start_flow(std::move(heavy));
  const auto fl = n.net.start_flow(flow({disk}, 3000));
  n.sim.run_until(0.0);
  // Equal rates r with consumption 2r + r = 120 -> r = 40.
  EXPECT_NEAR(n.net.flow_rate(fh), 40.0, 1e-6);
  EXPECT_NEAR(n.net.flow_rate(fl), 40.0, 1e-6);
}

TEST(FlowNetwork, ContentionDegradationKicksInAboveThreshold) {
  Net n;
  LinkSpec spec;
  spec.name = "disk";
  spec.capacity = 100.0;
  spec.contention_alpha = 0.7;
  spec.contention_threshold = 2.0;
  const auto l = n.net.add_link(spec);
  EXPECT_DOUBLE_EQ(n.net.link_effective_capacity(l), 100.0);
  n.net.start_flow(flow({l}, 1000000));
  n.net.start_flow(flow({l}, 1000000));
  EXPECT_NEAR(n.net.link_effective_capacity(l), 100.0, 1e-9);  // k == k0
  n.net.start_flow(flow({l}, 1000000));
  n.net.start_flow(flow({l}, 1000000));
  // k=4, k0=2: eff = 100 / (1 + 0.7 ln 2)
  EXPECT_NEAR(n.net.link_effective_capacity(l),
              100.0 / (1.0 + 0.7 * std::log(2.0)), 1e-9);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAfterTailLatency) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  double a = -1;
  FlowSpec fs;
  fs.path = {l};
  fs.bytes = 0;
  fs.tail_latency = 3.0;
  fs.on_complete = [&] { a = n.sim.now(); };
  n.net.start_flow(std::move(fs));
  n.sim.run();
  EXPECT_NEAR(a, 3.0, 1e-9);
}

TEST(FlowNetwork, TailLatencyAppendedAfterBytes) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  double a = -1;
  FlowSpec fs;
  fs.path = {l};
  fs.bytes = 1000;
  fs.tail_latency = 5.0;
  fs.on_complete = [&] { a = n.sim.now(); };
  n.net.start_flow(std::move(fs));
  n.sim.run();
  EXPECT_NEAR(a, 15.0, 1e-6);
}

TEST(FlowNetwork, CancelSuppressesCallback) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  bool fired = false;
  const auto f = n.net.start_flow(flow({l}, 1000, [&] { fired = true; }));
  n.sim.schedule_at(1.0, [&] { n.net.cancel_flow(f); });
  n.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(n.net.active_flows(), 0u);
}

TEST(FlowNetwork, CancelSpeedsUpOthers) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  double a = -1;
  n.net.start_flow(flow({l}, 1000, [&] { a = n.sim.now(); }));
  const auto hog = n.net.start_flow(flow({l}, 100000));
  n.sim.schedule_at(2.0, [&] { n.net.cancel_flow(hog); });
  n.sim.run_until(1000.0);
  // 100 bytes at 50 B/s by t=2, then 900 at 100 B/s -> t=11.
  EXPECT_NEAR(a, 11.0, 1e-6);
}

TEST(FlowNetwork, FlowRemainingTracksProgress) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  const auto f = n.net.start_flow(flow({l}, 1000));
  n.sim.schedule_at(4.0, [&] {
    // advance_progress only runs on reallocation; trigger one.
    n.net.start_flow(flow({l}, 1));
  });
  n.sim.run_until(4.0);
  EXPECT_NEAR(n.net.flow_remaining(f), 600.0, 1.0);
}

TEST(FlowNetwork, CapacityChangeReschedules) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  double a = -1;
  n.net.start_flow(flow({l}, 1000, [&] { a = n.sim.now(); }));
  n.sim.schedule_at(5.0, [&] { n.net.set_link_capacity(l, 50.0); });
  n.sim.run();
  // 500 bytes by t=5, remaining 500 at 50 B/s -> t=15.
  EXPECT_NEAR(a, 15.0, 1e-6);
}

TEST(FlowNetwork, ManyFlowsAllComplete) {
  Net n;
  std::vector<LinkId> links;
  for (int i = 0; i < 20; ++i) {
    links.push_back(n.net.add_link({"l", 100.0, 0.0}));
  }
  int done = 0;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    HopList<LinkId> path{links[rng.below(20)], links[rng.below(20)]};
    n.net.start_flow(flow(std::move(path), 100 + rng.below(10000),
                          [&] { ++done; }));
  }
  n.sim.run();
  EXPECT_EQ(done, 500);
  EXPECT_EQ(n.net.active_flows(), 0u);
}

TEST(FlowNetwork, DeterministicCompletionOrder) {
  auto run_once = [] {
    Net n;
    const auto l = n.net.add_link({"l", 100.0, 0.0});
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
      n.net.start_flow(flow({l}, 1000, [&order, i] { order.push_back(i); }));
    }
    n.sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FlowNetwork, EmptyPathIsPureLatency) {
  Net n;
  double a = -1;
  FlowSpec fs;
  fs.bytes = 123456;
  fs.tail_latency = 2.0;
  fs.on_complete = [&] { a = n.sim.now(); };
  n.net.start_flow(std::move(fs));
  n.sim.run();
  EXPECT_NEAR(a, 2.0, 1e-9);
}

TEST(FlowNetwork, RejectsBadSpecs) {
  Net n;
  EXPECT_THROW(n.net.add_link({"bad", 0.0, 0.0}), InvariantError);
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  FlowSpec fs;
  fs.path = {l};
  fs.weights = {1.0, 2.0};  // misaligned
  fs.bytes = 10;
  EXPECT_THROW(n.net.start_flow(std::move(fs)), InvariantError);
}

TEST(FlowNetwork, PathLongerThanTheHopListIsAnError) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  FlowSpec fs;
  for (std::size_t i = 0; i < kMaxHops; ++i) {
    fs.path.push_back(l);
    fs.weights.push_back(1.0);
  }
  // One hop too many is refused, and the list keeps what it held.
  EXPECT_THROW(fs.path.push_back(l), InvariantError);
  EXPECT_THROW(fs.weights.push_back(1.0), InvariantError);
  EXPECT_THROW((HopList<LinkId>{l, l, l, l, l, l, l, l}), InvariantError);
  ASSERT_EQ(fs.path.size(), kMaxHops);
  ASSERT_EQ(fs.weights.size(), kMaxHops);
  // A flow of exactly kMaxHops hops runs: crossing one link at every
  // hop, it moves at a kMaxHops-th of the capacity.
  double done_at = -1.0;
  fs.bytes = 1000;
  fs.on_complete = [&] { done_at = n.sim.now(); };
  n.net.start_flow(std::move(fs));
  n.sim.run();
  EXPECT_NEAR(done_at, 10.0 * kMaxHops, 1e-6);
}

TEST(FlowNetwork, ReallocationCountIsBounded) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  for (int i = 0; i < 50; ++i) n.net.start_flow(flow({l}, 1000));
  n.sim.run();
  // One reallocation per start plus a handful per completion batch.
  EXPECT_LE(n.net.reallocations(), 150u);
}

}  // namespace
}  // namespace rcmp::res

// Appended coverage for the link-pressure heuristic.
namespace rcmp::res {
namespace {

TEST(FlowNetwork, PressureReflectsDegradedCapacity) {
  Net n;
  const auto fast = n.net.add_link({"fast", 100.0, 0.0});
  const auto slow = n.net.add_link({"slow", 10.0, 0.0});
  // Idle: pressure = 1/capacity; the slow link is 10x "heavier".
  EXPECT_GT(n.net.link_pressure(slow), n.net.link_pressure(fast) * 5.0);
  // Loading the fast link raises its pressure proportionally.
  n.net.start_flow(flow({fast}, 1000000));
  n.net.start_flow(flow({fast}, 1000000));
  EXPECT_NEAR(n.net.link_pressure(fast), 3.0 / 100.0, 1e-9);
}

TEST(FlowNetwork, PressureCountsWeightedStreams) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  FlowSpec heavy;
  heavy.path = {l};
  heavy.weights = {2.0};
  heavy.bytes = 1000000;
  n.net.start_flow(std::move(heavy));
  EXPECT_NEAR(n.net.link_pressure(l), 3.0 / 100.0, 1e-9);
}

}  // namespace
}  // namespace rcmp::res

// Appended coverage for lazy progress tracking and incremental
// (component-restricted, instant-batched) reallocation.
namespace rcmp::res {
namespace {

TEST(FlowNetwork, FlowRemainingExactMidIntervalWithoutReallocation) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  const auto f = n.net.start_flow(flow({l}, 1000));
  double observed = -1.0;
  // A plain simulation event — nothing touches the network between the
  // start and this read, so the value must come from the lazy
  // remaining(t) projection, not from a reallocation side effect.
  n.sim.schedule_at(4.0, [&] { observed = n.net.flow_remaining(f); });
  n.sim.run_until(4.0);
  EXPECT_NEAR(observed, 600.0, 1e-9);
  EXPECT_NEAR(n.net.flow_rate(f), 100.0, 1e-9);
}

TEST(FlowNetwork, DisjointComponentsReallocateIndependently) {
  Net n;
  const auto a = n.net.add_link({"a", 100.0, 0.0});
  const auto b = n.net.add_link({"b", 100.0, 0.0});
  const auto fa = n.net.start_flow(flow({a}, 100000));
  const auto fb1 = n.net.start_flow(flow({b}, 100000));
  const auto fb2 = n.net.start_flow(flow({b}, 200000));
  ASSERT_NEAR(n.net.flow_rate(fa), 100.0, 1e-9);  // forces the flush
  const std::uint64_t touched_before = n.net.flows_reallocated();
  // Starting another flow on component {a} must not touch {b}'s flows.
  n.sim.schedule_at(1.0, [&] { n.net.start_flow(flow({a}, 100000)); });
  double rb1 = -1.0, rb2 = -1.0;
  n.sim.schedule_at(2.0, [&] {
    rb1 = n.net.flow_rate(fb1);
    rb2 = n.net.flow_rate(fb2);
  });
  n.sim.run_until(2.0);
  EXPECT_NEAR(n.net.flow_rate(fa), 50.0, 1e-9);
  EXPECT_NEAR(rb1, 50.0, 1e-9);
  EXPECT_NEAR(rb2, 50.0, 1e-9);
  // The second {a} start reallocated component {a} only: 2 flows.
  EXPECT_EQ(n.net.flows_reallocated() - touched_before, 2u);
}

TEST(FlowNetwork, SameInstantStartsBatchIntoOneReallocation) {
  Net n;
  const auto l = n.net.add_link({"l", 100.0, 0.0});
  for (int i = 0; i < 100; ++i) n.net.start_flow(flow({l}, 1000));
  n.sim.run_until(0.0);  // the instant's flush runs exactly once
  EXPECT_EQ(n.net.reallocations(), 1u);
  EXPECT_EQ(n.net.flows_reallocated(), 100u);
}

TEST(FlowNetwork, CancelChurnKeepsNetworkConsistent) {
  Net n;
  std::vector<LinkId> links;
  for (int i = 0; i < 8; ++i) {
    links.push_back(n.net.add_link({"l", 100.0, 0.0}));
  }
  Rng rng(7);
  int done = 0;
  int cancelled = 0;
  std::vector<FlowId> ids;
  for (int i = 0; i < 200; ++i) {
    HopList<LinkId> path{links[rng.below(8)], links[rng.below(8)]};
    ids.push_back(n.net.start_flow(
        flow(std::move(path), 1000 + rng.below(5000), [&] { ++done; })));
  }
  // Cancel half mid-flight, some of them twice (second must be a no-op).
  for (int i = 0; i < 200; i += 2) {
    n.sim.schedule_at(1.0 + rng.below(5), [&n, &cancelled, f = ids[i]] {
      if (n.net.flow_active(f)) ++cancelled;
      n.net.cancel_flow(f);
      n.net.cancel_flow(f);
    });
  }
  n.sim.run();
  EXPECT_EQ(n.net.active_flows(), 0u);
  EXPECT_EQ(done + cancelled, 200);
  EXPECT_GE(done, 100);  // the uncancelled half always completes
}

}  // namespace
}  // namespace rcmp::res
