// Unit tests for the DFS metadata service.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dfs/namenode.hpp"

namespace rcmp::dfs {
namespace {

struct Fixture {
  Fixture(std::uint32_t nodes = 6, std::uint32_t racks = 1)
      : net(sim), cluster(sim, net, make_spec(nodes, racks)),
        dfs(cluster, 100, 99) {}

  static cluster::ClusterSpec make_spec(std::uint32_t nodes,
                                        std::uint32_t racks) {
    cluster::ClusterSpec spec;
    spec.nodes = nodes;
    spec.racks = racks;
    spec.disk_bw = 100e6;
    spec.nic_bw = 1e9;
    return spec;
  }

  sim::Simulation sim;
  res::FlowNetwork net;
  cluster::Cluster cluster;
  NameNode dfs;  // block size 100 bytes
};

TEST(NameNode, CreateAndDescribeFile) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 4, 2);
  EXPECT_TRUE(f.dfs.file_exists(id));
  EXPECT_EQ(f.dfs.file_name(id), "data");
  EXPECT_EQ(f.dfs.num_partitions(id), 4u);
  EXPECT_EQ(f.dfs.replication(id), 2u);
  EXPECT_EQ(f.dfs.file_size(id), 0u);
  EXPECT_FALSE(f.dfs.file_available(id));  // nothing written yet
}

TEST(NameNode, PlanSplitsIntoBlocks) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 1);
  const auto plan = f.dfs.plan_write(id, 0, 250, PlacementPolicy::kLocalFirst);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].size, 100u);
  EXPECT_EQ(plan[1].size, 100u);
  EXPECT_EQ(plan[2].size, 50u);
}

TEST(NameNode, LocalFirstPlacesWriterFirst) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 3);
  const auto plan = f.dfs.plan_write(id, 2, 100, PlacementPolicy::kLocalFirst);
  ASSERT_EQ(plan.size(), 1u);
  ASSERT_EQ(plan[0].replicas.size(), 3u);
  EXPECT_EQ(plan[0].replicas[0], 2u);
  // Replicas distinct.
  std::set<cluster::NodeId> uniq(plan[0].replicas.begin(),
                                 plan[0].replicas.end());
  EXPECT_EQ(uniq.size(), 3u);
}

TEST(NameNode, RackAwareSecondReplica) {
  Fixture f(6, 3);
  const FileId id = f.dfs.create_file("data", 1, 2);
  int offrack = 0;
  for (int i = 0; i < 50; ++i) {
    const auto plan =
        f.dfs.plan_write(id, 0, 100, PlacementPolicy::kLocalFirst);
    if (f.cluster.rack_of(plan[0].replicas[1]) !=
        f.cluster.rack_of(plan[0].replicas[0])) {
      ++offrack;
    }
  }
  EXPECT_GT(offrack, 35);  // strongly biased off-rack
}

TEST(NameNode, ScatterRoundRobins) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 1);
  const auto plan = f.dfs.plan_write(id, 0, 600, PlacementPolicy::kScatter);
  ASSERT_EQ(plan.size(), 6u);
  std::set<cluster::NodeId> used;
  for (const auto& b : plan) used.insert(b.replicas[0]);
  EXPECT_EQ(used.size(), 6u);  // every node got a block
}

TEST(NameNode, CommitMakesAvailableAndAccounts) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 2, 2);
  const auto plan = f.dfs.plan_write(id, 0, 250, PlacementPolicy::kLocalFirst);
  f.dfs.commit_partition(id, 0, plan);
  EXPECT_TRUE(f.dfs.partition_available(id, 0));
  EXPECT_FALSE(f.dfs.partition_available(id, 1));
  EXPECT_FALSE(f.dfs.file_available(id));
  EXPECT_EQ(f.dfs.file_size(id), 250u);
  EXPECT_EQ(f.dfs.total_used(), 500u);  // 250 bytes x 2 replicas
  f.dfs.commit_partition(id, 1, {});
  EXPECT_TRUE(f.dfs.file_available(id));  // empty partition counts
}

TEST(NameNode, MultipleCommitsAccumulate) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 1);
  f.dfs.commit_partition(
      id, 0, f.dfs.plan_write(id, 0, 100, PlacementPolicy::kLocalFirst));
  f.dfs.commit_partition(
      id, 0, f.dfs.plan_write(id, 1, 100, PlacementPolicy::kLocalFirst));
  EXPECT_EQ(f.dfs.partition(id, 0).blocks.size(), 2u);
  EXPECT_EQ(f.dfs.partition(id, 0).size, 200u);
}

TEST(NameNode, ClearPartitionFreesSpaceAndBumpsLayout) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 1);
  f.dfs.commit_partition(
      id, 0, f.dfs.plan_write(id, 0, 300, PlacementPolicy::kLocalFirst));
  EXPECT_EQ(f.dfs.layout_version(id, 0), 0u);
  f.dfs.clear_partition(id, 0);
  EXPECT_EQ(f.dfs.layout_version(id, 0), 1u);
  EXPECT_FALSE(f.dfs.partition_available(id, 0));
  EXPECT_EQ(f.dfs.total_used(), 0u);
}

TEST(NameNode, ClearPreservingLayoutKeepsVersion) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 1);
  f.dfs.commit_partition(
      id, 0, f.dfs.plan_write(id, 0, 300, PlacementPolicy::kLocalFirst));
  f.dfs.clear_partition(id, 0, /*preserve_layout=*/true);
  EXPECT_EQ(f.dfs.layout_version(id, 0), 0u);
}

TEST(NameNode, SingleReplicaLostOnNodeFailure) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 1);
  const auto plan = f.dfs.plan_write(id, 3, 100, PlacementPolicy::kLocalFirst);
  f.dfs.commit_partition(id, 0, plan);
  f.cluster.kill(3);
  const auto reports = f.dfs.on_node_failure(3);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].file, id);
  EXPECT_EQ(reports[0].lost_partitions, (std::vector<PartitionIndex>{0}));
  EXPECT_FALSE(f.dfs.partition_available(id, 0));
  EXPECT_EQ(f.dfs.used_on_node(3), 0u);
}

TEST(NameNode, ReplicatedPartitionSurvivesSingleFailure) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 2);
  const auto plan = f.dfs.plan_write(id, 3, 100, PlacementPolicy::kLocalFirst);
  f.dfs.commit_partition(id, 0, plan);
  f.cluster.kill(3);
  const auto reports = f.dfs.on_node_failure(3);
  EXPECT_TRUE(reports.empty());
  EXPECT_TRUE(f.dfs.partition_available(id, 0));
  // The surviving replica is the only alive location.
  std::vector<cluster::NodeId> locs;
  f.dfs.alive_locations(f.dfs.partition(id, 0).blocks[0], &locs);
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0], plan[0].replicas[1]);
}

TEST(NameNode, DoubleFailureKillsReplicatedPartition) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 2);
  const auto plan = f.dfs.plan_write(id, 0, 100, PlacementPolicy::kLocalFirst);
  f.dfs.commit_partition(id, 0, plan);
  f.cluster.kill(plan[0].replicas[0]);
  EXPECT_TRUE(f.dfs.on_node_failure(plan[0].replicas[0]).empty());
  f.cluster.kill(plan[0].replicas[1]);
  const auto reports = f.dfs.on_node_failure(plan[0].replicas[1]);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(f.dfs.partition_available(id, 0));
}

TEST(NameNode, LossReportOnlyForNewlyLost) {
  Fixture f;
  const FileId a = f.dfs.create_file("a", 1, 1);
  const FileId b = f.dfs.create_file("b", 1, 1);
  f.dfs.commit_partition(
      a, 0, f.dfs.plan_write(a, 1, 100, PlacementPolicy::kLocalFirst));
  f.dfs.commit_partition(
      b, 0, f.dfs.plan_write(b, 2, 100, PlacementPolicy::kLocalFirst));
  f.cluster.kill(1);
  auto reports = f.dfs.on_node_failure(1);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].file, a);  // b untouched by node 1's death
}

TEST(NameNode, DeleteFileReleasesEverything) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 2, 2);
  f.dfs.commit_partition(
      id, 0, f.dfs.plan_write(id, 0, 100, PlacementPolicy::kLocalFirst));
  f.dfs.commit_partition(
      id, 1, f.dfs.plan_write(id, 1, 100, PlacementPolicy::kLocalFirst));
  f.dfs.delete_file(id);
  EXPECT_FALSE(f.dfs.file_exists(id));
  EXPECT_EQ(f.dfs.total_used(), 0u);
}

TEST(NameNode, PlacementSkipsDeadNodes) {
  Fixture f;
  f.cluster.kill(0);
  f.cluster.kill(1);
  const FileId id = f.dfs.create_file("data", 1, 3);
  for (int i = 0; i < 20; ++i) {
    const auto plan =
        f.dfs.plan_write(id, 0, 100, PlacementPolicy::kLocalFirst);
    for (const auto n : plan[0].replicas) {
      EXPECT_TRUE(f.cluster.alive(n));
    }
  }
}

TEST(NameNode, DeadWriterGetsRemotePlacement) {
  Fixture f;
  f.cluster.kill(2);
  const FileId id = f.dfs.create_file("data", 1, 1);
  const auto plan = f.dfs.plan_write(id, 2, 100, PlacementPolicy::kLocalFirst);
  EXPECT_NE(plan[0].replicas[0], 2u);
}

TEST(NameNode, RejectsInfeasibleReplication) {
  Fixture f;
  EXPECT_THROW(f.dfs.create_file("data", 1, 7), ConfigError);
}

TEST(NameNode, UsedPerNodeTracksReplicas) {
  Fixture f;
  const FileId id = f.dfs.create_file("data", 1, 2);
  const auto plan = f.dfs.plan_write(id, 0, 100, PlacementPolicy::kLocalFirst);
  f.dfs.commit_partition(id, 0, plan);
  EXPECT_EQ(f.dfs.used_on_node(plan[0].replicas[0]), 100u);
  EXPECT_EQ(f.dfs.used_on_node(plan[0].replicas[1]), 100u);
}

}  // namespace
}  // namespace rcmp::dfs
