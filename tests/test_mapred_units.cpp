// Unit tests for mapred data-plane pieces: records/checksums, payload
// store, map-output store, and the workload UDFs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/md5.hpp"
#include "common/rng.hpp"
#include "mapred/map_output_store.hpp"
#include "mapred/payload_store.hpp"
#include "mapred/record.hpp"
#include "workloads/udfs.hpp"

namespace rcmp::mapred {
namespace {

TEST(Record, PayloadExpansionDeterministic) {
  std::uint8_t a[64], b[64];
  expand_payload(123, a);
  expand_payload(123, b);
  EXPECT_EQ(std::memcmp(a, b, 64), 0);
  expand_payload(124, b);
  EXPECT_NE(std::memcmp(a, b, 64), 0);
}

TEST(Record, ChecksDeterministicAndValueSensitive) {
  const Record r1{1, 100}, r2{1, 101};
  EXPECT_EQ(record_checks(r1).md5, record_checks(r1).md5);
  EXPECT_NE(record_checks(r1).md5, record_checks(r2).md5);
  EXPECT_EQ(record_checks(r1).byte_sum, record_checks(r1).byte_sum);
  // Byte sum of 64 bytes is bounded.
  EXPECT_LE(record_checks(r1).byte_sum, 64u * 255u);
}

/// A fixed seeded record set for the kernel pins below.
std::vector<Record> seeded_records(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Record> recs(n);
  for (auto& r : recs) r = Record{rng(), rng()};
  return recs;
}

TEST(Record, FusedChecksEqualSeparateComputations) {
  const std::vector<Record> recs = seeded_records(0xF05EDULL, 2000);
  for (const Record& r : recs) {
    std::uint8_t payload[64];
    expand_payload(r.value, payload);
    std::uint64_t sum = 0;
    for (std::uint8_t b : payload) sum += b;
    const RecordChecks c = record_checks(r);
    ASSERT_EQ(c.md5, Md5::hash64(payload, sizeof(payload))) << r.value;
    ASSERT_EQ(c.byte_sum, sum) << r.value;
  }
  // The batch form, Md5::kLanes records per pass, equals the scalar one
  // for every record of every span length up to two full passes plus a
  // one-lane tail, around a 64-record boundary and over the whole set;
  // so does the batch Checksum::add against per-record add().
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 2 * Md5::kLanes + 1; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {63, 64, 65, recs.size()});
  for (std::size_t n : lengths) {
    const std::span<const Record> span(recs.data(), n);
    std::vector<RecordChecks> batch(n);
    record_checks(span, batch.data());
    Checksum one_by_one;
    for (std::size_t i = 0; i < n; ++i) {
      const RecordChecks c = record_checks(span[i]);
      ASSERT_EQ(batch[i].md5, c.md5) << "n=" << n << " i=" << i;
      ASSERT_EQ(batch[i].byte_sum, c.byte_sum) << "n=" << n << " i=" << i;
      one_by_one.add(span[i]);
    }
    ASSERT_EQ(checksum_of(span), one_by_one) << "n=" << n;
  }
}

// The lane kernels are compiled once per lane level. Every level this
// CPU runs equals the scalar reference: the MD5 lanes over one pass of
// payloads, and the batch checks (payload expansion) at every lane of
// full and part-filled passes. The selected level is the widest one the
// CPU runs.
TEST(LaneLevels, EveryLevelTheCpuRunsEqualsTheScalarReference) {
  const auto levels = Md5::lane_levels();
  ASSERT_FALSE(levels.empty());
  std::size_t widest = 0;
  while (!levels[widest].cpu_runs()) ++widest;
  EXPECT_STREQ(Md5::lane_kernel(), levels[widest].name);
  std::cout << "[ lane kernel ] " << Md5::lane_kernel() << '\n';

  const std::vector<Record> recs =
      seeded_records(0x1A4E1ULL, 2 * Md5::kLanes + 1);
  std::vector<RecordChecks> scalar;
  for (const Record& r : recs) scalar.push_back(record_checks(r));
  for (std::size_t level = 0; level < levels.size(); ++level) {
    if (!levels[level].cpu_runs()) {
      std::cout << "[ lane kernel ] " << levels[level].name
                << " not run: this CPU lacks it\n";
      continue;
    }
    std::uint32_t words[16][Md5::kLanes];
    std::uint8_t payloads[Md5::kLanes][64];
    for (std::size_t l = 0; l < Md5::kLanes; ++l) {
      expand_payload(recs[l].value, payloads[l]);
      for (std::size_t i = 0; i < 16; ++i) {
        const std::uint8_t* p = payloads[l] + 4 * i;
        words[i][l] = static_cast<std::uint32_t>(p[0]) |
                      (static_cast<std::uint32_t>(p[1]) << 8) |
                      (static_cast<std::uint32_t>(p[2]) << 16) |
                      (static_cast<std::uint32_t>(p[3]) << 24);
      }
    }
    std::uint64_t md5[Md5::kLanes];
    Md5::hash64_lanes_at(level, words, md5);
    for (std::size_t l = 0; l < Md5::kLanes; ++l) {
      ASSERT_EQ(md5[l], Md5::hash64(payloads[l], 64))
          << levels[level].name << " lane " << l;
    }
    for (std::size_t n = 0; n <= recs.size(); ++n) {
      std::vector<RecordChecks> batch(n);
      record_checks_at(level, {recs.data(), n}, batch.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(batch[i].md5, scalar[i].md5)
            << levels[level].name << " n=" << n << " i=" << i;
        ASSERT_EQ(batch[i].byte_sum, scalar[i].byte_sum)
            << levels[level].name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Checksum, OrderIndependent) {
  std::vector<Record> recs{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  const Checksum fwd = checksum_of(recs);
  std::reverse(recs.begin(), recs.end());
  EXPECT_EQ(checksum_of(recs), fwd);
}

TEST(Checksum, DetectsMissingAndDuplicate) {
  const std::vector<Record> base{{1, 10}, {2, 20}, {3, 30}};
  std::vector<Record> missing{{1, 10}, {2, 20}};
  std::vector<Record> dup{{1, 10}, {2, 20}, {3, 30}, {3, 30}};
  EXPECT_NE(checksum_of(missing), checksum_of(base));
  EXPECT_NE(checksum_of(dup), checksum_of(base));
}

TEST(Checksum, DetectsKeyChangeEvenWithSameValues) {
  const std::vector<Record> a{{1, 10}}, b{{2, 10}};
  EXPECT_NE(checksum_of(a), checksum_of(b));
}

// Golden values for a fixed seeded record set: any drift in the MD5, the
// byte sum or the payload expansion changes them.
TEST(Checksum, GoldenPinForSeededRecords) {
  const Checksum c = checksum_of(seeded_records(0x5EC04D5ULL, 4096));
  EXPECT_EQ(c.md5_acc, 0x769efdd2aef781f6ULL);
  EXPECT_EQ(c.sum_acc, 33513958u);
  EXPECT_EQ(c.key_acc, 0x7db3522d215b3fefULL);
  EXPECT_EQ(c.count, 4096u);
}

TEST(Checksum, MergeEqualsConcatenation) {
  const std::vector<Record> a{{1, 10}, {2, 20}}, b{{3, 30}};
  Checksum merged = checksum_of(a);
  merged.merge(checksum_of(b));
  std::vector<Record> all = a;
  all.insert(all.end(), b.begin(), b.end());
  EXPECT_EQ(merged, checksum_of(all));
}

// The map-output store sums all of an output's buckets in one series of
// lane passes that cross bucket boundaries; every shape must give
// exactly the per-bucket checksum_of.
TEST(Checksum, BucketChecksumsEqualPerBucketChecksumOf) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {},                        // no buckets
      {0, 0, 0},                 // all buckets empty
      {1},                       // one record
      {7}, {8}, {9}, {7, 8, 9},  // around one full pass
      {0, 5, 0, 0, 11, 0, 3},    // empty buckets between full ones
      std::vector<std::size_t>(8, 2),    // the tenant workloads' shape
      std::vector<std::size_t>(120, 1),  // one record per reducer
  };
  std::uint64_t seed = 0xB5C4E75ULL;
  for (const auto& shape : shapes) {
    std::vector<std::vector<Record>> buckets;
    for (std::size_t n : shape) buckets.push_back(seeded_records(++seed, n));
    const std::vector<Checksum> sums = bucket_checksums(buckets);
    ASSERT_EQ(sums.size(), buckets.size());
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      EXPECT_EQ(sums[b], checksum_of(buckets[b]))
          << "shape of " << shape.size() << " buckets, bucket " << b;
    }
  }
}

TEST(PayloadStore, AppendAndReadBack) {
  PayloadStore store;
  EXPECT_FALSE(store.has(0, 0));
  store.append(0, 0, {{1, 10}, {2, 20}, {3, 30}}, 1);
  ASSERT_TRUE(store.has(0, 0));
  EXPECT_EQ(store.partition_records(0, 0).size(), 3u);
  EXPECT_EQ(store.block_count(0, 0), 1u);
}

TEST(PayloadStore, BlockSlicingEven) {
  PayloadStore store;
  std::vector<Record> recs;
  for (std::uint64_t i = 0; i < 10; ++i) recs.push_back({i, i});
  store.append(0, 0, recs, 4);  // 3,3,2,2
  EXPECT_EQ(store.block_records(0, 0, 0).size(), 3u);
  EXPECT_EQ(store.block_records(0, 0, 1).size(), 3u);
  EXPECT_EQ(store.block_records(0, 0, 2).size(), 2u);
  EXPECT_EQ(store.block_records(0, 0, 3).size(), 2u);
  // Blocks tile the partition in order.
  EXPECT_EQ(store.block_records(0, 0, 0)[0].key, 0u);
  EXPECT_EQ(store.block_records(0, 0, 3)[1].key, 9u);
}

TEST(PayloadStore, MultipleAppendsAccumulateExtents) {
  PayloadStore store;
  store.append(7, 2, {{1, 1}, {2, 2}}, 1);
  store.append(7, 2, {{3, 3}}, 1);
  EXPECT_EQ(store.partition_records(7, 2).size(), 3u);
  EXPECT_EQ(store.block_count(7, 2), 2u);
  EXPECT_EQ(store.block_records(7, 2, 1).size(), 1u);
  EXPECT_EQ(store.block_records(7, 2, 1)[0].key, 3u);
}

TEST(PayloadStore, ClearRemoves) {
  PayloadStore store;
  store.append(0, 0, {{1, 1}}, 1);
  store.clear(0, 0);
  EXPECT_FALSE(store.has(0, 0));
  EXPECT_EQ(store.block_count(0, 0), 0u);
}

TEST(PayloadStore, FileChecksumSpansPartitions) {
  PayloadStore store;
  store.append(3, 0, {{1, 10}}, 1);
  store.append(3, 1, {{2, 20}}, 1);
  const Checksum c = store.file_checksum(3, 2);
  EXPECT_EQ(c.count, 2u);
  Checksum manual;
  manual.add({1, 10});
  manual.add({2, 20});
  EXPECT_EQ(c, manual);
}

TEST(PayloadStore, FileHasPayloadPerFile) {
  PayloadStore store;
  store.append(5, 0, {{1, 1}}, 1);
  EXPECT_TRUE(store.file_has_payload(5));
  EXPECT_FALSE(store.file_has_payload(6));
}

// A block of 2 * Md5::kLanes + 1 records is two full lane passes plus
// a one-lane tail. corrupt_record applies the chaos engine's flip to the
// partition's middle record: with an equal block before the block under
// test and 2i records after it, that is the tested block's record i.
TEST(PayloadStore, VerifyBlockCatchesAFlipInEveryLane) {
  const std::vector<Record> recs =
      seeded_records(0xB10CULL, 2 * Md5::kLanes + 1);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    PayloadStore store;
    store.append(0, 0, recs, 1);
    store.append(0, 0, recs, 1);
    if (i > 0) store.append(0, 0, std::vector<Record>(2 * i, {1, 2}), 1);
    ASSERT_TRUE(store.verify_block(0, 0, 1));
    ASSERT_TRUE(store.corrupt_record(0, 0));
    ASSERT_EQ(store.block_records(0, 0, 1)[i].value,
              recs[i].value ^ 0xdeadbeefULL);
    EXPECT_FALSE(store.verify_block(0, 0, 1)) << "record " << i;
    EXPECT_TRUE(store.verify_block(0, 0, 0)) << "record " << i;
  }
}

struct StoreFixture {
  explicit StoreFixture(Bytes ram_bytes = 0)
      : net(sim), cluster(sim, net, make_spec(ram_bytes)) {}
  static cluster::ClusterSpec make_spec(Bytes ram_bytes) {
    cluster::ClusterSpec s;
    s.nodes = 4;
    s.disk_bw = 1e8;
    s.nic_bw = 1e9;
    s.ram_bytes = ram_bytes;
    return s;
  }
  sim::Simulation sim;
  res::FlowNetwork net;
  cluster::Cluster cluster;
  MapOutputStore store;
};

MapOutput make_output(cluster::NodeId node, std::uint64_t layout = 0) {
  MapOutput out;
  out.node = node;
  out.input_layout_version = layout;
  out.total_bytes = 1000.0;
  return out;
}

TEST(MapOutputStore, PutFindDrop) {
  StoreFixture f;
  const MapOutputKey key{1, 2, 3};
  EXPECT_FALSE(f.store.contains(key));
  f.store.put(key, make_output(0));
  ASSERT_TRUE(f.store.contains(key));
  EXPECT_EQ(f.store.find(key)->node, 0u);
  f.store.drop(key);
  EXPECT_FALSE(f.store.contains(key));
}

TEST(MapOutputStore, UsableRequiresAliveNodeAndLayout) {
  StoreFixture f;
  const MapOutputKey key{1, 0, 0};
  f.store.put(key, make_output(2, 5));
  EXPECT_TRUE(f.store.usable(key, 5, f.cluster));
  EXPECT_FALSE(f.store.usable(key, 6, f.cluster));  // layout changed
  f.cluster.kill(2);
  EXPECT_FALSE(f.store.usable(key, 5, f.cluster));  // node dead
}

TEST(MapOutputStore, NodeFailureMarksLost) {
  StoreFixture f;
  f.store.put({1, 0, 0}, make_output(1));
  f.store.put({1, 0, 1}, make_output(2));
  f.store.on_node_failure(1);
  EXPECT_TRUE(f.store.find({1, 0, 0})->lost);
  EXPECT_FALSE(f.store.find({1, 0, 1})->lost);
  EXPECT_FALSE(f.store.usable({1, 0, 0}, 0, f.cluster));
}

TEST(MapOutputStore, DropJobRemovesAllItsOutputs) {
  StoreFixture f;
  f.store.put({1, 0, 0}, make_output(0));
  f.store.put({1, 5, 2}, make_output(1));
  f.store.put({2, 0, 0}, make_output(2));
  f.store.drop_job(1);
  EXPECT_EQ(f.store.size(), 1u);
  EXPECT_TRUE(f.store.contains({2, 0, 0}));
}

TEST(MapOutputStore, UsedSpaceSkipsLost) {
  StoreFixture f;
  f.store.put({1, 0, 0}, make_output(1));
  f.store.put({1, 0, 1}, make_output(2));
  EXPECT_EQ(f.store.total_used(), 2000u);
  EXPECT_EQ(f.store.used_on_node(1), 1000u);
  f.store.on_node_failure(1);
  EXPECT_EQ(f.store.total_used(), 1000u);
  EXPECT_EQ(f.store.used_on_node(1), 0u);
}

// The engine keeps find() pointers for as long as erasures() holds
// still, so every erase must move the count and nothing else may.
TEST(MapOutputStore, ErasuresCountEveryEraseAndNothingElse) {
  StoreFixture f(/*ram_bytes=*/1500);
  f.store.attach_ram(&f.cluster, 1);
  f.store.put({1, 0, 0}, make_output(0));  // new key
  f.store.put({1, 0, 0}, make_output(1));  // replacement
  f.store.put({1, 0, 1}, make_output(2));
  f.store.mark_lost({1, 0, 1});
  f.store.on_node_failure(1);
  EXPECT_TRUE(f.store.find({1, 0, 0})->lost);
  MapOutput mem = make_output(3);
  mem.tier = cluster::StorageTier::kMemory;
  f.store.put({2, 0, 0}, mem);
  f.store.put({2, 0, 1}, mem);  // RAM full: spills {2, 0, 0} to disk
  EXPECT_EQ(f.store.find({2, 0, 0})->tier, cluster::StorageTier::kDisk);
  EXPECT_EQ(f.store.find({2, 0, 1})->tier, cluster::StorageTier::kMemory);
  f.store.on_compute_failure(3);
  EXPECT_TRUE(f.store.find({2, 0, 1})->lost);
  EXPECT_EQ(f.store.erasures(), 0u);

  f.store.drop({1, 0, 0});
  EXPECT_EQ(f.store.erasures(), 1u);
  f.store.drop({1, 0, 0});  // already gone: nothing erased
  EXPECT_EQ(f.store.erasures(), 1u);
  f.store.drop_job(2);  // two outputs
  EXPECT_EQ(f.store.erasures(), 3u);
  f.store.put({3, 0, 0}, make_output(0));
  f.store.put({3, 0, 1}, make_output(0));
  EXPECT_EQ(f.store.evict_upto(3, 1), 1000u);  // one output
  EXPECT_EQ(f.store.erasures(), 4u);
}

TEST(MapOutputStore, FindPointerSurvivesRehashAndReplacement) {
  StoreFixture f;
  const MapOutputKey key{1, 0, 0};
  f.store.put(key, make_output(0));
  const MapOutput* held = f.store.find(key);
  // Thousands of other keys grow the table through several rehashes.
  for (std::uint32_t i = 1; i <= 4096; ++i) {
    f.store.put({1, 1, i}, make_output(i % 4));
  }
  EXPECT_EQ(f.store.find(key), held);
  EXPECT_EQ(held->node, 0u);
  f.store.put(key, make_output(2));  // replaced in place
  EXPECT_EQ(f.store.find(key), held);
  EXPECT_EQ(held->node, 2u);
  EXPECT_EQ(f.store.erasures(), 0u);
}

TEST(MapOutputStore, HeldOutputBucketStateMatchesKeyedCheck) {
  // Payload buckets: 0 intact, 1 corrupt (its captured sum is of other
  // bytes), 2 and 9 without a captured sum.
  MapOutputStore store;
  MapOutput out;
  out.node = 0;
  out.total_bytes = 96.0;
  out.buckets = {{Record{1, 2}}, {Record{3, 4}}, {Record{5, 6}}};
  Checksum sum0, wrong1;
  sum0.add(Record{1, 2});
  wrong1.add(Record{3, 5});
  out.bucket_sums = {sum0, wrong1};
  const MapOutputKey key{1, 0, 0};
  store.put(key, std::move(out));
  const MapOutput& held = *store.find(key);
  const std::pair<std::uint32_t, BucketState> cases[] = {
      {0, BucketState::kIntact},
      {1, BucketState::kCorrupt},
      {2, BucketState::kMissingSum},
      {9, BucketState::kMissingSum}};
  for (const auto& [partition, want] : cases) {
    EXPECT_EQ(store.bucket_state(key, partition), want) << partition;
    EXPECT_EQ(MapOutputStore::bucket_state(held, partition), want)
        << partition;
  }
  // Virtual-size mode: the corruption marker is the whole story.
  const MapOutputKey virt_key{1, 0, 1};
  MapOutput virt = make_output(1);
  store.put(virt_key, virt);
  EXPECT_EQ(store.bucket_state(virt_key, 0), BucketState::kIntact);
  EXPECT_EQ(MapOutputStore::bucket_state(*store.find(virt_key), 0),
            BucketState::kIntact);
  virt.corrupt = true;
  store.put(virt_key, virt);
  EXPECT_EQ(store.bucket_state(virt_key, 0), BucketState::kCorrupt);
  EXPECT_EQ(MapOutputStore::bucket_state(*store.find(virt_key), 0),
            BucketState::kCorrupt);
}

// The bucket sums put() captured over a bucket of two full lane passes
// plus a one-lane tail catch the chaos engine's flip of any one record.
// Re-putting the flipped output keeps the captured sums.
TEST(MapOutputStore, BucketStateCatchesAFlipInEveryLane) {
  const std::vector<Record> recs =
      seeded_records(0xB0C4E7ULL, 2 * Md5::kLanes + 1);
  MapOutputStore store;
  const MapOutputKey key{1, 0, 0};
  MapOutput out;
  out.node = 0;
  out.total_bytes = static_cast<double>(recs.size()) * 32;
  out.buckets = {recs};
  store.put(key, out);
  ASSERT_EQ(store.bucket_state(key, 0), BucketState::kIntact);
  const MapOutput captured = *store.find(key);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    MapOutput flipped = captured;
    flipped.buckets[0][i].value ^= 0xdeadbeefULL;
    store.put(key, std::move(flipped));
    EXPECT_EQ(store.bucket_state(key, 0), BucketState::kCorrupt)
        << "record " << i;
  }
}

/// A payload output of three buckets with scalar-captured sums; bucket
/// 1, the one the packed-verification tests fetch, holds `n` records.
MapOutput payload_output(std::uint64_t seed, std::size_t n) {
  MapOutput out;
  out.node = 0;
  out.total_bytes = 64.0;
  out.buckets = {seeded_records(seed, 1), seeded_records(seed + 1, n),
                 seeded_records(seed + 2, 2)};
  for (const auto& bucket : out.buckets) {
    out.bucket_sums.push_back(checksum_of(bucket));
  }
  return out;
}

/// The packed verdicts of one fetch: bucket_states over `outs`.
std::vector<BucketState> packed_verdicts(
    const std::vector<const MapOutput*>& outs, std::uint32_t partition) {
  std::vector<MapOutputStore::PendingBucket> pending(outs.size());
  std::vector<BucketState> verdicts(outs.size(), BucketState::kIntact);
  MapOutputStore::bucket_states(outs, partition, pending, verdicts);
  return verdicts;
}

// A fetch of 0 to 2 * Md5::kLanes + 1 segments, mixing every output
// kind. Segment sizes cycle through 0 to Md5::kLanes + 1 records,
// more than a pass per cycle, so segments straddle the passes at every
// offset; each packed verdict must equal the per-output one.
TEST(MapOutputStore, PackedBucketStatesEqualPerOutputBucketState) {
  constexpr std::uint32_t kPartition = 1;
  constexpr std::size_t kLanes = Md5::kLanes;
  const std::size_t sizes[] = {2, 1, 3, kLanes - 1, 5, 2, kLanes + 1,
                               1, 4, kLanes, 6, 2, 0};
  constexpr std::size_t kMaxSegments = 2 * kLanes + 1;
  std::vector<MapOutput> pool;
  std::uint64_t seed = 0x9ACC3DULL;
  for (std::size_t i = 0; i <= kMaxSegments; ++i) {
    MapOutput out = payload_output(seed += 3, sizes[i % std::size(sizes)]);
    switch (i % 7) {
      case 1:  // the virtual-mode corruption marker
        out.corrupt = true;
        break;
      case 3:  // payload, but no sum captured for the fetched bucket
        out.bucket_sums.resize(kPartition);
        break;
      case 4:  // virtual: no buckets at all
        out.buckets.clear();
        out.bucket_sums.clear();
        break;
      case 5:  // an empty bucket with its (empty) sum
        out.buckets[kPartition].clear();
        out.bucket_sums[kPartition] = Checksum{};
        break;
      case 6:  // bytes that differ from the captured sum
        out.buckets[kPartition].push_back(Record{1, 2});
        break;
      default:  // intact
        break;
    }
    pool.push_back(std::move(out));
  }
  const std::size_t offsets[] = {0, 1, 4};
  for (std::size_t offset : offsets) {
    for (std::size_t n = 0; n <= kMaxSegments; ++n) {
      std::vector<const MapOutput*> outs;
      for (std::size_t i = 0; i < n; ++i) {
        // Every ninth segment's output vanished mid-flight.
        outs.push_back((i + offset) % 9 == 8
                           ? nullptr
                           : &pool[(i + offset) % pool.size()]);
      }
      const auto verdicts = packed_verdicts(outs, kPartition);
      for (std::size_t i = 0; i < n; ++i) {
        if (outs[i] == nullptr) continue;
        EXPECT_EQ(verdicts[i],
                  MapOutputStore::bucket_state(*outs[i], kPartition))
            << "offset " << offset << ", " << n << " segments, segment " << i;
      }
    }
  }
}

// One record flipped in each lane position of a 6-segment fetch of two
// full passes and a one-lane tail turns exactly its own segment corrupt.
TEST(MapOutputStore, PackedBucketStatesCatchAFlipInEveryLane) {
  constexpr std::uint32_t kPartition = 1;
  constexpr std::size_t kLanes = Md5::kLanes;
  const std::size_t sizes[] = {3, 1, kLanes - 3, 2, kLanes - 4, 2};
  std::vector<MapOutput> captured;
  std::uint64_t seed = 0xF11B5ULL;
  for (std::size_t n : sizes) captured.push_back(payload_output(seed += 3, n));
  std::size_t record = 0;
  for (std::size_t seg = 0; seg < captured.size(); ++seg) {
    for (std::size_t r = 0; r < sizes[seg]; ++r, ++record) {
      std::vector<MapOutput> outputs = captured;
      outputs[seg].buckets[kPartition][r].value ^= 0xdeadbeefULL;
      std::vector<const MapOutput*> outs;
      for (const MapOutput& out : outputs) outs.push_back(&out);
      const auto verdicts = packed_verdicts(outs, kPartition);
      for (std::size_t i = 0; i < outs.size(); ++i) {
        EXPECT_EQ(verdicts[i], i == seg ? BucketState::kCorrupt
                                        : BucketState::kIntact)
            << "record " << record << " (lane " << record % Md5::kLanes
            << ") flipped, segment " << i;
      }
    }
  }
  EXPECT_EQ(record, 2 * kLanes + 1);
}

/// A store whose ledgers hold: disk outputs of job 1 on nodes 1 and 2
/// (1000 B each) and one memory-tier output of job 2 on node 3.
struct LedgerFixture : StoreFixture {
  LedgerFixture() : StoreFixture(/*ram_bytes=*/1 << 20) {
    store.attach_ram(&cluster, 1);
    store.put({1, 0, 0}, make_output(1));
    store.put({1, 0, 1}, make_output(2));
    MapOutput mem = make_output(3);
    mem.tier = cluster::StorageTier::kMemory;
    store.put({2, 0, 0}, mem);
  }
};

TEST(MapOutputStore, AuditReportsDriftInEveryLedger) {
  using Ledger = MapOutputStore::Ledger;
  struct Case {
    Ledger ledger;
    std::uint32_t id;
    const char* want;
  };
  const Case cases[] = {
      {Ledger::kTotal, 0,
       "map-output ledger drifted: total ledger=2064 B, recount=2000 B"},
      {Ledger::kMemoryTotal, 0,
       "map-output memory-tier ledger drifted: total ledger=1064 B, "
       "recount=1000 B"},
      {Ledger::kJob, 1,
       "map-output ledger drifted for job 1: ledger=2064 B, "
       "recount=2000 B"},
      {Ledger::kNode, 2,
       "map-output ledger drifted for node 2: ledger=1064 B, "
       "recount=1000 B"},
      {Ledger::kNodeMemory, 3,
       "map-output ledger drifted for node (memory tier) 3: "
       "ledger=1064 B, recount=1000 B"},
  };
  for (const Case& c : cases) {
    LedgerFixture f;
    ASSERT_TRUE(f.store.audit_ledger().empty());
    f.store.debug_corrupt_ledger(c.ledger, c.id, 64);
    EXPECT_EQ(f.store.audit_ledger(), std::vector<std::string>{c.want});
  }
}

TEST(MapOutputStore, AuditReportsChargesWithNoLiveOutput) {
  // Node 50 lies beyond every live output's node, node 0 inside the
  // range but without an output; both charges are strays.
  using Ledger = MapOutputStore::Ledger;
  LedgerFixture f;
  f.store.debug_corrupt_ledger(Ledger::kNode, 50, 64);
  f.store.debug_corrupt_ledger(Ledger::kNodeMemory, 0, 32);
  const std::vector<std::string> want = {
      "map-output ledger charges node 50 64 B but no live output matches",
      "map-output ledger charges node (memory tier) 0 32 B but no live "
      "output matches",
  };
  EXPECT_EQ(f.store.audit_ledger(), want);
}

TEST(MapOutputStore, AuditReportsDriftedNodesInAscendingIdOrder) {
  using Ledger = MapOutputStore::Ledger;
  LedgerFixture f;
  f.store.debug_corrupt_ledger(Ledger::kNode, 2, 7);
  f.store.debug_corrupt_ledger(Ledger::kNode, 1, -7);
  const std::vector<std::string> want = {
      "map-output ledger drifted for node 1: ledger=993 B, recount=1000 B",
      "map-output ledger drifted for node 2: ledger=1007 B, "
      "recount=1000 B",
  };
  EXPECT_EQ(f.store.audit_ledger(), want);
}

// Each output is charged std::llround(total_bytes): halves round away
// from zero, and sizes past 2^52 (no fractional part) stay exact.
TEST(MapOutputStore, ChargesAreLlroundOfTotalBytes) {
  std::vector<double> sizes = {
      0.25, 0.5, 0.49999999999999994, 1.0, 1.5, 2.5, 1000.6, 2000.4,
      3000.5, 4503599627370495.5, 4503599627370497.0, 9007199254740994.0,
      1e18};
  Rng rng(0x11A0DULL);
  for (int i = 0; i < 2000; ++i) {
    const double unit = static_cast<double>(rng() >> 11) * 0x1p-53;
    sizes.push_back(std::ldexp(unit, static_cast<int>(rng.below(62))));
  }
  MapOutputStore store;
  for (double x : sizes) {
    MapOutput out;
    out.node = 0;
    out.total_bytes = x;
    store.put({1, 0, 0}, out);
    ASSERT_EQ(store.total_used(), static_cast<Bytes>(std::llround(x)))
        << std::hexfloat << x;
  }
}

MapOutput sized_output(cluster::NodeId node, double bytes) {
  MapOutput out = make_output(node);
  out.total_bytes = bytes;
  return out;
}

// Two stores with the same live outputs, reached through different
// histories (insertion order, erased holes, reused slots), must agree
// on every ledger, every audit and every seeded victim choice.
TEST(MapOutputStore, SlotLayoutLeaksIntoNothing) {
  std::vector<std::pair<MapOutputKey, MapOutput>> live;
  for (std::uint32_t i = 0; i < 40; ++i) {
    live.push_back({{1 + i % 2, i / 2, i % 3}, sized_output(i % 4, 1000 + i)});
  }
  StoreFixture a;
  for (const auto& [key, out] : live) a.store.put(key, out);

  StoreFixture b;
  // Junk of job 9 fills early slots, then half the live outputs go in
  // in reverse order with one junk output per live one between them.
  for (std::uint32_t i = 0; i < 16; ++i) {
    b.store.put({9, i, 0}, sized_output(i % 4, 500));
  }
  for (std::size_t i = live.size(); i-- > live.size() / 2;) {
    b.store.put(live[i].first, live[i].second);
    b.store.put({3, static_cast<std::uint32_t>(i), 7}, sized_output(0, 10));
  }
  // Holes from every erase site, refilled by the other half.
  for (std::uint32_t i = 0; i < live.size(); i += 2) {
    b.store.drop({3, i, 7});
  }
  EXPECT_GT(b.store.evict_upto(3, ~Bytes{0}), 0u);
  b.store.drop_job(9);
  for (std::size_t i = live.size() / 2; i-- > 0;) {
    b.store.put(live[i].first, live[i].second);
  }

  ASSERT_EQ(a.store.size(), b.store.size());
  EXPECT_TRUE(a.store.audit_ledger().empty());
  EXPECT_TRUE(b.store.audit_ledger().empty());
  EXPECT_EQ(a.store.total_used(), b.store.total_used());
  for (cluster::NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(a.store.used_on_node(n), b.store.used_on_node(n)) << n;
  }
  for (std::uint32_t j = 0; j < 10; ++j) {
    EXPECT_EQ(a.store.used_for_job(j), b.store.used_for_job(j)) << j;
  }

  Rng rng_a(0xC0FFEEULL), rng_b(0xC0FFEEULL);
  ASSERT_TRUE(a.store.corrupt_one(rng_a));
  ASSERT_TRUE(b.store.corrupt_one(rng_b));
  EXPECT_EQ(a.store.evict_upto(1, 3000), b.store.evict_upto(1, 3000));
  std::size_t evicted = 0;
  for (const auto& [key, out] : live) {
    const MapOutput* in_a = a.store.find(key);
    const MapOutput* in_b = b.store.find(key);
    ASSERT_EQ(in_a == nullptr, in_b == nullptr) << key.packed();
    if (in_a == nullptr) {
      ++evicted;
      continue;
    }
    EXPECT_EQ(in_a->corrupt, in_b->corrupt) << key.packed();
  }
  EXPECT_EQ(evicted, 3u);
}

// A put after a drop may take the dropped output's slot. The erase
// moves erasures(), so a held pointer is re-found: the old key is gone
// and the new output reads back whole.
TEST(MapOutputStore, ReusedSlotHoldsOnlyTheNewOutput) {
  StoreFixture f;
  const MapOutputKey old_key{1, 0, 0}, new_key{2, 4, 1};
  MapOutput old_out = make_output(1);
  old_out.buckets = {seeded_records(0x01DULL, 3), seeded_records(0x01EULL, 2)};
  f.store.put(old_key, old_out);
  const std::uint64_t erasures = f.store.erasures();
  f.store.drop(old_key);
  MapOutput new_out = make_output(2, 9);
  new_out.total_bytes = 3000.0;
  new_out.buckets = {seeded_records(0x2E1ULL, 4), {}};
  f.store.put(new_key, new_out);

  EXPECT_NE(f.store.erasures(), erasures);
  EXPECT_EQ(f.store.find(old_key), nullptr);
  const MapOutput* held = f.store.find(new_key);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->node, 2u);
  EXPECT_EQ(held->input_layout_version, 9u);
  EXPECT_EQ(held->total_bytes, 3000.0);
  EXPECT_EQ(held->buckets, new_out.buckets);
  EXPECT_FALSE(held->lost);
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_EQ(MapOutputStore::bucket_state(*held, p), BucketState::kIntact);
  }
  EXPECT_EQ(f.store.used_on_node(1), 0u);
  EXPECT_EQ(f.store.used_on_node(2), 3000u);
  EXPECT_TRUE(f.store.audit_ledger().empty());
}

TEST(MapOutputKey, PackedIsInjectiveOnSmallCoords) {
  std::set<std::uint64_t> seen;
  for (std::uint32_t j = 0; j < 8; ++j)
    for (std::uint32_t p = 0; p < 8; ++p)
      for (std::uint32_t b = 0; b < 8; ++b)
        seen.insert(MapOutputKey{j, p, b}.packed());
  EXPECT_EQ(seen.size(), 8u * 8 * 8);
}

TEST(ChainUdfs, MapperEmitsOneRecordPerInput) {
  workloads::ChainMapper mapper;
  Emitter em;
  mapper.map({1, 2}, 42, em);
  EXPECT_EQ(em.records().size(), 1u);
}

TEST(ChainUdfs, MapperDeterministicPerJobSalt) {
  workloads::ChainMapper mapper;
  Emitter a, b, c;
  mapper.map({1, 2}, 42, a);
  mapper.map({1, 2}, 42, b);
  mapper.map({1, 2}, 43, c);
  EXPECT_EQ(a.records(), b.records());
  EXPECT_NE(a.records()[0].key, c.records()[0].key);  // randomized key
}

TEST(ChainUdfs, MapperRandomizesKeysForBalance) {
  workloads::ChainMapper mapper;
  std::vector<int> counts(8, 0);
  Emitter em;
  for (std::uint64_t i = 0; i < 8000; ++i) {
    em.records().clear();
    mapper.map({i, i * 3 + 1}, 42, em);
    ++counts[partition_of(em.records()[0].key, 8)];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 200);
}

TEST(ChainUdfs, ReducerPreservesRecordCount) {
  workloads::ChainReducer reducer;
  Emitter em;
  const std::vector<std::uint64_t> values{10, 20, 30};
  reducer.reduce(7, values, 42, em);
  EXPECT_EQ(em.records().size(), 3u);
  for (const auto& r : em.records()) EXPECT_EQ(r.key, 7u);
}

TEST(ChainUdfs, MapAllEqualsLoopOfMap) {
  const workloads::ChainMapper mapper;
  const std::vector<Record> recs = seeded_records(0x3A9ULL, 37);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 17u, 37u}) {
    const std::span<const Record> in(recs.data(), n);
    Emitter loop, batch;
    for (const Record& r : in) mapper.map(r, 42, loop);
    mapper.map_all(in, 42, batch);
    EXPECT_EQ(batch.records(), loop.records()) << "n=" << n;
  }
}

/// Records sorted by (key, value) in groups of `sizes` values per key.
std::vector<Record> sorted_groups(std::initializer_list<std::size_t> sizes) {
  Rng rng(0x6E0ULL);
  std::vector<Record> recs;
  std::uint64_t key = 0;
  for (std::size_t size : sizes) {
    key += 1 + rng.below(1000);
    for (std::size_t v = 0; v < size; ++v) recs.push_back({key, rng()});
  }
  std::sort(recs.begin(), recs.end());
  return recs;
}

/// One reduce() call per run of equal keys — the reference grouping.
void reduce_per_group(const ReduceUdf& reducer, std::span<const Record> sorted,
                      std::uint64_t salt, Emitter& out) {
  for (std::size_t i = 0; i < sorted.size();) {
    std::vector<std::uint64_t> values;
    const std::uint64_t key = sorted[i].key;
    for (; i < sorted.size() && sorted[i].key == key; ++i)
      values.push_back(sorted[i].value);
    reducer.reduce(key, values, salt, out);
  }
}

TEST(ChainUdfs, ReduceAllEqualsPerGroupReduce) {
  const workloads::ChainReducer reducer;
  const std::vector<Record> sorted = sorted_groups({1, 3, 9, 1, 17, 2, 8});
  Emitter per_group, batch;
  reduce_per_group(reducer, sorted, 42, per_group);
  reducer.reduce_all(sorted, 42, batch);
  ASSERT_EQ(batch.records().size(), sorted.size());
  EXPECT_EQ(batch.records(), per_group.records());
}

/// Emits (key, number of values) per reduce() call: shows the grouping.
class GroupSizeReducer final : public ReduceUdf {
 public:
  void reduce(std::uint64_t key, std::span<const std::uint64_t> values,
              std::uint64_t, Emitter& out) const override {
    out.emit(key, values.size());
  }
};

TEST(ChainUdfs, BaseBatchBodiesEqualPerRecordPath) {
  const std::vector<Record> sorted = sorted_groups({2, 1, 9, 3, 1});
  const workloads::IdentityMapper mapper;
  Emitter loop, batch;
  for (const Record& r : sorted) mapper.map(r, 0, loop);
  mapper.map_all(sorted, 0, batch);
  EXPECT_EQ(batch.records(), loop.records());
  EXPECT_EQ(batch.records(), sorted);

  const workloads::IdentityReducer identity;
  Emitter per_group, all;
  reduce_per_group(identity, sorted, 0, per_group);
  identity.reduce_all(sorted, 0, all);
  EXPECT_EQ(all.records(), per_group.records());
  EXPECT_EQ(all.records(), sorted);

  // One call per key run, with every value of the run.
  Emitter groups;
  GroupSizeReducer().reduce_all(sorted, 0, groups);
  std::vector<std::uint64_t> sizes;
  for (const Record& r : groups.records()) sizes.push_back(r.value);
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{2, 1, 9, 3, 1}));
}

TEST(ChainUdfs, IdentityUdfsRoundTrip) {
  workloads::IdentityMapper m;
  workloads::IdentityReducer r;
  Emitter em;
  m.map({5, 6}, 0, em);
  ASSERT_EQ(em.records().size(), 1u);
  EXPECT_EQ(em.records()[0], (Record{5, 6}));
  Emitter er;
  const std::vector<std::uint64_t> vals{6};
  r.reduce(5, vals, 0, er);
  EXPECT_EQ(er.records()[0], (Record{5, 6}));
}

}  // namespace
}  // namespace rcmp::mapred
