// Unit tests for src/common: units, RNG, hashing, MD5, stats, tables.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "common/hash.hpp"
#include "common/md5.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace rcmp {
namespace {

using namespace rcmp::literals;

TEST(Units, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(4_GiB, 4ull * 1024 * 1024 * 1024);
  EXPECT_EQ(2_TiB, 2ull * 1024 * 1024 * 1024 * 1024);
}

TEST(Units, RateLiterals) {
  EXPECT_DOUBLE_EQ(100_MBps, 100e6);
  EXPECT_DOUBLE_EQ(1_GBps, 1e9);
  EXPECT_DOUBLE_EQ(10_Gbps, 10e9 / 8.0);
  EXPECT_DOUBLE_EQ(100_Mbps, 100e6 / 8.0);
}

TEST(Units, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(10, 0), 0u);  // guarded
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, BelowAndRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng r(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, ForkSeedIndependence) {
  Rng parent(77);
  Rng a(parent.fork_seed()), b(parent.fork_seed());
  EXPECT_NE(a(), b());
}

TEST(Hash, Mix64AvalancheAndDeterminism) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // single-bit flips should produce wildly different outputs
  const std::uint64_t a = mix64(0x1000);
  const std::uint64_t b = mix64(0x1001);
  EXPECT_GT(__builtin_popcountll(a ^ b), 10);
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Hash, Fnv1aKnownValue) {
  // FNV-1a 64-bit of empty input is the offset basis.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(std::string_view("a")), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, PartitionOfInRangeAndSaltSensitive) {
  std::set<std::uint32_t> seen;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const auto p = partition_of(k, 10);
    EXPECT_LT(p, 10u);
    seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
  // Different salts give different partitionings (the Fig. 5 hazard).
  int moved = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    moved += partition_of(k, 10, 1) != partition_of(k, 10, 2);
  }
  EXPECT_GT(moved, 50);
}

TEST(Hash, PartitionBalance) {
  std::vector<int> counts(8, 0);
  for (std::uint64_t k = 0; k < 80000; ++k)
    ++counts[partition_of(mix64(k), 8)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

// RFC 1321 test vectors.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(Md5::to_hex(Md5::hash("")),
            "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::to_hex(Md5::hash("a")),
            "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::to_hex(Md5::hash("abc")),
            "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::to_hex(Md5::hash("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::to_hex(Md5::hash("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(Md5::to_hex(Md5::hash(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                "0123456789")),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(
      Md5::to_hex(Md5::hash("1234567890123456789012345678901234567890"
                            "1234567890123456789012345678901234567890")),
      "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string data(1000, 'x');
  Md5 h;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    h.update(data.substr(i, 7));
  }
  EXPECT_EQ(h.finalize(), Md5::hash(data));
}

TEST(Md5, CrossesBlockBoundaries) {
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    const std::string data(len, 'q');
    Md5 h;
    h.update(data.substr(0, len / 2));
    h.update(data.substr(len / 2));
    EXPECT_EQ(h.finalize(), Md5::hash(data)) << "len=" << len;
  }
}

TEST(Md5, Hash64StableAndDistinct) {
  EXPECT_EQ(Md5::hash64("hello"), Md5::hash64("hello"));
  EXPECT_NE(Md5::hash64("hello"), Md5::hash64("hellp"));
}

// Lengths on both sides of the 56-byte length-field boundary of one and
// two blocks. Byte i of each message is 'a' + i % 26; expected values
// from
//   python3 -c 'import hashlib; n = 55; print(hashlib.md5(
//       "".join(chr(97 + i % 26) for i in range(n)).encode()).hexdigest())'
TEST(Md5, PaddingEdgeDigests) {
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "0d7ae056b2f015cd7dc67494efd658f1"},
      {56, "31fcfb5165169eb55898e7e4cf34d19a"},
      {57, "fd62afaf3aa1e2a52882cb464f5ccc4d"},
      {63, "1b30c0670c15e7da3c2ba7bce77ebe99"},
      {64, "a2eaf6295c32adc403865fd96a2f182b"},
      {65, "eba2cce0ca8df47e62414a736b3105a2"},
      {119, "b05187e08da41fa3ef16bd56afaafd99"},
      {120, "62af9b597a9f55e16ab2b897387fc052"},
      {128, "3e8c1ccbd71838ef3df4b72e57fb9bf6"},
  };
  for (const auto& [len, hex] : cases) {
    std::string msg;
    for (std::size_t i = 0; i < len; ++i)
      msg.push_back(static_cast<char>('a' + i % 26));
    EXPECT_EQ(Md5::to_hex(Md5::hash(msg)), hex) << "len=" << len;
  }
}

// Every lane of the Md5::kLanes-message entry equals the one-message
// hash64: all-zero and all-0xff messages in every lane, the two
// alternating across lanes, then seeded random messages.
TEST(Md5, LanesEqualOneMessageHash64) {
  Rng rng(0x1A4E5ULL);
  for (int round = 0; round < 64; ++round) {
    std::uint8_t msgs[Md5::kLanes][64];
    for (std::size_t l = 0; l < Md5::kLanes; ++l) {
      for (std::uint8_t& b : msgs[l]) {
        switch (round) {
          case 0: b = 0x00; break;
          case 1: b = 0xff; break;
          case 2: b = l % 2 == 0 ? 0x00 : 0xff; break;
          default: b = static_cast<std::uint8_t>(rng());
        }
      }
    }
    std::uint32_t words[16][Md5::kLanes];
    for (std::size_t l = 0; l < Md5::kLanes; ++l) {
      for (std::size_t i = 0; i < 16; ++i) {
        const std::uint8_t* p = msgs[l] + 4 * i;
        words[i][l] = static_cast<std::uint32_t>(p[0]) |
                      (static_cast<std::uint32_t>(p[1]) << 8) |
                      (static_cast<std::uint32_t>(p[2]) << 16) |
                      (static_cast<std::uint32_t>(p[3]) << 24);
      }
    }
    std::uint64_t out[Md5::kLanes];
    Md5::hash64_lanes(words, out);
    for (std::size_t l = 0; l < Md5::kLanes; ++l) {
      ASSERT_EQ(out[l], Md5::hash64(msgs[l], 64))
          << "round " << round << " lane " << l;
    }
  }
}

TEST(Md5, Hash64IsLittleEndianDigestPrefix) {
  auto prefix64 = [](const Md5::Digest& d) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
      v = (v << 8) | d[static_cast<std::size_t>(i)];
    return v;
  };
  Rng rng(0x64B1'0C4ULL);
  for (int n = 0; n < 10000; ++n) {
    std::uint8_t payload[64];
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    const std::uint64_t h = Md5::hash64(payload, sizeof(payload));
    ASSERT_EQ(h, prefix64(Md5::hash(payload, sizeof(payload)))) << n;
    Md5 split;
    const std::size_t cut = rng.below(sizeof(payload) + 1);
    split.update(payload, cut);
    split.update(payload + cut, sizeof(payload) - cut);
    ASSERT_EQ(h, prefix64(split.finalize())) << n << " cut=" << cut;
  }
}

TEST(Stats, MeanMinMax) {
  Samples s;
  s.add_all({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Stats, SingleSample) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, Stddev) {
  Samples s;
  s.add_all({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
}

TEST(Stats, CdfMonotone) {
  Samples s;
  s.add_all({5.0, 1.0, 3.0, 3.0, 8.0});
  const auto cdf = s.cdf();
  ASSERT_EQ(cdf.size(), 5u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second + 1e-12);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Stats, CdfAtThresholds) {
  Samples s;
  s.add_all({1.0, 2.0, 3.0, 4.0});
  const auto c = s.cdf_at({0.0, 1.0, 2.5, 10.0});
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 0.25);
  EXPECT_DOUBLE_EQ(c[2], 0.5);
  EXPECT_DOUBLE_EQ(c[3], 1.0);
}

TEST(Stats, AddAfterQueryResorts) {
  Samples s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  t.add_row({"1"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| a  | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| xx | y    |"), std::string::npos);
  EXPECT_NE(out.find("| 1  |      |"), std::string::npos);
}

TEST(Table, NumPrecision) {
  EXPECT_EQ(Table::num(1.23456), "1.23");
  EXPECT_EQ(Table::num(1.23456, 0), "1");
  EXPECT_EQ(Table::num(1.23456, 4), "1.2346");
}

}  // namespace
}  // namespace rcmp
