#include "mapred/record.hpp"

#include <algorithm>

namespace rcmp::mapred {
namespace {

constexpr std::size_t kLanes = Md5::kLanes;
using LaneWords = std::uint32_t[16][kLanes];

/// Checks of the (at most kLanes) records of `pass`, one record per
/// lane. expand_payload writes each splitmix64 word little-endian, so
/// the two 32-bit halves of word i are MD5 message words 2i and 2i+1,
/// and the byte sum is the sum of the words' bytes in any order. Lanes
/// past pass.size() hash whatever `words` still holds; their results
/// are dropped.
void check_pass(std::span<const Record> pass, LaneWords& words,
                RecordChecks* out) {
  constexpr std::uint64_t kEvenBytes = 0x00ff00ff00ff00ffULL;
  std::uint64_t sums[kLanes] = {};
  for (std::size_t l = 0; l < pass.size(); ++l) {
    std::uint64_t s = pass[l].value;
    // Four 16-bit fields of byte-pair sums; 8 words x 2 bytes x 255
    // cannot carry out of a field.
    std::uint64_t pairs = 0;
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t w = splitmix64(s);
      words[2 * i][l] = static_cast<std::uint32_t>(w);
      words[2 * i + 1][l] = static_cast<std::uint32_t>(w >> 32);
      pairs += (w & kEvenBytes) + ((w >> 8) & kEvenBytes);
    }
    // The multiply adds the four fields into the top one.
    sums[l] = (pairs * 0x0001000100010001ULL) >> 48;
  }
  std::uint64_t md5[kLanes] = {};
  Md5::hash64_lanes(words, md5);
  for (std::size_t l = 0; l < pass.size(); ++l) out[l] = {md5[l], sums[l]};
}

/// Checksum::add of one checked record, minus the count.
void fold(Checksum& c, const RecordChecks& checks, const Record& r) {
  c.md5_acc += checks.md5;
  c.sum_acc += checks.byte_sum;
  c.key_acc += mix64(r.key);
}

}  // namespace

void record_checks(std::span<const Record> records, RecordChecks* out) {
  LaneWords words = {};
  for (std::size_t i = 0; i < records.size(); i += kLanes) {
    check_pass(records.subspan(i, std::min(kLanes, records.size() - i)),
               words, out + i);
  }
}

void Checksum::add(std::span<const Record> records) {
  LaneWords words = {};
  RecordChecks checks[kLanes];
  for (std::size_t i = 0; i < records.size(); i += kLanes) {
    const auto pass =
        records.subspan(i, std::min(kLanes, records.size() - i));
    check_pass(pass, words, checks);
    for (std::size_t l = 0; l < pass.size(); ++l) {
      fold(*this, checks[l], pass[l]);
    }
  }
  count += records.size();
}

Checksum checksum_of(std::span<const Record> records) {
  Checksum c;
  c.add(records);
  return c;
}

void PackedChecksums::add(Checksum& sum, std::span<const Record> records) {
  for (const Record& r : records) {
    pass_[filled_] = r;
    sum_of_[filled_] = &sum;
    if (++filled_ == kLanes) run_pass();
  }
  sum.count += records.size();
}

void PackedChecksums::finish() {
  if (filled_ > 0) run_pass();
}

void PackedChecksums::run_pass() {
  RecordChecks checks[kLanes];
  check_pass({pass_, filled_}, words_, checks);
  for (std::size_t l = 0; l < filled_; ++l) {
    fold(*sum_of_[l], checks[l], pass_[l]);
  }
  filled_ = 0;
}

std::vector<Checksum> bucket_checksums(
    std::span<const std::vector<Record>> buckets) {
  std::vector<Checksum> sums(buckets.size());
  PackedChecksums packed;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    packed.add(sums[b], buckets[b]);
  }
  packed.finish();
  return sums;
}

void MapUdf::map_all(std::span<const Record> in, std::uint64_t job_salt,
                     Emitter& out) const {
  for (const Record& r : in) map(r, job_salt, out);
}

void ReduceUdf::reduce_all(std::span<const Record> sorted,
                           std::uint64_t job_salt, Emitter& out) const {
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < sorted.size();) {
    const std::uint64_t key = sorted[i].key;
    values.clear();
    for (; i < sorted.size() && sorted[i].key == key; ++i)
      values.push_back(sorted[i].value);
    reduce(key, values, job_salt, out);
  }
}

}  // namespace rcmp::mapred
