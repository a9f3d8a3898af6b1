#include "mapred/record.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/error.hpp"

namespace rcmp::mapred {
namespace {

constexpr std::size_t kLanes = Md5::kLanes;
// One record per lane: its splitmix64 state or words, or their halves.
using Lanes64 = std::uint64_t __attribute__((vector_size(8 * kLanes)));
using Lanes32 = std::uint32_t __attribute__((vector_size(4 * kLanes)));

/// Checks of the (at most kLanes) records of `pass`, one record per
/// lane, all lanes expanded at once. expand_payload writes each
/// splitmix64 word little-endian, so the two 32-bit halves of word i
/// are MD5 message words 2i and 2i+1, and the byte sum is the sum of
/// the words' bytes in any order. Lanes past pass.size() expand and
/// hash a zero value; their results are dropped. Inlined into one
/// function per lane level so that it is compiled for that level's
/// instruction set.
[[gnu::always_inline]] inline void check_pass(std::span<const Record> pass,
                                              RecordChecks* out) {
  constexpr std::uint64_t kEvenBytes = 0x00ff00ff00ff00ffULL;
  std::uint64_t values[kLanes] = {};
  for (std::size_t l = 0; l < pass.size(); ++l) values[l] = pass[l].value;
  Lanes64 s;
  std::memcpy(&s, values, sizeof(s));
  std::uint32_t words[16][kLanes];
  // Four 16-bit fields of byte-pair sums per lane; 8 words x 2 bytes x
  // 255 cannot carry out of a field.
  Lanes64 pairs = {};
  for (int i = 0; i < 8; ++i) {
    Lanes64 w;
    splitmix64_step(s, w);
    const Lanes32 lo = __builtin_convertvector(w, Lanes32);
    const Lanes32 hi = __builtin_convertvector(w >> 32, Lanes32);
    std::memcpy(words[2 * i], &lo, sizeof(lo));
    std::memcpy(words[2 * i + 1], &hi, sizeof(hi));
    pairs += (w & kEvenBytes) + ((w >> 8) & kEvenBytes);
  }
  // The multiply adds the four fields into the top one.
  const Lanes64 sums = (pairs * 0x0001000100010001ULL) >> 48;
  std::uint64_t md5[kLanes] = {};
  Md5::hash64_lanes(words, md5);
  for (std::size_t l = 0; l < pass.size(); ++l) out[l] = {md5[l], sums[l]};
}

#if RCMP_X86_LANE_LEVELS
[[gnu::target("avx512f")]] void check_pass_avx512f(
    std::span<const Record> pass, RecordChecks* out) {
  check_pass(pass, out);
}
[[gnu::target("avx2")]] void check_pass_avx2(std::span<const Record> pass,
                                             RecordChecks* out) {
  check_pass(pass, out);
}
#endif
void check_pass_default(std::span<const Record> pass, RecordChecks* out) {
  check_pass(pass, out);
}

/// check_pass per lane level, in Md5::lane_levels() order.
using CheckPassFn = void (*)(std::span<const Record>, RecordChecks*);
constexpr CheckPassFn kCheckPassAt[] = {
#if RCMP_X86_LANE_LEVELS
    check_pass_avx512f, check_pass_avx2,
#endif
    check_pass_default};

CheckPassFn check_pass_at(std::size_t level) {
  RCMP_CHECK(level < std::size(kCheckPassAt));
  return kCheckPassAt[level];
}

/// record_checks(records, out) through `check`.
void run_passes(CheckPassFn check, std::span<const Record> records,
                RecordChecks* out) {
  for (std::size_t i = 0; i < records.size(); i += kLanes) {
    check(records.subspan(i, std::min(kLanes, records.size() - i)), out + i);
  }
}

/// Checksum::add of one checked record, minus the count.
void fold(Checksum& c, const RecordChecks& checks, const Record& r) {
  c.md5_acc += checks.md5;
  c.sum_acc += checks.byte_sum;
  c.key_acc += mix64(r.key);
}

}  // namespace

void record_checks(std::span<const Record> records, RecordChecks* out) {
  run_passes(check_pass_at(Md5::lane_level()), records, out);
}

void record_checks_at(std::size_t level, std::span<const Record> records,
                      RecordChecks* out) {
  const CheckPassFn check = check_pass_at(level);
  RCMP_CHECK(Md5::lane_levels()[level].cpu_runs());
  run_passes(check, records, out);
}

void Checksum::add(std::span<const Record> records) {
  const CheckPassFn check = check_pass_at(Md5::lane_level());
  RecordChecks checks[kLanes];
  for (std::size_t i = 0; i < records.size(); i += kLanes) {
    const auto pass =
        records.subspan(i, std::min(kLanes, records.size() - i));
    check(pass, checks);
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
  check_pass_at(Md5::lane_level())({pass_, filled_}, checks);
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
