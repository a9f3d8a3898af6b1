// Records, UDF interfaces and verification checksums for the functional
// (payload-backed) execution mode.
//
// The simulator always tracks *logical* byte volumes; when a dataset is
// payload-backed, tasks additionally execute real user-defined functions
// over real records. This is how the reproduction demonstrates that
// RCMP's recomputation is *correct*, not just fast: after any failure
// schedule, the final output must contain exactly the same key multiset
// and checksum aggregate as a failure-free run (the paper's per-record
// MD5 and byte-sum checks serve the same purpose).
//
// Records are (u64 key, u64 value); the value deterministically expands
// to a synthetic payload for MD5 purposes, keeping memory proportional
// to record count rather than data volume.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/md5.hpp"
#include "common/rng.hpp"

namespace rcmp::mapred {

struct Record {
  std::uint64_t key = 0;
  std::uint64_t value = 0;

  /// (key, value) order: the sort-merge order reducers consume.
  auto operator<=>(const Record&) const = default;
};

/// Expand a record's value into its synthetic payload bytes. Every
/// consumer (MD5 check, byte-sum check) sees the same expansion: eight
/// splitmix64 words, each written little-endian.
inline void expand_payload(std::uint64_t value, std::uint8_t out[64]) {
  std::uint64_t s = value;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t w = splitmix64(s);
    for (int b = 0; b < 8; ++b)
      out[i * 8 + b] = static_cast<std::uint8_t>(w >> (8 * b));
  }
}

/// The paper's two per-record correctness checks (§V-A).
struct RecordChecks {
  std::uint64_t md5 = 0;       // first 8 bytes of MD5(payload)
  std::uint64_t byte_sum = 0;  // sum of all payload bytes
};

/// Both checks over one expansion of the record's payload. This is the
/// scalar reference form: the per-record UDF methods and the eager
/// oracles use it, so every differential test compares the batch form
/// below against it.
inline RecordChecks record_checks(const Record& r) {
  std::uint8_t payload[64];
  expand_payload(r.value, payload);
  std::uint64_t sum = 0;
  for (std::uint8_t b : payload) sum += b;
  return {Md5::hash64(payload, sizeof(payload)), sum};
}

/// The same checks for every record of `records`, written to
/// out[0..records.size()), Md5::kLanes records per MD5 pass at
/// Md5::lane_level(). Equal to record_checks(records[i]) for every i.
void record_checks(std::span<const Record> records, RecordChecks* out);
/// The same at lane level `level` (Md5::lane_levels()), which this CPU
/// must run: lets tests check every compiled form.
void record_checks_at(std::size_t level, std::span<const Record> records,
                      RecordChecks* out);

/// Order-independent aggregate over a record multiset. Two datasets have
/// equal Checksum iff (with overwhelming probability) they hold the same
/// records with the same multiplicities — the property RCMP must
/// preserve across recomputations (paper Fig. 5: keys must neither
/// disappear nor appear twice).
struct Checksum {
  std::uint64_t md5_acc = 0;   // sum of per-record MD5 checks
  std::uint64_t sum_acc = 0;   // sum of per-record byte sums
  std::uint64_t key_acc = 0;   // sum of mix64(key) — detects key changes
  std::uint64_t count = 0;

  void add(const Record& r) {
    const RecordChecks c = record_checks(r);
    md5_acc += c.md5;
    sum_acc += c.byte_sum;
    key_acc += mix64(r.key);
    ++count;
  }
  /// add() of every record, through the batch checks.
  void add(std::span<const Record> records);
  void merge(const Checksum& o) {
    md5_acc += o.md5_acc;
    sum_acc += o.sum_acc;
    key_acc += o.key_acc;
    count += o.count;
  }
  bool operator==(const Checksum&) const = default;
};

Checksum checksum_of(std::span<const Record> records);

/// Checksums of many record runs in one series of Md5::kLanes-record
/// passes that run across run boundaries, each lane folded into its own
/// run's sum. A map output's buckets and a shuffle fetch's segments
/// often hold only a few records each, so a pass per run would leave
/// most lanes idle. Exact, because every Checksum field is a modular
/// sum. Allocates nothing.
class PackedChecksums {
 public:
  /// Add every record of `records` to `sum`, count included. `sum` must
  /// stay in place until finish().
  void add(Checksum& sum, std::span<const Record> records);
  /// Run the last, part-filled pass: every sum is complete after it.
  void finish();

 private:
  void run_pass();

  Record pass_[Md5::kLanes];
  Checksum* sum_of_[Md5::kLanes];  // the sum each lane's record folds into
  std::size_t filled_ = 0;
};

/// checksum_of(buckets[b]) for every bucket b, through PackedChecksums.
std::vector<Checksum> bucket_checksums(
    std::span<const std::vector<Record>> buckets);

/// Collects a UDF's emitted records.
class Emitter {
 public:
  void emit(std::uint64_t key, std::uint64_t value) {
    out_.push_back(Record{key, value});
  }
  void emit(const Record& r) { out_.push_back(r); }
  std::vector<Record>& records() { return out_; }
  const std::vector<Record>& records() const { return out_; }

 private:
  std::vector<Record> out_;
};

/// Map UDF. `job_salt` identifies the logical job so that per-record
/// "randomization" (as in the paper's workload) is deterministic across
/// recomputations: a recomputed mapper must reproduce its initial output
/// bit-for-bit, or persisted downstream state would be inconsistent.
class MapUdf {
 public:
  virtual ~MapUdf() = default;
  virtual void map(const Record& in, std::uint64_t job_salt,
                   Emitter& out) const = 0;
  /// map() of every input record in order — the engine maps a whole
  /// block per call. Overrides must emit exactly what the loop does.
  virtual void map_all(std::span<const Record> in, std::uint64_t job_salt,
                       Emitter& out) const;
};

/// Reduce UDF: one key with all its values (the engine guarantees all
/// values of a key reach exactly one reduce call, including under
/// reducer splitting — each split owns whole keys, §IV-B1).
class ReduceUdf {
 public:
  virtual ~ReduceUdf() = default;
  virtual void reduce(std::uint64_t key,
                      std::span<const std::uint64_t> values,
                      std::uint64_t job_salt, Emitter& out) const = 0;
  /// Sort-merge over records sorted by (key, value): one reduce() call
  /// per run of equal keys, in order. Overrides must emit exactly what
  /// those calls do.
  virtual void reduce_all(std::span<const Record> sorted,
                          std::uint64_t job_salt, Emitter& out) const;
};

}  // namespace rcmp::mapred
