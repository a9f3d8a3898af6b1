// The paper's evaluation workload (§V-A):
//
//   "We built a custom 7-job, I/O-intensive, chain computation. Each
//    mapper and reducer, for every input record, performs two
//    computations which help us check correctness. One is based on the
//    MD5 hash of a record's value while the other is based on the sum
//    of all bytes in a record value. In addition, each mapper randomizes
//    the key of each record to ensure load balancing of data across
//    tasks for every job."
//
// Both UDFs emit exactly one record per input record, giving the paper's
// input/shuffle/output ratio of 1/1/1. Key randomization is a hash of
// (job salt, input record), so it balances load *and* is reproducible:
// a recomputed task emits byte-identical records.
#pragma once

#include <span>
#include <vector>

#include "common/hash.hpp"
#include "mapred/record.hpp"

namespace rcmp::workloads {

/// Stable identity of the ChainMapper/ChainReducer pair for the result
/// cache's structural fingerprint (core/result_cache.hpp). Any workload
/// with a different transform must use a different id; 0 means "opaque
/// UDF", which disables caching for the job.
inline constexpr std::uint64_t kChainUdfId = 0xC0DE'0001ULL;

// map() and reduce() check one record at a time through the scalar
// record_checks and stay that way: the eager oracles replay them, which
// makes every differential run a check of the batch forms below.
class ChainMapper final : public mapred::MapUdf {
 public:
  void map(const mapred::Record& in, std::uint64_t job_salt,
           mapred::Emitter& out) const override {
    // The two per-record correctness computations from the paper.
    emit(in, mapred::record_checks(in), job_salt, out);
  }
  void map_all(std::span<const mapred::Record> in, std::uint64_t job_salt,
               mapred::Emitter& out) const override {
    std::vector<mapred::RecordChecks> checks(in.size());
    mapred::record_checks(in, checks.data());
    for (std::size_t i = 0; i < in.size(); ++i)
      emit(in[i], checks[i], job_salt, out);
  }

 private:
  static void emit(const mapred::Record& in,
                   const mapred::RecordChecks& checks, std::uint64_t job_salt,
                   mapred::Emitter& out) {
    // Deterministic key randomization (per record, per job).
    const std::uint64_t new_key =
        hash_combine(job_salt, hash_combine(in.key, in.value));
    // Fold the checks into the value so they flow through the chain.
    out.emit(new_key, hash_combine(checks.md5, checks.byte_sum));
  }
};

class ChainReducer final : public mapred::ReduceUdf {
 public:
  void reduce(std::uint64_t key, std::span<const std::uint64_t> values,
              std::uint64_t job_salt, mapred::Emitter& out) const override {
    for (std::uint64_t v : values) {
      emit(key, mapred::record_checks(mapred::Record{key, v}), job_salt, out);
    }
  }
  /// Each record is reduced on its own, so the key runs need no
  /// grouping: emitting in sorted order is the per-key calls' order.
  void reduce_all(std::span<const mapred::Record> sorted,
                  std::uint64_t job_salt,
                  mapred::Emitter& out) const override {
    std::vector<mapred::RecordChecks> checks(sorted.size());
    mapred::record_checks(sorted, checks.data());
    for (std::size_t i = 0; i < sorted.size(); ++i)
      emit(sorted[i].key, checks[i], job_salt, out);
  }

 private:
  static void emit(std::uint64_t key, const mapred::RecordChecks& checks,
                   std::uint64_t job_salt, mapred::Emitter& out) {
    out.emit(key, hash_combine(job_salt ^ checks.md5, checks.byte_sum));
  }
};

/// Identity UDFs: useful in tests that need to compare record sets
/// between jobs directly.
class IdentityMapper final : public mapred::MapUdf {
 public:
  void map(const mapred::Record& in, std::uint64_t,
           mapred::Emitter& out) const override {
    out.emit(in);
  }
};

class IdentityReducer final : public mapred::ReduceUdf {
 public:
  void reduce(std::uint64_t key, std::span<const std::uint64_t> values,
              std::uint64_t, mapred::Emitter& out) const override {
    for (std::uint64_t v : values) out.emit(key, v);
  }
};

}  // namespace rcmp::workloads
