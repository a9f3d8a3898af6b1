// Eager single-process oracle for the paper's chain workload, the same
// fault-free replay the repository's differential test suite uses: map
// every input record with the job's udf salt, group globally by key,
// reduce, feed the next job. Any run that completes must produce a final
// output whose order-independent Checksum equals the oracle's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "dfs/namenode.hpp"
#include "mapred/job.hpp"
#include "mapred/payload_store.hpp"
#include "mapred/record.hpp"
#include "workloads/udfs.hpp"

namespace rcmp::rbench {

inline std::vector<mapred::Record> gather_records(
    const mapred::PayloadStore& payloads, const dfs::NameNode& dfs,
    dfs::FileId file) {
  std::vector<mapred::Record> all;
  for (dfs::PartitionIndex p = 0; p < dfs.num_partitions(file); ++p) {
    const auto recs = payloads.partition_records(file, p);
    all.insert(all.end(), recs.begin(), recs.end());
  }
  return all;
}

inline mapred::Checksum oracle_checksum(std::vector<mapred::Record> records,
                                        std::uint32_t chain_length) {
  const workloads::ChainMapper mapper;
  const workloads::ChainReducer reducer;
  for (std::uint32_t j = 0; j < chain_length; ++j) {
    mapred::JobSpec spec;
    spec.logical_id = j;
    const std::uint64_t salt = spec.udf_salt();

    mapred::Emitter mapped;
    for (const mapred::Record& rec : records) {
      mapper.map(rec, salt, mapped);
    }
    // Every key belongs to exactly one reducer partition, so a global
    // group-by is the engine's grouping whatever its reducer count or
    // recomputation splits. Sorting pins value order inside a group.
    std::map<std::uint64_t, std::vector<std::uint64_t>> groups;
    for (const mapred::Record& r : mapped.records()) {
      groups[r.key].push_back(r.value);
    }
    mapred::Emitter reduced;
    for (auto& [key, values] : groups) {
      std::sort(values.begin(), values.end());
      reducer.reduce(key, values, salt, reduced);
    }
    records = std::move(reduced.records());
  }
  return mapred::checksum_of(records);
}

}  // namespace rcmp::rbench
