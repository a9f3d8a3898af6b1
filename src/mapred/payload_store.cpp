#include "mapred/payload_store.hpp"

#include "common/error.hpp"

namespace rcmp::mapred {

bool PayloadStore::file_has_payload(dfs::FileId f) const {
  for (const auto& [k, v] : parts_) {
    if ((k >> 32) == f && !v.records.empty()) return true;
  }
  return false;
}

bool PayloadStore::has(dfs::FileId f, dfs::PartitionIndex p) const {
  return parts_.count(key(f, p)) > 0;
}

void PayloadStore::append(dfs::FileId f, dfs::PartitionIndex p,
                          std::vector<Record> records,
                          std::uint32_t block_count) {
  RCMP_CHECK(block_count >= 1 || records.empty());
  PartitionPayload& pp = parts_[key(f, p)];
  // Initialize the sentinel for an empty payload.
  if (pp.block_starts.empty()) pp.block_starts.push_back(0);
  pp.block_starts.pop_back();  // drop sentinel, re-added below

  const std::size_t base = pp.records.size();
  const std::size_t n = records.size();
  pp.records.insert(pp.records.end(), records.begin(), records.end());

  // Even split of n records over block_count blocks, first blocks get
  // the remainder — mirrors NameNode block sizing (full blocks first).
  std::size_t offset = 0;
  for (std::uint32_t b = 0; b < block_count; ++b) {
    pp.block_starts.push_back(base + offset);
    const std::size_t share = n / block_count + (b < n % block_count ? 1 : 0);
    pp.block_sums.push_back(checksum_of(
        std::span<const Record>(pp.records).subspan(base + offset, share)));
    offset += share;
  }
  RCMP_CHECK(offset == n);
  pp.block_starts.push_back(pp.records.size());  // sentinel
}

void PayloadStore::clear(dfs::FileId f, dfs::PartitionIndex p) {
  parts_.erase(key(f, p));
}

std::span<const Record> PayloadStore::partition_records(
    dfs::FileId f, dfs::PartitionIndex p) const {
  auto it = parts_.find(key(f, p));
  RCMP_CHECK_MSG(it != parts_.end(),
                 "no payload for file " << f << " partition " << p);
  return it->second.records;
}

std::span<const Record> PayloadStore::block_records(
    dfs::FileId f, dfs::PartitionIndex p, std::uint32_t block_index) const {
  auto it = parts_.find(key(f, p));
  RCMP_CHECK(it != parts_.end());
  const PartitionPayload& pp = it->second;
  RCMP_CHECK_MSG(block_index + 2 <= pp.block_starts.size(),
                 "block " << block_index << " out of range");
  const std::size_t lo = pp.block_starts[block_index];
  const std::size_t hi = pp.block_starts[block_index + 1];
  return std::span<const Record>(pp.records.data() + lo, hi - lo);
}

std::uint32_t PayloadStore::block_count(dfs::FileId f,
                                        dfs::PartitionIndex p) const {
  auto it = parts_.find(key(f, p));
  if (it == parts_.end()) return 0;
  return it->second.block_starts.empty()
             ? 0
             : static_cast<std::uint32_t>(it->second.block_starts.size() - 1);
}

bool PayloadStore::verify_block(dfs::FileId f, dfs::PartitionIndex p,
                                std::uint32_t block_index) const {
  auto it = parts_.find(key(f, p));
  if (it == parts_.end()) return true;  // nothing stored, nothing corrupt
  const PartitionPayload& pp = it->second;
  if (block_index >= pp.block_sums.size()) return true;
  const std::size_t lo = pp.block_starts[block_index];
  const std::size_t hi = pp.block_starts[block_index + 1];
  return checksum_of(std::span<const Record>(pp.records).subspan(
             lo, hi - lo)) == pp.block_sums[block_index];
}

bool PayloadStore::corrupt_record(dfs::FileId f, dfs::PartitionIndex p) {
  auto it = parts_.find(key(f, p));
  if (it == parts_.end() || it->second.records.empty()) return false;
  // Flip bits in the middle record's value; the block checksum captured
  // at append time no longer matches, but nothing notices until a reader
  // verifies.
  it->second.records[it->second.records.size() / 2].value ^= 0xdeadbeefULL;
  return true;
}

Checksum PayloadStore::file_checksum(dfs::FileId f,
                                     std::uint32_t num_partitions) const {
  Checksum c;
  for (dfs::PartitionIndex p = 0; p < num_partitions; ++p) {
    auto it = parts_.find(key(f, p));
    if (it != parts_.end()) c.add(it->second.records);
  }
  return c;
}

}  // namespace rcmp::mapred
