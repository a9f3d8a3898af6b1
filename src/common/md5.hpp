// MD5 message digest (RFC 1321), implemented from scratch.
//
// The paper's workload computes, for every record, "one computation based
// on the MD5 hash of a record's value" as a correctness check. We use the
// same digest in the payload-backed execution mode so that the functional
// verification matches the paper's methodology. Not for security use.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace rcmp {

class Md5 {
 public:
  using Digest = std::array<std::uint8_t, 16>;

  Md5() { reset(); }

  void reset();
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  /// Finalize and return the 16-byte digest. The object must be reset()
  /// before reuse.
  Digest finalize();

  /// One-shot convenience.
  static Digest hash(const void* data, std::size_t len) {
    Md5 h;
    h.update(data, len);
    return h.finalize();
  }
  static Digest hash(std::string_view s) { return hash(s.data(), s.size()); }

  /// First 8 bytes of the digest as a little-endian u64 — the compact
  /// form the workload folds into its verification accumulator.
  static std::uint64_t hash64(const void* data, std::size_t len);
  static std::uint64_t hash64(std::string_view s) {
    return hash64(s.data(), s.size());
  }

  /// Messages per hash64_lanes call.
  static constexpr std::size_t kLanes = 8;
  /// hash64 of kLanes 64-byte messages in one pass: words[i][l] is the
  /// little-endian 32-bit word i (bytes 4i..4i+3) of lane l's message,
  /// and out[l] == hash64(message l, 64). The lanes share every step, so
  /// one pass costs about as much as two scalar 64-byte hashes.
  static void hash64_lanes(const std::uint32_t (&words)[16][kLanes],
                           std::uint64_t (&out)[kLanes]);

  static std::string to_hex(const Digest& d);

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[4];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

}  // namespace rcmp
