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
#include <span>
#include <string>
#include <string_view>

// On x86-64 GCC and Clang the lane kernels are compiled once per level
// with [[gnu::target]]; other targets compile them once, generically.
#if defined(__x86_64__) && defined(__GNUC__)
#define RCMP_X86_LANE_LEVELS 1
#else
#define RCMP_X86_LANE_LEVELS 0
#endif

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
  static constexpr std::size_t kLanes = 16;
  /// hash64 of kLanes 64-byte messages in one pass: words[i][l] is the
  /// little-endian 32-bit word i (bytes 4i..4i+3) of lane l's message,
  /// and out[l] == hash64(message l, 64). The lanes share every step, so
  /// one pass costs about as much as one scalar 64-byte hash on
  /// AVX-512F, one and a half on AVX2 and three on the x86-64 baseline.
  static void hash64_lanes(const std::uint32_t (&words)[16][kLanes],
                           std::uint64_t (&out)[kLanes]);

  /// An instruction-set level the lane kernels are compiled for.
  struct LaneLevel {
    const char* name;
    bool (*cpu_runs)();
  };
  /// The lane kernels (hash64_lanes and the batch record checks in
  /// mapred/record.cpp) are compiled once per level, listed widest
  /// first: "avx512f", "avx2" and "baseline" on x86-64, and one
  /// "generic" level elsewhere.
  static std::span<const LaneLevel> lane_levels();
  /// Index in lane_levels() of the widest level this CPU runs, chosen on
  /// the first call. Every lane kernel runs at it.
  static std::size_t lane_level();
  /// The name of that level.
  static const char* lane_kernel() {
    return lane_levels()[lane_level()].name;
  }
  /// hash64_lanes as compiled for lane level `level`, which this CPU
  /// must run: lets tests check every compiled form.
  static void hash64_lanes_at(std::size_t level,
                              const std::uint32_t (&words)[16][kLanes],
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
