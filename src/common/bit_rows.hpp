// Rows of equal-width bitsets with a find-next-set-bit query.
//
// Two placement indexes use it: the scheduler's free-node sets (one row
// per slot kind, one bit per node) and the engine's locality index (one
// row per node, one bit per pending-map position). A query skips clear
// words whole, so it costs O(words skipped) instead of one probe per
// bit.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rcmp {

class BitRows {
 public:
  /// next() found no set bit.
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Reshape to `rows` rows of `width` bits, all clear.
  void assign(std::uint32_t rows, std::uint32_t width) {
    width_ = width;
    words_ = (width + 63) / 64;
    bits_.assign(static_cast<std::size_t>(rows) * words_, 0);
  }

  /// Free the storage; empty() until the next assign().
  void release() {
    std::vector<std::uint64_t>().swap(bits_);
    width_ = 0;
    words_ = 0;
  }

  bool empty() const { return bits_.empty(); }

  void set(std::uint32_t row, std::uint32_t bit) {
    word(row, bit) |= mask(bit);
  }
  void clear(std::uint32_t row, std::uint32_t bit) {
    word(row, bit) &= ~mask(bit);
  }

  /// The smallest set bit >= `from` in `row`, or kNone.
  std::uint32_t next(std::uint32_t row, std::uint32_t from) const {
    if (from >= width_) return kNone;
    const std::uint64_t* w =
        bits_.data() + static_cast<std::size_t>(row) * words_;
    std::uint32_t i = from / 64;
    std::uint64_t cur = w[i] & (~std::uint64_t{0} << (from % 64));
    while (cur == 0) {
      if (++i == words_) return kNone;
      cur = w[i];
    }
    return i * 64 + static_cast<std::uint32_t>(std::countr_zero(cur));
  }

 private:
  static std::uint64_t mask(std::uint32_t bit) {
    return std::uint64_t{1} << (bit % 64);
  }
  std::uint64_t& word(std::uint32_t row, std::uint32_t bit) {
    return bits_[static_cast<std::size_t>(row) * words_ + bit / 64];
  }

  std::vector<std::uint64_t> bits_;
  std::uint32_t width_ = 0;
  std::uint32_t words_ = 0;
};

}  // namespace rcmp
