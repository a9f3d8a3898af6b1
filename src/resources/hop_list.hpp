// Fixed-capacity inline hop list: the links of one transfer path (or a
// value per link), stored in place.
//
// Every transfer the engine starts builds a path (Cluster::path_*),
// hands it to the flow network in a FlowSpec, and the network keeps it
// for the flow's lifetime. Held inline, building, passing and keeping a
// path never touches the heap.
//
// The capacity is the longest path Cluster builds: a cross-rack
// transfer that reads the source disk and writes the destination disk
// crosses disk, up, rack-up, fabric, rack-down, down and disk. Growing
// a list past it is a checked error (InvariantError), never a silent
// truncation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace rcmp::res {

/// Hops on the longest path Cluster builds (see the header comment).
inline constexpr std::size_t kMaxHops = 7;

namespace detail {
/// Throws InvariantError: a path outgrew kMaxHops.
[[noreturn]] void hop_list_overflow();
}  // namespace detail

template <class T>
class HopList {
 public:
  HopList() = default;
  HopList(std::initializer_list<T> items) {
    for (const T& item : items) push_back(item);
  }

  void push_back(const T& item) {
    if (size_ == kMaxHops) detail::hop_list_overflow();
    items_[size_++] = item;
  }
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return items_[i]; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  T* data() { return items_; }
  const T* data() const { return items_; }
  T* begin() { return items_; }
  T* end() { return items_ + size_; }
  const T* begin() const { return items_; }
  const T* end() const { return items_ + size_; }

 private:
  T items_[kMaxHops] = {};
  std::uint32_t size_ = 0;
};

}  // namespace rcmp::res
