#include "common/md5.hpp"

#include <iterator>

#include "common/error.hpp"

namespace rcmp {
namespace {

constexpr std::uint32_t kInitA = 0x67452301u;
constexpr std::uint32_t kInitB = 0xefcdab89u;
constexpr std::uint32_t kInitC = 0x98badcfeu;
constexpr std::uint32_t kInitD = 0x10325476u;

// A GCC vector of N values of T, one message per lane. (The attribute
// on an alias template is dropped when N is dependent.)
template <typename T, std::size_t N>
struct LaneVec {
  typedef T type __attribute__((vector_size(sizeof(T) * N)));
};
template <typename T, std::size_t N>
using LaneVector = typename LaneVec<T, N>::type;

// The four RFC 1321 step functions, over one word (W = std::uint32_t)
// or one word per lane (W = LaneVector<std::uint32_t, N>). Each step is
//   a = b + ((a + round_fn(b, c, d) + m[g] + K) <<< s)
// with K = floor(2^32 * abs(sin(i + 1))) for step i. Words pass by
// reference and the rotate is written in place: passing or returning
// a 32- or 64-byte vector by value has an ISA-dependent ABI (GCC
// -Wpsabi).
template <typename W>
inline void rotate_add(W& a, const W& b, const W& t, int s) {
  a = b + ((t << s) | (t >> (32 - s)));
}
template <typename W>
inline void ff(W& a, const W& b, const W& c, const W& d, const W& x, int s,
               std::uint32_t k) {
  rotate_add(a, b, a + ((b & c) | (~b & d)) + x + k, s);
}
template <typename W>
inline void gg(W& a, const W& b, const W& c, const W& d, const W& x, int s,
               std::uint32_t k) {
  rotate_add(a, b, a + ((b & d) | (c & ~d)) + x + k, s);
}
template <typename W>
inline void hh(W& a, const W& b, const W& c, const W& d, const W& x, int s,
               std::uint32_t k) {
  rotate_add(a, b, a + (b ^ c ^ d) + x + k, s);
}
template <typename W>
inline void ii(W& a, const W& b, const W& c, const W& d, const W& x, int s,
               std::uint32_t k) {
  rotate_add(a, b, a + (c ^ (b | ~d)) + x + k, s);
}

// The one MD5 step list: the 64 steps over message words m, added into
// the state. Unrolled in the RFC 1321 reference form — literal shift and
// sine constants per step and the message-word schedule written out, so
// no step branches on its round or computes an index. Inlined into each
// caller so the lane state stays in registers and the constant padding
// words fold into the step constants.
template <typename W>
[[gnu::always_inline]] inline void compress(W (&state)[4],
                                            const W (&m)[16]) {
  W a = state[0], b = state[1], c = state[2], d = state[3];
  // Round 1.
  ff(a, b, c, d, m[0], 7, 0xd76aa478);
  ff(d, a, b, c, m[1], 12, 0xe8c7b756);
  ff(c, d, a, b, m[2], 17, 0x242070db);
  ff(b, c, d, a, m[3], 22, 0xc1bdceee);
  ff(a, b, c, d, m[4], 7, 0xf57c0faf);
  ff(d, a, b, c, m[5], 12, 0x4787c62a);
  ff(c, d, a, b, m[6], 17, 0xa8304613);
  ff(b, c, d, a, m[7], 22, 0xfd469501);
  ff(a, b, c, d, m[8], 7, 0x698098d8);
  ff(d, a, b, c, m[9], 12, 0x8b44f7af);
  ff(c, d, a, b, m[10], 17, 0xffff5bb1);
  ff(b, c, d, a, m[11], 22, 0x895cd7be);
  ff(a, b, c, d, m[12], 7, 0x6b901122);
  ff(d, a, b, c, m[13], 12, 0xfd987193);
  ff(c, d, a, b, m[14], 17, 0xa679438e);
  ff(b, c, d, a, m[15], 22, 0x49b40821);
  // Round 2.
  gg(a, b, c, d, m[1], 5, 0xf61e2562);
  gg(d, a, b, c, m[6], 9, 0xc040b340);
  gg(c, d, a, b, m[11], 14, 0x265e5a51);
  gg(b, c, d, a, m[0], 20, 0xe9b6c7aa);
  gg(a, b, c, d, m[5], 5, 0xd62f105d);
  gg(d, a, b, c, m[10], 9, 0x02441453);
  gg(c, d, a, b, m[15], 14, 0xd8a1e681);
  gg(b, c, d, a, m[4], 20, 0xe7d3fbc8);
  gg(a, b, c, d, m[9], 5, 0x21e1cde6);
  gg(d, a, b, c, m[14], 9, 0xc33707d6);
  gg(c, d, a, b, m[3], 14, 0xf4d50d87);
  gg(b, c, d, a, m[8], 20, 0x455a14ed);
  gg(a, b, c, d, m[13], 5, 0xa9e3e905);
  gg(d, a, b, c, m[2], 9, 0xfcefa3f8);
  gg(c, d, a, b, m[7], 14, 0x676f02d9);
  gg(b, c, d, a, m[12], 20, 0x8d2a4c8a);
  // Round 3.
  hh(a, b, c, d, m[5], 4, 0xfffa3942);
  hh(d, a, b, c, m[8], 11, 0x8771f681);
  hh(c, d, a, b, m[11], 16, 0x6d9d6122);
  hh(b, c, d, a, m[14], 23, 0xfde5380c);
  hh(a, b, c, d, m[1], 4, 0xa4beea44);
  hh(d, a, b, c, m[4], 11, 0x4bdecfa9);
  hh(c, d, a, b, m[7], 16, 0xf6bb4b60);
  hh(b, c, d, a, m[10], 23, 0xbebfbc70);
  hh(a, b, c, d, m[13], 4, 0x289b7ec6);
  hh(d, a, b, c, m[0], 11, 0xeaa127fa);
  hh(c, d, a, b, m[3], 16, 0xd4ef3085);
  hh(b, c, d, a, m[6], 23, 0x04881d05);
  hh(a, b, c, d, m[9], 4, 0xd9d4d039);
  hh(d, a, b, c, m[12], 11, 0xe6db99e5);
  hh(c, d, a, b, m[15], 16, 0x1fa27cf8);
  hh(b, c, d, a, m[2], 23, 0xc4ac5665);
  // Round 4.
  ii(a, b, c, d, m[0], 6, 0xf4292244);
  ii(d, a, b, c, m[7], 10, 0x432aff97);
  ii(c, d, a, b, m[14], 15, 0xab9423a7);
  ii(b, c, d, a, m[5], 21, 0xfc93a039);
  ii(a, b, c, d, m[12], 6, 0x655b59c3);
  ii(d, a, b, c, m[3], 10, 0x8f0ccc92);
  ii(c, d, a, b, m[10], 15, 0xffeff47d);
  ii(b, c, d, a, m[1], 21, 0x85845dd1);
  ii(a, b, c, d, m[8], 6, 0x6fa87e4f);
  ii(d, a, b, c, m[15], 10, 0xfe2ce6e0);
  ii(c, d, a, b, m[6], 15, 0xa3014314);
  ii(b, c, d, a, m[13], 21, 0x4e0811a1);
  ii(a, b, c, d, m[4], 6, 0xf7537e82);
  ii(d, a, b, c, m[11], 10, 0xbd3af235);
  ii(c, d, a, b, m[2], 15, 0x2ad7d2bb);
  ii(b, c, d, a, m[9], 21, 0xeb86d391);
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

void Md5::reset() {
  state_[0] = kInitA;
  state_[1] = kInitB;
  state_[2] = kInitC;
  state_[3] = kInitD;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);
  compress(state_, m);
}

void Md5::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Md5::Digest Md5::finalize() {
  // Append 0x80, zero-fill to 56 mod 64, then the 64-bit bit length.
  // update() never leaves a full buffer, so the 0x80 always fits; the
  // length field only needs a second block when more than 56 bytes are
  // buffered after it.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    process_block(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  process_block(buffer_);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 4; ++i) store_le32(out.data() + 4 * i, state_[i]);
  return out;
}

std::uint64_t Md5::hash64(const void* data, std::size_t len) {
  const Digest d = hash(data, len);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

namespace {

using LaneWords = std::uint32_t[16][Md5::kLanes];
using LaneHashes = std::uint64_t[Md5::kLanes];

// The body of hash64_lanes, inlined into one function per lane level
// so that it is compiled for that level's instruction set. Each
// compression runs kWidth lanes: all sixteen on AVX-512F (one register,
// with a native rotate) and AVX2 (two), two rounds of eight on the
// baseline (two SSE2 registers each), where sixteen lanes' state alone
// fills all sixteen registers and spills.
template <std::size_t kWidth>
[[gnu::always_inline]] inline void lanes_pass(const LaneWords& words,
                                              LaneHashes& out) {
  static_assert(Md5::kLanes % kWidth == 0);
  using V = LaneVector<std::uint32_t, kWidth>;
  using V64 = LaneVector<std::uint64_t, kWidth>;
  for (std::size_t base = 0; base < Md5::kLanes; base += kWidth) {
    V m[16];
    for (std::size_t i = 0; i < 16; ++i) {
      std::memcpy(&m[i], &words[i][base], sizeof(V));
    }
    V state[4] = {V{} + kInitA, V{} + kInitB, V{} + kInitC, V{} + kInitD};
    compress(state, m);
    // The padding block every 64-byte message ends with: 0x80, zeros,
    // then the 512-bit message length.
    V pad[16] = {};
    pad[0] += 0x80u;
    pad[14] += 512u;
    compress(state, pad);
    // hash64: digest bytes 0..7, i.e. state words a and b, little-endian.
    const V64 h = __builtin_convertvector(state[0], V64) |
                  (__builtin_convertvector(state[1], V64) << 32);
    std::memcpy(&out[base], &h, sizeof(h));
  }
}

#if RCMP_X86_LANE_LEVELS
[[gnu::target("avx512f")]] void lanes_avx512f(const LaneWords& words,
                                              LaneHashes& out) {
  lanes_pass<16>(words, out);
}
[[gnu::target("avx2")]] void lanes_avx2(const LaneWords& words,
                                        LaneHashes& out) {
  lanes_pass<16>(words, out);
}
bool cpu_runs_avx512f() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}
bool cpu_runs_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif
void lanes_default(const LaneWords& words, LaneHashes& out) {
  lanes_pass<8>(words, out);
}
bool cpu_runs_any() { return true; }

// Widest first; the last level runs on every CPU of the target.
constexpr Md5::LaneLevel kLevels[] = {
#if RCMP_X86_LANE_LEVELS
    {"avx512f", cpu_runs_avx512f},
    {"avx2", cpu_runs_avx2},
    {"baseline", cpu_runs_any},
#else
    {"generic", cpu_runs_any},
#endif
};
using LanesFn = void (*)(const LaneWords&, LaneHashes&);
constexpr LanesFn kLanesAt[] = {
#if RCMP_X86_LANE_LEVELS
    lanes_avx512f, lanes_avx2,
#endif
    lanes_default};
static_assert(std::size(kLanesAt) == std::size(kLevels));

}  // namespace

std::span<const Md5::LaneLevel> Md5::lane_levels() { return kLevels; }

std::size_t Md5::lane_level() {
  static const std::size_t level = [] {
    std::size_t l = 0;
    while (!kLevels[l].cpu_runs()) ++l;
    return l;
  }();
  return level;
}

void Md5::hash64_lanes(const std::uint32_t (&words)[16][kLanes],
                       std::uint64_t (&out)[kLanes]) {
  kLanesAt[lane_level()](words, out);
}

void Md5::hash64_lanes_at(std::size_t level,
                          const std::uint32_t (&words)[16][kLanes],
                          std::uint64_t (&out)[kLanes]) {
  RCMP_CHECK(level < std::size(kLevels) && kLevels[level].cpu_runs());
  kLanesAt[level](words, out);
}

std::string Md5::to_hex(const Digest& d) {
  static const char* k = "0123456789abcdef";
  std::string s;
  s.reserve(32);
  for (std::uint8_t b : d) {
    s.push_back(k[b >> 4]);
    s.push_back(k[b & 0xf]);
  }
  return s;
}

}  // namespace rcmp
