// 64-bit FNV-1a, the one hash behind every persisted checksum and rolling
// witness in the repo: snapshot/policy envelope checksums, shard routing,
// the fault-log hash and the loan-ledger hash. Each of those values is
// written to disk or compared across runs, so this function must never
// change.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace lyra {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ull;

// Folds `data` into `seed`; pass a previous result as the seed to hash a
// stream piecewise.
inline std::uint64_t Fnv1a(std::string_view data,
                           std::uint64_t seed = kFnv1aOffset) {
  std::uint64_t hash = seed;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// Folds the 8 little-endian bytes of `value`, independent of host order.
inline std::uint64_t Fnv1aU64(std::uint64_t value,
                              std::uint64_t seed = kFnv1aOffset) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return Fnv1a(std::string_view(bytes, sizeof(bytes)), seed);
}

}  // namespace lyra

#endif  // SRC_COMMON_HASH_H_
