#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace somr {

/// 64-bit FNV-1a hash. Stable across platforms and runs (unlike
/// std::hash), so it is safe to persist derived identifiers.
inline uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Combines two hash values (boost-style mix).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// Fast 64-bit hash of a byte string for in-memory hash tables: eight
/// bytes per multiply, then a murmur3 finalizer so every output bit
/// depends on every input bit. Deterministic, but not part of any
/// persisted format — use Fnv1a64 for identifiers that are stored.
inline uint64_t HashBytes(std::string_view data) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = static_cast<uint64_t>(data.size()) * kMul;
  const char* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kMul;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace somr
