// Non-cryptographic 64-bit hashes shared by digests, cache keys and
// cohort selection. Their outputs feed pinned determinism digests, so
// none of them may change.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace iotsec {

/// FNV-1a 64 offset basis.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
/// The offset basis missing its last digit. The rollout manifest hashes
/// and crowd pseudonyms were seeded with it; HashRuleText output feeds
/// the pinned rollout decision digest, so it stays.
inline constexpr std::uint64_t kFnvTruncatedBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a 64 over `bytes`, starting from `seed`.
[[nodiscard]] constexpr std::uint64_t Fnv1a64(
    std::uint64_t seed, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    seed ^= b;
    seed *= kFnvPrime;
  }
  return seed;
}

[[nodiscard]] constexpr std::uint64_t Fnv1a64(std::uint64_t seed,
                                              std::string_view text) {
  for (const char c : text) {
    seed ^= static_cast<std::uint8_t>(c);
    seed *= kFnvPrime;
  }
  return seed;
}

/// Murmur3's 64-bit finaliser (fmix64).
[[nodiscard]] constexpr std::uint64_t Fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// Order-sensitive two-input fold: `b` is spread by the golden ratio,
/// xored into `a`, then scrambled by SplitMix64's finaliser.
[[nodiscard]] constexpr std::uint64_t Mix64(std::uint64_t a,
                                            std::uint64_t b) {
  std::uint64_t x = a ^ (b * 0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace iotsec
