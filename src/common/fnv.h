// FNV-1a, 64-bit: the one byte hash behind the WAL and meta-block
// checksums, preference and statement fingerprints, schema identities and
// the hash tables keyed by text.

#ifndef P3PDB_COMMON_FNV_H_
#define P3PDB_COMMON_FNV_H_

#include <cstdint>
#include <span>
#include <string_view>

namespace p3pdb {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// One byte: the hash of a byte string extended by `byte`.
constexpr uint64_t FnvStep(uint64_t hash, unsigned char byte) {
  return (hash ^ byte) * kFnvPrime;
}

/// The hash of `bytes`, continuing from `hash`.
constexpr uint64_t FnvHash(std::span<const uint8_t> bytes,
                           uint64_t hash = kFnvOffsetBasis) {
  for (uint8_t byte : bytes) hash = FnvStep(hash, byte);
  return hash;
}

constexpr uint64_t FnvHash(std::string_view bytes,
                           uint64_t hash = kFnvOffsetBasis) {
  for (char c : bytes) hash = FnvStep(hash, static_cast<unsigned char>(c));
  return hash;
}

}  // namespace p3pdb

#endif  // P3PDB_COMMON_FNV_H_
