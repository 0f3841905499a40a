// FNV-1a hash the exact-output pin tests fold their results into.
#pragma once

#include <cstdint>

namespace fdlsp {

/// FNV-1a over 64-bit words, byte by byte.
class Fnv64 {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace fdlsp
