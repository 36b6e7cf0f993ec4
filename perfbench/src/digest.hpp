#pragma once

// Output checks of the benchmark: a 64-bit FNV-1a digest over a finished
// census. Every field of every per-device summary is mixed in, followed by
// the device's roaming label and class, in the census's own (device-hash)
// order — so two censuses digest equal exactly when the analysis produced
// the same population.

#include <cstdint>
#include <string>
#include <string_view>

#include "core/census.hpp"

namespace perfbench {

class Fnv64 {
 public:
  void byte(std::uint8_t b) noexcept {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  void f64(double v) noexcept;
  /// Length-prefixed, so adjacent strings cannot alias ("ab","c" vs "a","bc").
  void str(std::string_view s) noexcept;

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

[[nodiscard]] std::uint64_t census_digest(const wtr::core::ClassifiedPopulation& population);

/// 16 lowercase hex digits.
[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace perfbench
