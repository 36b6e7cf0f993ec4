#pragma once

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check guarding checkpoint snapshots and WTRTRC1 trace blocks. Computed
// slicing-by-8 (eight compile-time tables, eight input bytes per step, a
// bytewise tail); the values are those of the classic one-table bytewise
// CRC, seed chaining included. No dependency beyond the standard library.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace wtr::util {

/// CRC of `data`; chainable by passing a previous result as `seed`.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0) noexcept;

[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes,
                                         std::uint32_t seed = 0) noexcept {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace wtr::util
