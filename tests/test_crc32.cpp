// CRC-32 tests: the IEEE 802.3 check value, agreement with a bit-at-a-time
// reference over every short length and word-unaligned start, and seed
// chaining. Snapshots and WTRTRC1 blocks both store this value, so any
// drift here breaks every file written before it.

#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wtr::util {
namespace {

/// Straight from the definition: reflected polynomial, one bit per step.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t size,
                              std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

/// Deterministic bytes covering every byte value (xorshift, no RNG library).
std::vector<unsigned char> test_bytes(std::size_t size) {
  std::vector<unsigned char> bytes(size);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : bytes) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<unsigned char>(x);
  }
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(crc32(std::string_view{"123456789"}), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view{}), 0u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceForShortLengthsAtEveryOffset) {
  const auto bytes = test_bytes(64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      EXPECT_EQ(crc32(bytes.data() + offset, length),
                reference_crc32(bytes.data() + offset, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Crc32, MatchesBitwiseReferenceForLongLengthsAtEveryOffset) {
  const auto bytes = test_bytes(4096 + 64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t length : {4097u, 4100u, 4103u, 4104u, 4096u + 63u}) {
      EXPECT_EQ(crc32(bytes.data() + offset, length),
                reference_crc32(bytes.data() + offset, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Crc32, SeedChainsAcrossSplits) {
  const auto bytes = test_bytes(1000);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, reference_crc32(bytes.data(), bytes.size()));
  for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 500u, 993u, 1000u}) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
  // The string_view overload chains the same way.
  const std::string text = "where things roam";
  EXPECT_EQ(crc32(std::string_view{text}.substr(5), crc32(std::string_view{text}.substr(0, 5))),
            crc32(std::string_view{text}));
}

}  // namespace
}  // namespace wtr::util
