#pragma once

// Column-level primitives of the binary columnar trace format (see
// io/bintrace.hpp for the container). A trace block stores its records
// field-by-field: every column is encoded with the cheapest scheme for its
// shape — plain varints for ids/counters, zigzag deltas for the
// monotonically creeping timestamps, raw bit patterns for doubles (bit-exact
// round trip, same contract as the checkpoint layer), dictionary indices for
// the heavily repeated PLMN/APN strings. This header depends only on
// util/binio so the per-record codecs in src/records can use it without
// dragging in the sink/reader machinery.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/binio.hpp"

namespace wtr::io {

/// Per-block string interning table. Each block carries its own dictionary
/// (blocks stay self-contained, so a reader needs one block of memory and a
/// checkpoint truncated at a block boundary loses no shared state).
class TraceDict {
 public:
  /// Index of `s`, interning it on first sight.
  std::uint32_t intern(std::string_view s);

  /// Index of the string `render()` returns, looked up by an integer `key`
  /// that stands for it (equal keys must render equal strings): `render`
  /// runs only the first time `key` is seen, and that miss interns through
  /// intern(s). The entries and their order are therefore exactly those of
  /// intern(render()), and a keyed string shares its entry with an equal
  /// string interned either way.
  template <typename Render>
  std::uint32_t intern(std::uint64_t key, Render&& render) {
    if (const auto it = keyed_.find(key); it != keyed_.end()) return it->second;
    const std::uint32_t idx = intern(std::string_view{render()});
    keyed_.emplace(key, idx);
    return idx;
  }

  [[nodiscard]] std::size_t size() const noexcept { return strings_.size(); }
  [[nodiscard]] std::span<const std::string> strings() const noexcept {
    return strings_;
  }

  void clear();

  void write(util::BinWriter& out) const;
  /// Throws std::runtime_error on truncation or an entry count that cannot
  /// fit the remaining bytes.
  static TraceDict read(util::BinReader& in);

 private:
  /// Transparent, so intern(string_view) looks up without building a string.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>> index_;
  std::unordered_map<std::uint64_t, std::uint32_t> keyed_;
};

// --- Column codecs ----------------------------------------------------------
// Each writes exactly `values.size()` entries; readers take the count from
// the block header. All throw std::runtime_error (from BinReader) on
// truncated input.

void write_varint_column(util::BinWriter& out, std::span<const std::uint64_t> values);
[[nodiscard]] std::vector<std::uint64_t> read_varint_column(util::BinReader& in,
                                                            std::size_t n);

/// Zigzag-coded deltas from the previous value (first value from 0).
void write_delta_column(util::BinWriter& out, std::span<const std::int64_t> values);
[[nodiscard]] std::vector<std::int64_t> read_delta_column(util::BinReader& in,
                                                          std::size_t n);

void write_u8_column(util::BinWriter& out, std::span<const std::uint8_t> values);
[[nodiscard]] std::vector<std::uint8_t> read_u8_column(util::BinReader& in,
                                                       std::size_t n);

/// Booleans packed 8 per byte, LSB first.
void write_bit_column(util::BinWriter& out, const std::vector<bool>& values);
[[nodiscard]] std::vector<bool> read_bit_column(util::BinReader& in, std::size_t n);

/// Raw IEEE-754 bit patterns — NaN/inf and every payload bit survive.
void write_f64_column(util::BinWriter& out, std::span<const double> values);
[[nodiscard]] std::vector<double> read_f64_column(util::BinReader& in, std::size_t n);

/// Dictionary-index column; validates every index against `dict_size` and
/// throws on an out-of-range reference (a CRC-clean block with a dangling
/// index is format drift, not dirty data).
void write_dict_column(util::BinWriter& out, std::span<const std::uint32_t> indices);
[[nodiscard]] std::vector<std::uint32_t> read_dict_column(util::BinReader& in,
                                                          std::size_t n,
                                                          std::size_t dict_size);

}  // namespace wtr::io
