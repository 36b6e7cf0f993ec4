#include "io/trace_columns.hpp"

#include <cstring>
#include <stdexcept>

namespace wtr::io {

std::uint32_t TraceDict::intern(std::string_view s) {
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), idx);
  return idx;
}

void TraceDict::clear() {
  strings_.clear();
  index_.clear();
  keyed_.clear();
}

void TraceDict::write(util::BinWriter& out) const {
  out.varint(strings_.size());
  for (const auto& s : strings_) out.vstr(s);
}

std::vector<std::string> read_dict(util::BinReader& in) {
  const std::uint64_t count = in.varint();
  // Each entry costs at least one length byte; a corrupt count larger than
  // the remaining payload must not drive the reserve below.
  if (count > in.remaining()) {
    throw std::runtime_error("trace dict: entry count " + std::to_string(count) +
                             " exceeds remaining " + std::to_string(in.remaining()) +
                             " bytes");
  }
  std::vector<std::string> strings;
  strings.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) strings.push_back(in.vstr());
  return strings;
}

void write_varint_column(util::BinWriter& out, std::span<const std::uint64_t> values) {
  for (const auto v : values) out.varint(v);
}

std::vector<std::uint64_t> read_varint_column(util::BinReader& in, std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(in.varint());
  return out;
}

void write_delta_column(util::BinWriter& out, std::span<const std::int64_t> values) {
  std::int64_t previous = 0;
  for (const auto v : values) {
    // Wrapping subtraction: a delta that overflows i64 still round-trips
    // because the reader adds with the same wrapping semantics.
    out.varint_signed(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(previous)));
    previous = v;
  }
}

std::vector<std::int64_t> read_delta_column(util::BinReader& in, std::size_t n) {
  std::vector<std::int64_t> out;
  out.reserve(n);
  std::int64_t previous = 0;
  for (std::size_t i = 0; i < n; ++i) {
    previous = static_cast<std::int64_t>(static_cast<std::uint64_t>(previous) +
                                         static_cast<std::uint64_t>(in.varint_signed()));
    out.push_back(previous);
  }
  return out;
}

void write_u8_column(util::BinWriter& out, std::span<const std::uint8_t> values) {
  for (const auto v : values) out.u8(v);
}

std::vector<std::uint8_t> read_u8_column(util::BinReader& in, std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(in.u8());
  return out;
}

void write_bit_column(util::BinWriter& out, const std::vector<bool>& values) {
  std::uint8_t byte = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i]) byte |= static_cast<std::uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      out.u8(byte);
      byte = 0;
    }
  }
  if (values.size() % 8 != 0) out.u8(byte);
}

std::vector<bool> read_bit_column(util::BinReader& in, std::size_t n) {
  std::vector<bool> out;
  out.reserve(n);
  std::uint8_t byte = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) byte = in.u8();
    out.push_back((byte >> (i % 8)) & 1u);
  }
  return out;
}

void write_f64_column(util::BinWriter& out, std::span<const double> values) {
  for (const auto v : values) out.f64(v);
}

std::vector<double> read_f64_column(util::BinReader& in, std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(in.f64());
  return out;
}

void write_dict_column(util::BinWriter& out, std::span<const std::uint32_t> indices) {
  for (const auto idx : indices) out.varint(idx);
}

std::vector<std::uint32_t> read_dict_column(util::BinReader& in, std::size_t n,
                                            std::size_t dict_size) {
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t idx = in.varint();
    if (idx >= dict_size) {
      throw std::runtime_error("trace column: dictionary index " +
                               std::to_string(idx) + " out of range (dict has " +
                               std::to_string(dict_size) + " entries)");
    }
    out.push_back(static_cast<std::uint32_t>(idx));
  }
  return out;
}

}  // namespace wtr::io
