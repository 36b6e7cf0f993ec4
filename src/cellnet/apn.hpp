#pragma once

// Access Point Name handling. The APN a device uses for data sessions is the
// classifier's strongest signal: its Network Identifier often embeds the
// vertical or customer ("smhp.centricaplc.com" → Centrica smart meters), and
// its Operator Identifier suffix ("mnc004.mcc204.gprs") exposes the home
// operator. §4.3 builds a 26-keyword vocabulary over 4,603 observed APNs.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "cellnet/plmn.hpp"

namespace wtr::cellnet {

class Apn {
 public:
  Apn() = default;
  explicit Apn(std::string network_id, std::optional<Plmn> operator_id = std::nullopt)
      : network_id_(std::move(network_id)), operator_id_(operator_id) {}

  [[nodiscard]] const std::string& network_id() const noexcept { return network_id_; }
  [[nodiscard]] std::optional<Plmn> operator_id() const noexcept { return operator_id_; }

  [[nodiscard]] bool empty() const noexcept { return network_id_.empty(); }

  /// Full wire form: "<network-id>[.mncXXX.mccYYY.gprs]".
  [[nodiscard]] std::string to_string() const;

  /// Parse a full APN, splitting off a trailing operator identifier when one
  /// is present. Lower-cases the network id (APNs are case-insensitive).
  [[nodiscard]] static Apn parse(std::string_view text);

  /// True when the (lower-case) network id contains the keyword as a
  /// substring — the paper's stage-1 classification primitive.
  [[nodiscard]] bool contains_keyword(std::string_view keyword) const;

  friend bool operator==(const Apn&, const Apn&) noexcept = default;
  friend auto operator<=>(const Apn&, const Apn&) noexcept = default;

 private:
  std::string network_id_;
  std::optional<Plmn> operator_id_;
};

/// An APN's wire text (the Apn::to_string() form) interned in one
/// process-wide, append-only table: a device or a record names one of a few
/// thousand texts with an 8-byte handle instead of carrying its own copy.
/// Equal texts have equal ids, and the default id is the empty APN.
/// intern() takes a lock; text() does not, because an entry never changes,
/// moves or goes away once made, so an id also stays valid after whatever
/// scenario or replay made it. An id's value differs from run to run:
/// nothing may order or hash output by it (sort by text() instead).
class ApnId {
 public:
  ApnId() = default;

  /// The id of `text`, adding it to the table on first sight. Thread-safe.
  [[nodiscard]] static ApnId intern(std::string_view text);

  [[nodiscard]] std::string_view text() const noexcept {
    return text_ == nullptr ? std::string_view{} : std::string_view{*text_};
  }
  [[nodiscard]] bool empty() const noexcept { return text_ == nullptr; }

  /// The id as an integer below 2^63, for keyed lookups inside this process
  /// (io::TraceDict::intern(key, render)).
  [[nodiscard]] std::uint64_t key() const noexcept {
    return reinterpret_cast<std::uintptr_t>(text_);
  }

  friend bool operator==(ApnId, ApnId) noexcept = default;

 private:
  explicit ApnId(const std::string* text) noexcept : text_(text) {}

  const std::string* text_ = nullptr;  // table entry; null for the empty APN
};

/// First keyword (from the list) found in the APN's network id, or nullopt.
[[nodiscard]] std::optional<std::string_view> first_matching_keyword(
    const Apn& apn, std::span<const std::string_view> keywords);

/// ASCII lower-case copy.
[[nodiscard]] std::string ascii_lower(std::string_view text);

}  // namespace wtr::cellnet
