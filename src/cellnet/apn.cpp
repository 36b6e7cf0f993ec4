#include "cellnet/apn.hpp"

#include <cctype>

namespace wtr::cellnet {

std::string ascii_lower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

namespace {
// Decimal digits of `value`, zero-padded to at least three ("%03u").
void append_padded3(std::string& out, unsigned value) {
  char digits[5];  // a uint16_t has at most five
  int count = 0;
  do {
    digits[count++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (count < 3) digits[count++] = '0';
  while (count > 0) out.push_back(digits[--count]);
}
}  // namespace

std::string Apn::to_string() const {
  if (!operator_id_) return network_id_;
  // Note: 3GPP TS 23.003 renders MNC with three digits in the operator
  // identifier (zero-padded), regardless of the 2-digit wire form.
  std::string out;
  out.reserve(network_id_.size() + 23);  // ".mnc" + 5 + ".mcc" + 5 + ".gprs"
  out += network_id_;
  out += ".mnc";
  append_padded3(out, operator_id_->mnc());
  out += ".mcc";
  append_padded3(out, operator_id_->mcc());
  out += ".gprs";
  return out;
}

namespace {
std::optional<std::uint16_t> parse_prefixed_number(std::string_view part,
                                                   std::string_view prefix,
                                                   std::size_t digits) {
  if (part.size() != prefix.size() + digits) return std::nullopt;
  if (part.substr(0, prefix.size()) != prefix) return std::nullopt;
  std::uint16_t v = 0;
  for (char c : part.substr(prefix.size())) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    v = static_cast<std::uint16_t>(v * 10 + (c - '0'));
  }
  return v;
}
}  // namespace

Apn Apn::parse(std::string_view text) {
  const std::string lower = ascii_lower(text);
  // Recognize a trailing ".mncXXX.mccYYY.gprs" operator identifier.
  const std::string_view view{lower};
  const auto gprs_pos = view.rfind(".gprs");
  if (gprs_pos != std::string_view::npos && gprs_pos + 5 == view.size()) {
    const std::string_view head = view.substr(0, gprs_pos);
    const auto mcc_pos = head.rfind('.');
    if (mcc_pos != std::string_view::npos) {
      const std::string_view mcc_part = head.substr(mcc_pos + 1);
      const std::string_view head2 = head.substr(0, mcc_pos);
      const auto mnc_pos = head2.rfind('.');
      if (mnc_pos != std::string_view::npos) {
        const std::string_view mnc_part = head2.substr(mnc_pos + 1);
        const auto mcc = parse_prefixed_number(mcc_part, "mcc", 3);
        const auto mnc = parse_prefixed_number(mnc_part, "mnc", 3);
        if (mcc && mnc) {
          // Operator-identifier MNC is always 3 digits; values <= 99 are
          // conventionally 2-digit networks zero-padded.
          const std::uint8_t digits = *mnc <= 99 ? 2 : 3;
          return Apn{std::string(head2.substr(0, mnc_pos)), Plmn{*mcc, *mnc, digits}};
        }
      }
    }
  }
  return Apn{lower};
}

bool Apn::contains_keyword(std::string_view keyword) const {
  if (keyword.empty()) return false;
  return network_id_.find(keyword) != std::string::npos;
}

std::optional<std::string_view> first_matching_keyword(
    const Apn& apn, std::span<const std::string_view> keywords) {
  for (std::string_view keyword : keywords) {
    if (apn.contains_keyword(keyword)) return keyword;
  }
  return std::nullopt;
}

}  // namespace wtr::cellnet
