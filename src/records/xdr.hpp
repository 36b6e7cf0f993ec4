#pragma once

// eXtended Detail Records: aggregate data usage (§4.1). Names the APN —
// the classifier's key signal — by its interned cellnet::ApnId, so the
// record is plain data; like CDRs, xDRs cover outbound roamers as well.

#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cellnet/apn.hpp"
#include "cellnet/plmn.hpp"
#include "cellnet/rat.hpp"
#include "io/trace_columns.hpp"
#include "signaling/transaction.hpp"
#include "stats/sim_time.hpp"

namespace wtr::records {

struct Xdr {
  signaling::DeviceHash device = 0;
  stats::SimTime time = 0;
  cellnet::Plmn sim_plmn{};
  cellnet::Plmn visited_plmn{};
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  cellnet::ApnId apn;  // full wire form
  cellnet::Rat rat = cellnet::Rat::kTwoG;

  [[nodiscard]] std::uint64_t bytes_total() const noexcept {
    return bytes_up + bytes_down;
  }
};
static_assert(std::is_trivially_copyable_v<Xdr>);

[[nodiscard]] std::vector<std::string> to_csv_fields(const Xdr& xdr);
[[nodiscard]] std::vector<std::string> xdr_csv_header();

/// Inverse of to_csv_fields (interns the APN); nullopt on malformed rows.
[[nodiscard]] std::optional<Xdr> xdr_from_csv_fields(std::span<const std::string> fields);

// --- Binary columnar codec (io/bintrace block payloads) ---------------------
// APNs share the block dictionary with the PLMN strings; a fleet hammering
// one platform APN costs a few bytes per block, not per record.

struct XdrColumns {
  std::vector<std::uint64_t> device;
  std::vector<std::int64_t> time;
  std::vector<std::uint32_t> sim_plmn;      // dict index of Plmn::to_string
  std::vector<std::uint32_t> visited_plmn;  // dict index
  std::vector<std::uint64_t> bytes_up;
  std::vector<std::uint64_t> bytes_down;
  std::vector<std::uint32_t> apn;           // dict index (full wire form)
  std::vector<std::uint8_t> rat;

  [[nodiscard]] std::size_t size() const noexcept { return device.size(); }
  void clear();
};

void bin_append(XdrColumns& columns, io::TraceDict& dict, const Xdr& xdr);
void bin_write(util::BinWriter& out, const XdrColumns& columns);
[[nodiscard]] XdrColumns bin_read_xdr(util::BinReader& in, std::size_t n,
                                      std::size_t dict_size);
/// The ApnId of every block dictionary entry the APN column references,
/// indexed like `dict` and interned once each; other entries stay empty.
[[nodiscard]] std::vector<cellnet::ApnId> bin_intern_apns(const XdrColumns& columns,
                                                          std::span<const std::string> dict);
/// Nullopt on enum/PLMN validation failure (a bad field, mirroring CSV).
/// `plmns` is the block dictionary parsed once by the reader and `apns` the
/// same dictionary as bin_intern_apns() returns it.
[[nodiscard]] std::optional<Xdr> bin_extract(
    const XdrColumns& columns,
    std::span<const std::optional<cellnet::Plmn>> plmns,
    std::span<const cellnet::ApnId> apns, std::size_t i);

}  // namespace wtr::records
