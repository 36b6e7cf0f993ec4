#pragma once

// Call Detail Records: aggregate voice usage (§4.1). Unlike radio logs,
// CDRs are produced for outbound roamers too — they are the basis of
// roaming revenue reconciliation between partners (§2.1).

#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cellnet/plmn.hpp"
#include "cellnet/rat.hpp"
#include "io/trace_columns.hpp"
#include "signaling/transaction.hpp"
#include "stats/sim_time.hpp"

namespace wtr::records {

struct Cdr {
  signaling::DeviceHash device = 0;
  stats::SimTime time = 0;
  cellnet::Plmn sim_plmn{};
  cellnet::Plmn visited_plmn{};
  double duration_s = 0.0;
  cellnet::Rat rat = cellnet::Rat::kTwoG;
};
static_assert(std::is_trivially_copyable_v<Cdr>);

[[nodiscard]] std::vector<std::string> to_csv_fields(const Cdr& cdr);
[[nodiscard]] std::vector<std::string> cdr_csv_header();

/// Inverse of to_csv_fields; nullopt on malformed rows.
[[nodiscard]] std::optional<Cdr> cdr_from_csv_fields(std::span<const std::string> fields);

// --- Binary columnar codec (io/bintrace block payloads) ---------------------
// Durations travel as raw IEEE-754 bit patterns: unlike the CSV projection
// (format_fixed to one decimal), the binary codec is bit-exact.

struct CdrColumns {
  std::vector<std::uint64_t> device;
  std::vector<std::int64_t> time;
  std::vector<std::uint32_t> sim_plmn;      // dict index of Plmn::to_string
  std::vector<std::uint32_t> visited_plmn;  // dict index
  std::vector<double> duration_s;
  std::vector<std::uint8_t> rat;

  [[nodiscard]] std::size_t size() const noexcept { return device.size(); }
  void clear();
};

void bin_append(CdrColumns& columns, io::TraceDict& dict, const Cdr& cdr);
void bin_write(util::BinWriter& out, const CdrColumns& columns);
[[nodiscard]] CdrColumns bin_read_cdr(util::BinReader& in, std::size_t n,
                                      std::size_t dict_size);
/// Nullopt on enum/PLMN validation failure (a bad field, mirroring CSV).
/// `plmns` is the block dictionary parsed once by the reader.
[[nodiscard]] std::optional<Cdr> bin_extract(
    const CdrColumns& columns,
    std::span<const std::optional<cellnet::Plmn>> plmns, std::size_t i);

}  // namespace wtr::records
