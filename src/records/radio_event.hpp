#pragma once

// Radio-interface event log: what the MNO's probes capture on the IuCS,
// IuPS, A, Gb and S1 interfaces (§4.1). Each event is a signaling
// transaction seen on a specific interface at a specific sector; outbound
// roamers do NOT appear here (their radio signaling stays in the visited
// country), which the catalog builder must honour.

#include <optional>
#include <utility>
#include <vector>

#include "cellnet/rat.hpp"
#include "io/trace_columns.hpp"
#include "signaling/transaction.hpp"

namespace wtr::records {

// --- Binary columnar codec (io/bintrace block payloads) ---------------------
// One signaling transaction per row; covers both the platform-transaction
// and radio-event streams (same wire struct). The interface family is not
// stored — cellnet::interface_for(rat, data_context) derives it.

struct RadioColumns {
  std::vector<std::uint64_t> device;
  std::vector<std::int64_t> time;
  std::vector<std::uint32_t> sim_plmn;      // dict index of Plmn::to_string
  std::vector<std::uint32_t> visited_plmn;  // dict index
  std::vector<std::uint8_t> procedure;
  std::vector<std::uint8_t> result;
  std::vector<std::uint8_t> rat;
  std::vector<std::uint64_t> sector;
  std::vector<std::uint64_t> tac;
  std::vector<bool> data_context;

  [[nodiscard]] std::size_t size() const noexcept { return device.size(); }
  void clear();
};

/// Append one record to the column set, interning its PLMN strings.
void bin_append(RadioColumns& columns, io::TraceDict& dict,
                const signaling::SignalingTransaction& txn, bool data_context);

/// Serialize/deserialize all columns (count and dictionary travel in the
/// enclosing block header). bin_read throws on truncation or a dangling
/// dictionary index.
void bin_write(util::BinWriter& out, const RadioColumns& columns);
[[nodiscard]] RadioColumns bin_read_radio(util::BinReader& in, std::size_t n,
                                          std::size_t dict_size);

/// Reconstruct row `i`; nullopt when an enum byte or dictionary string fails
/// validation (counted by the reader as a bad field, mirroring CSV replay).
/// `plmns` is the block dictionary parsed once by the reader (nullopt entry
/// = unparsable string), so rows pay an index instead of a string parse.
[[nodiscard]] std::optional<std::pair<signaling::SignalingTransaction, bool>>
bin_extract(const RadioColumns& columns,
            std::span<const std::optional<cellnet::Plmn>> plmns, std::size_t i);

}  // namespace wtr::records
