#pragma once

// The wire-level records of both datasets.
//
// SignalingTransaction mirrors one row of the M2M platform trace (§3.1):
// hashed device id, timestamp, SIM MCC-MNC, visited MCC-MNC, message type,
// result. The same struct doubles as the MNO-side radio signaling event
// (where it additionally knows the RAT and sector).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cellnet/imei.hpp"
#include "cellnet/plmn.hpp"
#include "cellnet/rat.hpp"
#include "cellnet/sector.hpp"
#include "signaling/procedure.hpp"
#include "signaling/result_code.hpp"
#include "stats/sim_time.hpp"

namespace wtr::signaling {

/// One-way-hashed device identity (the datasets never expose IMSI/IMEI).
using DeviceHash = std::uint64_t;

struct SignalingTransaction {
  DeviceHash device = 0;
  stats::SimTime time = 0;
  cellnet::Plmn sim_plmn{};      // home operator of the SIM
  cellnet::Plmn visited_plmn{};  // network the device is attached to / trying
  Procedure procedure = Procedure::kAttach;
  ResultCode result = ResultCode::kOk;
  cellnet::Rat rat = cellnet::Rat::kFourG;
  cellnet::SectorId sector = 0;  // serving sector (MNO-side records only)
  cellnet::Tac tac = 0;          // equipment TAC (radio logs carry it, §4.1)
};
static_assert(std::is_trivially_copyable_v<SignalingTransaction>);

/// CSV projection used by trace export (one row per transaction).
[[nodiscard]] std::vector<std::string> to_csv_fields(const SignalingTransaction& txn);
[[nodiscard]] std::vector<std::string> csv_header();

/// Inverse of to_csv_fields. Returns nullopt on malformed rows (wrong field
/// count, unparseable PLMN/number, unknown enum name).
[[nodiscard]] std::optional<SignalingTransaction> from_csv_fields(
    std::span<const std::string> fields);

}  // namespace wtr::signaling
