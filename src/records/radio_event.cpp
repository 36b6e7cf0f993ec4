#include "records/radio_event.hpp"

#include "records/plmn_column.hpp"

namespace wtr::records {

RadioEvent make_radio_event(const signaling::SignalingTransaction& txn,
                            bool data_context) {
  RadioEvent event;
  event.txn = txn;
  event.iface = cellnet::interface_for(txn.rat, data_context);
  return event;
}

void RadioColumns::clear() {
  device.clear();
  time.clear();
  sim_plmn.clear();
  visited_plmn.clear();
  procedure.clear();
  result.clear();
  rat.clear();
  sector.clear();
  tac.clear();
  data_context.clear();
}

void bin_append(RadioColumns& columns, io::TraceDict& dict,
                const signaling::SignalingTransaction& txn, bool data_context) {
  columns.device.push_back(txn.device);
  columns.time.push_back(txn.time);
  columns.sim_plmn.push_back(intern_plmn(dict, txn.sim_plmn));
  columns.visited_plmn.push_back(intern_plmn(dict, txn.visited_plmn));
  columns.procedure.push_back(static_cast<std::uint8_t>(txn.procedure));
  columns.result.push_back(static_cast<std::uint8_t>(txn.result));
  columns.rat.push_back(static_cast<std::uint8_t>(txn.rat));
  columns.sector.push_back(txn.sector);
  columns.tac.push_back(txn.tac);
  columns.data_context.push_back(data_context);
}

void bin_write(util::BinWriter& out, const RadioColumns& columns) {
  io::write_varint_column(out, columns.device);
  io::write_delta_column(out, columns.time);
  io::write_dict_column(out, columns.sim_plmn);
  io::write_dict_column(out, columns.visited_plmn);
  io::write_u8_column(out, columns.procedure);
  io::write_u8_column(out, columns.result);
  io::write_u8_column(out, columns.rat);
  io::write_varint_column(out, columns.sector);
  io::write_varint_column(out, columns.tac);
  io::write_bit_column(out, columns.data_context);
}

RadioColumns bin_read_radio(util::BinReader& in, std::size_t n,
                            std::size_t dict_size) {
  RadioColumns columns;
  columns.device = io::read_varint_column(in, n);
  columns.time = io::read_delta_column(in, n);
  columns.sim_plmn = io::read_dict_column(in, n, dict_size);
  columns.visited_plmn = io::read_dict_column(in, n, dict_size);
  columns.procedure = io::read_u8_column(in, n);
  columns.result = io::read_u8_column(in, n);
  columns.rat = io::read_u8_column(in, n);
  columns.sector = io::read_varint_column(in, n);
  columns.tac = io::read_varint_column(in, n);
  columns.data_context = io::read_bit_column(in, n);
  return columns;
}

std::optional<std::pair<signaling::SignalingTransaction, bool>> bin_extract(
    const RadioColumns& columns,
    std::span<const std::optional<cellnet::Plmn>> plmns, std::size_t i) {
  const auto& sim = plmns[columns.sim_plmn[i]];
  const auto& visited = plmns[columns.visited_plmn[i]];
  if (!sim || !visited || columns.procedure[i] >= signaling::kProcedureCount ||
      columns.result[i] >= signaling::kResultCodeCount ||
      columns.rat[i] >= cellnet::kRatCount) {
    return std::nullopt;
  }
  signaling::SignalingTransaction txn;
  txn.device = columns.device[i];
  txn.time = columns.time[i];
  txn.sim_plmn = *sim;
  txn.visited_plmn = *visited;
  txn.procedure = static_cast<signaling::Procedure>(columns.procedure[i]);
  txn.result = static_cast<signaling::ResultCode>(columns.result[i]);
  txn.rat = static_cast<cellnet::Rat>(columns.rat[i]);
  txn.sector = static_cast<cellnet::SectorId>(columns.sector[i]);
  txn.tac = static_cast<cellnet::Tac>(columns.tac[i]);
  return std::make_pair(txn, static_cast<bool>(columns.data_context[i]));
}

}  // namespace wtr::records
