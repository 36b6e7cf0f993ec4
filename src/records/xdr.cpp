#include "records/xdr.hpp"

#include "io/csv.hpp"
#include "records/plmn_column.hpp"

namespace wtr::records {

std::vector<std::string> xdr_csv_header() {
  return {"device", "time", "sim_plmn", "visited_plmn", "bytes_up", "bytes_down",
          "apn", "rat"};
}

std::vector<std::string> to_csv_fields(const Xdr& xdr) {
  return {std::to_string(xdr.device),
          std::to_string(xdr.time),
          xdr.sim_plmn.to_string(),
          xdr.visited_plmn.to_string(),
          std::to_string(xdr.bytes_up),
          std::to_string(xdr.bytes_down),
          std::string(xdr.apn.text()),
          std::string(cellnet::rat_name(xdr.rat))};
}

std::optional<Xdr> xdr_from_csv_fields(std::span<const std::string> fields) {
  if (fields.size() != xdr_csv_header().size()) return std::nullopt;
  const auto device = io::parse_u64(fields[0]);
  const auto time = io::parse_i64(fields[1]);
  const auto sim = cellnet::Plmn::parse(fields[2]);
  const auto visited = cellnet::Plmn::parse(fields[3]);
  const auto up = io::parse_u64(fields[4]);
  const auto down = io::parse_u64(fields[5]);
  const auto rat = cellnet::rat_from_name(fields[7]);
  if (!device || !time || !sim || !visited || !up || !down || !rat) return std::nullopt;
  Xdr xdr;
  xdr.device = *device;
  xdr.time = *time;
  xdr.sim_plmn = *sim;
  xdr.visited_plmn = *visited;
  xdr.bytes_up = *up;
  xdr.bytes_down = *down;
  xdr.apn = cellnet::ApnId::intern(fields[6]);
  xdr.rat = *rat;
  return xdr;
}

void XdrColumns::clear() {
  device.clear();
  time.clear();
  sim_plmn.clear();
  visited_plmn.clear();
  bytes_up.clear();
  bytes_down.clear();
  apn.clear();
  rat.clear();
}

void bin_append(XdrColumns& columns, io::TraceDict& dict, const Xdr& xdr) {
  columns.device.push_back(xdr.device);
  columns.time.push_back(xdr.time);
  columns.sim_plmn.push_back(intern_plmn(dict, xdr.sim_plmn));
  columns.visited_plmn.push_back(intern_plmn(dict, xdr.visited_plmn));
  columns.bytes_up.push_back(xdr.bytes_up);
  columns.bytes_down.push_back(xdr.bytes_down);
  // Keyed by the id with the top bit set, which no PLMN key reaches
  // (records/plmn_column.hpp), so the text is copied once per block.
  columns.apn.push_back(dict.intern((std::uint64_t{1} << 63) | xdr.apn.key(),
                                    [apn = xdr.apn] { return apn.text(); }));
  columns.rat.push_back(static_cast<std::uint8_t>(xdr.rat));
}

void bin_write(util::BinWriter& out, const XdrColumns& columns) {
  io::write_varint_column(out, columns.device);
  io::write_delta_column(out, columns.time);
  io::write_dict_column(out, columns.sim_plmn);
  io::write_dict_column(out, columns.visited_plmn);
  io::write_varint_column(out, columns.bytes_up);
  io::write_varint_column(out, columns.bytes_down);
  io::write_dict_column(out, columns.apn);
  io::write_u8_column(out, columns.rat);
}

XdrColumns bin_read_xdr(util::BinReader& in, std::size_t n, std::size_t dict_size) {
  XdrColumns columns;
  columns.device = io::read_varint_column(in, n);
  columns.time = io::read_delta_column(in, n);
  columns.sim_plmn = io::read_dict_column(in, n, dict_size);
  columns.visited_plmn = io::read_dict_column(in, n, dict_size);
  columns.bytes_up = io::read_varint_column(in, n);
  columns.bytes_down = io::read_varint_column(in, n);
  columns.apn = io::read_dict_column(in, n, dict_size);
  columns.rat = io::read_u8_column(in, n);
  return columns;
}

std::vector<cellnet::ApnId> bin_intern_apns(const XdrColumns& columns,
                                             std::span<const std::string> dict) {
  std::vector<cellnet::ApnId> apns(dict.size());
  // An empty entry stays empty; interning the empty text takes no lock.
  for (const std::uint32_t i : columns.apn) {
    if (apns[i].empty()) apns[i] = cellnet::ApnId::intern(dict[i]);
  }
  return apns;
}

std::optional<Xdr> bin_extract(const XdrColumns& columns,
                               std::span<const std::optional<cellnet::Plmn>> plmns,
                               std::span<const cellnet::ApnId> apns, std::size_t i) {
  const auto& sim = plmns[columns.sim_plmn[i]];
  const auto& visited = plmns[columns.visited_plmn[i]];
  if (!sim || !visited || columns.rat[i] >= cellnet::kRatCount) return std::nullopt;
  Xdr xdr;
  xdr.device = columns.device[i];
  xdr.time = columns.time[i];
  xdr.sim_plmn = *sim;
  xdr.visited_plmn = *visited;
  xdr.bytes_up = columns.bytes_up[i];
  xdr.bytes_down = columns.bytes_down[i];
  xdr.apn = apns[columns.apn[i]];
  xdr.rat = static_cast<cellnet::Rat>(columns.rat[i]);
  return xdr;
}

}  // namespace wtr::records
