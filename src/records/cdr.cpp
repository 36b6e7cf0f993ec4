#include "records/cdr.hpp"

#include "io/csv.hpp"
#include "io/table.hpp"
#include "records/plmn_column.hpp"

namespace wtr::records {

std::vector<std::string> cdr_csv_header() {
  return {"device", "time", "sim_plmn", "visited_plmn", "duration_s", "rat"};
}

std::vector<std::string> to_csv_fields(const Cdr& cdr) {
  return {std::to_string(cdr.device),
          std::to_string(cdr.time),
          cdr.sim_plmn.to_string(),
          cdr.visited_plmn.to_string(),
          io::format_fixed(cdr.duration_s, 1),
          std::string(cellnet::rat_name(cdr.rat))};
}

std::optional<Cdr> cdr_from_csv_fields(std::span<const std::string> fields) {
  if (fields.size() != cdr_csv_header().size()) return std::nullopt;
  const auto device = io::parse_u64(fields[0]);
  const auto time = io::parse_i64(fields[1]);
  const auto sim = cellnet::Plmn::parse(fields[2]);
  const auto visited = cellnet::Plmn::parse(fields[3]);
  const auto duration = io::parse_double(fields[4]);
  const auto rat = cellnet::rat_from_name(fields[5]);
  if (!device || !time || !sim || !visited || !duration || !rat) return std::nullopt;
  Cdr cdr;
  cdr.device = *device;
  cdr.time = *time;
  cdr.sim_plmn = *sim;
  cdr.visited_plmn = *visited;
  cdr.duration_s = *duration;
  cdr.rat = *rat;
  return cdr;
}

void CdrColumns::clear() {
  device.clear();
  time.clear();
  sim_plmn.clear();
  visited_plmn.clear();
  duration_s.clear();
  rat.clear();
}

void bin_append(CdrColumns& columns, io::TraceDict& dict, const Cdr& cdr) {
  columns.device.push_back(cdr.device);
  columns.time.push_back(cdr.time);
  columns.sim_plmn.push_back(intern_plmn(dict, cdr.sim_plmn));
  columns.visited_plmn.push_back(intern_plmn(dict, cdr.visited_plmn));
  columns.duration_s.push_back(cdr.duration_s);
  columns.rat.push_back(static_cast<std::uint8_t>(cdr.rat));
}

void bin_write(util::BinWriter& out, const CdrColumns& columns) {
  io::write_varint_column(out, columns.device);
  io::write_delta_column(out, columns.time);
  io::write_dict_column(out, columns.sim_plmn);
  io::write_dict_column(out, columns.visited_plmn);
  io::write_f64_column(out, columns.duration_s);
  io::write_u8_column(out, columns.rat);
}

CdrColumns bin_read_cdr(util::BinReader& in, std::size_t n, std::size_t dict_size) {
  CdrColumns columns;
  columns.device = io::read_varint_column(in, n);
  columns.time = io::read_delta_column(in, n);
  columns.sim_plmn = io::read_dict_column(in, n, dict_size);
  columns.visited_plmn = io::read_dict_column(in, n, dict_size);
  columns.duration_s = io::read_f64_column(in, n);
  columns.rat = io::read_u8_column(in, n);
  return columns;
}

std::optional<Cdr> bin_extract(const CdrColumns& columns,
                               std::span<const std::optional<cellnet::Plmn>> plmns,
                               std::size_t i) {
  const auto& sim = plmns[columns.sim_plmn[i]];
  const auto& visited = plmns[columns.visited_plmn[i]];
  if (!sim || !visited || columns.rat[i] >= cellnet::kRatCount) return std::nullopt;
  Cdr cdr;
  cdr.device = columns.device[i];
  cdr.time = columns.time[i];
  cdr.sim_plmn = *sim;
  cdr.visited_plmn = *visited;
  cdr.duration_s = columns.duration_s[i];
  cdr.rat = static_cast<cellnet::Rat>(columns.rat[i]);
  return cdr;
}

}  // namespace wtr::records
