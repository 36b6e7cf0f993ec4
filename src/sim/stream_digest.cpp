#include "sim/stream_digest.hpp"

#include <bit>
#include <cstdio>
#include <ostream>

namespace wtr::sim {

void StreamDigest::on_signaling(const signaling::SignalingTransaction& txn,
                                bool data_context) {
  mix(txn.device);
  mix(static_cast<std::uint64_t>(txn.time));
  mix(txn.sim_plmn.key());
  mix(txn.visited_plmn.key());
  mix(static_cast<std::uint64_t>(txn.procedure));
  mix(static_cast<std::uint64_t>(txn.result));
  mix(static_cast<std::uint64_t>(txn.rat));
  mix(txn.sector);
  mix(txn.tac);
  mix(data_context ? 1u : 0u);
  ++counts_.signaling;
}

void StreamDigest::on_cdr(const records::Cdr& cdr) {
  mix(cdr.device);
  mix(static_cast<std::uint64_t>(cdr.time));
  mix(cdr.sim_plmn.key());
  mix(cdr.visited_plmn.key());
  mix(std::bit_cast<std::uint64_t>(cdr.duration_s));
  mix(static_cast<std::uint64_t>(cdr.rat));
  ++counts_.cdr;
}

void StreamDigest::on_xdr(const records::Xdr& xdr) {
  mix(xdr.device);
  mix(static_cast<std::uint64_t>(xdr.time));
  mix(xdr.sim_plmn.key());
  mix(xdr.visited_plmn.key());
  mix(xdr.bytes_up);
  mix(xdr.bytes_down);
  for (const char c : xdr.apn) mix_byte(static_cast<std::uint8_t>(c));
  mix(static_cast<std::uint64_t>(xdr.rat));
  ++counts_.xdr;
}

void StreamDigest::on_dwell(signaling::DeviceHash device, std::int32_t day,
                            cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                            double seconds) {
  mix(device);
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(day)));
  mix(visited_plmn.key());
  mix(std::bit_cast<std::uint64_t>(location.lat));
  mix(std::bit_cast<std::uint64_t>(location.lon));
  mix(std::bit_cast<std::uint64_t>(seconds));
  ++counts_.dwell;
}

void StreamDigest::save_state(util::BinWriter& out) const {
  out.u64(hash_);
  out.u64(counts_.signaling);
  out.u64(counts_.cdr);
  out.u64(counts_.xdr);
  out.u64(counts_.dwell);
}

void StreamDigest::restore_state(util::BinReader& in) {
  hash_ = in.u64();
  counts_.signaling = in.u64();
  counts_.cdr = in.u64();
  counts_.xdr = in.u64();
  counts_.dwell = in.u64();
}

std::ostream& operator<<(std::ostream& out, const StreamDigest& digest) {
  char hash[20];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(digest.hash()));
  const auto& n = digest.counts();
  return out << "hash=" << hash << " signaling=" << n.signaling << " cdr=" << n.cdr
             << " xdr=" << n.xdr << " dwell=" << n.dwell;
}

}  // namespace wtr::sim
