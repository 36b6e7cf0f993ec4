#pragma once

// PLMN columns of the binary trace codecs: a PLMN travels as the block
// dictionary index of its Plmn::to_string() rendering. Shared by the
// signaling, CDR, xDR and dwell encoders.

#include <cstdint>

#include "cellnet/plmn.hpp"
#include "io/trace_columns.hpp"

namespace wtr::records {

/// Dictionary index of `plmn.to_string()`, looked up by a key packing all
/// three fields so the string is rendered only on the PLMN's first
/// appearance in the block. The rendering depends on those fields alone, so
/// the entries are exactly those of dict.intern(plmn.to_string()). The key
/// stays below 2^40; APN keys (records/xdr.cpp) set bit 63.
inline std::uint32_t intern_plmn(io::TraceDict& dict, cellnet::Plmn plmn) {
  const std::uint64_t key = (std::uint64_t{plmn.mcc()} << 24) |
                            (std::uint64_t{plmn.mnc()} << 8) | plmn.mnc_digits();
  return dict.intern(key, [plmn] { return plmn.to_string(); });
}

}  // namespace wtr::records
