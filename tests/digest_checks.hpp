#pragma once

// The check every determinism suite makes before comparing two
// sim::StreamDigests: each record family the scenario emits is present,
// since equal digests over an empty family say nothing about it.

#include <gtest/gtest.h>

#include "sim/stream_digest.hpp"

namespace wtr {

/// Signaling, CDR, xDR and — unless `dwell` is false — dwell records were
/// all seen. Storm herds attach, report and detach within one wake, so they
/// accrue no dwell time.
inline void expect_families(const sim::StreamDigest& stream, bool dwell = true) {
  EXPECT_GT(stream.counts().signaling, 0u) << stream;
  EXPECT_GT(stream.counts().cdr, 0u) << stream;
  EXPECT_GT(stream.counts().xdr, 0u) << stream;
  if (dwell) {
    EXPECT_GT(stream.counts().dwell, 0u) << stream;
  }
}

}  // namespace wtr
