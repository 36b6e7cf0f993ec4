#pragma once

// A digest of the record stream: FNV-1a-64 over every field of every
// record, in stream order (doubles by bit pattern, APNs byte by byte), plus
// a record count per family. Two runs emitted the same stream exactly when
// their digests compare equal, which is how the determinism contracts
// (threads=1 ≡ threads=N, interrupted+resumed ≡ uninterrupted, tracing on ≡
// off) are checked without holding the stream in memory.
//
// Checkpointable: registered with Engine::register_checkpointable, its
// state rides in snapshots, so a resumed run continues the digest from the
// snapshot instant and must end equal to the uninterrupted run's.

#include <cstdint>
#include <iosfwd>

#include "ckpt/snapshot.hpp"
#include "sim/device_agent.hpp"

namespace wtr::sim {

class StreamDigest final : public RecordSink, public ckpt::Checkpointable {
 public:
  /// Records seen per family. Checkpointed and compared, but not folded
  /// into the hash.
  struct Counts {
    std::uint64_t signaling = 0;
    std::uint64_t cdr = 0;
    std::uint64_t xdr = 0;
    std::uint64_t dwell = 0;

    friend bool operator==(const Counts&, const Counts&) = default;
  };

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override;
  void on_cdr(const records::Cdr& cdr) override;
  void on_xdr(const records::Xdr& xdr) override;
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override;

  void save_state(util::BinWriter& out) const override;
  void restore_state(util::BinReader& in) override;

  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }
  /// Records of all families.
  [[nodiscard]] std::uint64_t records() const noexcept {
    return counts_.signaling + counts_.cdr + counts_.xdr + counts_.dwell;
  }

  /// Equal hashes and equal per-family counts.
  friend bool operator==(const StreamDigest& a, const StreamDigest& b) noexcept {
    return a.hash_ == b.hash_ && a.counts_ == b.counts_;
  }

 private:
  void mix_byte(std::uint8_t b) noexcept {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }

  std::uint64_t hash_ = 14695981039346656037ull;
  Counts counts_;
};

/// "hash=<16 hex digits> signaling=N cdr=N xdr=N dwell=N".
std::ostream& operator<<(std::ostream& out, const StreamDigest& digest);

}  // namespace wtr::sim
