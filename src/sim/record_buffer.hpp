#pragma once

// Record log for the sharded engine: a bounded single-producer /
// single-consumer stream of wakes. It carries two hops. Shard -> merge: the
// shard thread (producer) streams every record its agents emit into its log
// instead of the real sinks and publishes each wake as soon as it finishes
// it; the merge thread (consumer) replays published wakes into the sinks in
// the exact single-threaded global order while the shard is still running
// its window. Merge -> relay: with more than one sink, the merge (producer)
// also writes each wake it replays into one log per further sink, and that
// sink's relay thread (consumer) replays the log into it, in the same order.
// The merge then calls the producer side of this API (open_window included)
// and the relay the consumer side; the waits, the bound and the failure
// paths are the same on both hops.
//
// Layout: fixed-size chunks holding one tagged entry per record, each wake
// opened by a wake entry (agent, record count, next scheduled wake). A wake
// that does not fit continues in the next chunk. Chunks never move while
// the producer appends, so a published wake can be read in place; the
// consumer releases each chunk it has read past, and the producer reuses
// released chunks. Every record type is plain data (an xDR names its APN by
// cellnet::ApnId), so an entry is its tag and a copy of the record, and the
// consumer hands the sinks the record where it lies.
//
// Synchronization: end_wake() publishes the wake count with a release store
// that the consumer acquires before it reads the wake; releasing a chunk is
// the matching edge back before the producer rewrites it. Either side that
// must wait spins briefly, then blocks on the other side's word; each side
// notifies only while the other is blocked.
//
// Bound: at a wake boundary the producer waits while it holds more than
// kLeadChunks chunks the consumer has not released (a single wake may
// overrun that with its own records), so a log's memory stays at about
// (kLeadChunks + 1) * kChunkBytes whatever the window length. This cannot
// deadlock: a producer over the bound holds at least one published wake the
// consumer has not read, so the consumer is never waiting on a waiting
// producer. (A merge waiting on a full relay log may hold a shard waiting
// on the merge; the relay's consumer still runs, on its own worker, and
// waits on nothing but the merge's publications.)
//
// Replay is strictly sequential per shard: within one shard, the relative
// order of two same-time wakes is the same under the shard-local and the
// global (time, seq) orders (their tie-breaking parents live in the same
// shard, by induction down to the agent-index-ordered initial schedule), so
// the consumer reads each log front to back.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/device_agent.hpp"
#include "sim/event_queue.hpp"

namespace wtr::sim {

class RecordBuffer final : public RecordSink {
 public:
  /// Sentinel "agent finished" next-wake value stored by end_wake().
  static constexpr stats::SimTime kNoNextWake = -1;
  /// Bytes per chunk, header included.
  static constexpr std::size_t kChunkBytes = std::size_t{64} * 1024;
  /// Unreleased chunks a producer may hold at a wake boundary before it
  /// waits for the consumer.
  static constexpr std::size_t kLeadChunks = 16;

  RecordBuffer();
  ~RecordBuffer() override;
  RecordBuffer(const RecordBuffer&) = delete;
  RecordBuffer& operator=(const RecordBuffer&) = delete;

  // --- producer side (shard thread; the merge for a relay) -----------------
  /// Open the records of one wake of `agent`.
  void begin_wake(AgentIndex agent);
  /// Close the open wake and publish it. `next_wake` is the agent's next
  /// scheduled wake (kNoNextWake when the agent is done).
  void end_wake(stats::SimTime next_wake);
  /// True when the producer holds more chunks than the bound allows; the
  /// caller then waits in make_room() at this wake boundary.
  [[nodiscard]] bool over_bound() const noexcept { return held_ > kLeadChunks; }
  /// Wait until the consumer has released enough chunks to get back under
  /// the bound. Returns false when the consumer abandoned the log (the
  /// producer should stop its window).
  bool make_room();
  /// Mark the current window finished: a consumer waiting for a further
  /// wake stops waiting.
  void finish_window();
  /// Close the log after a producer failure: a consumer waiting for a
  /// further wake stops waiting and sees failed().
  void close_failed() noexcept;

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override;
  void on_cdr(const records::Cdr& cdr) override;
  void on_xdr(const records::Xdr& xdr) override;
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override;

  // --- consumer side (merge thread; a relay's own thread) -------------------
  /// Reopen the log for the next window. Call before the producer starts
  /// that window, while no other thread uses the log.
  void open_window() noexcept;
  /// Wait until the next wake is published. Returns false when the producer
  /// finished its window or failed without publishing it.
  bool wait_for_wake();
  /// Agent owning the next published wake (requires wait_for_wake()).
  [[nodiscard]] AgentIndex peek_agent();
  /// Replay the next published wake into `out` and return the agent's next
  /// scheduled wake time (kNoNextWake when it has none).
  stats::SimTime replay_wake(RecordSink& out);
  /// Release a producer waiting for room and make every later make_room()
  /// return false. Used when the consumer stops before the window ends.
  void abandon() noexcept;

  /// True once the producer closed the log with close_failed().
  [[nodiscard]] bool failed() const noexcept;
  /// Wakes published by the producer and replayed by the consumer.
  [[nodiscard]] std::uint64_t published_wakes() const noexcept;
  [[nodiscard]] std::uint64_t consumed_wakes() const noexcept { return consumed_; }

  /// Bytes of chunk storage held: the high-water mark, since released chunks
  /// are reused, not freed. Read while the producer is idle. Telemetry only.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return owned_.size() * kChunkBytes;
  }

 private:
  struct Chunk;

  std::byte* reserve(std::size_t bytes);
  void next_chunk();
  Chunk* take_chunk();
  void reclaim(std::uint64_t released);
  void publish(std::uint64_t flags);
  void advance_chunk();

  // Producer-written, consumer-read: wakes published << 2 | window flags.
  alignas(64) std::atomic<std::uint64_t> published_{0};
  std::atomic<bool> producer_waiting_{false};
  // Consumer-written, producer-read: chunks released << 1 | abandoned bit.
  alignas(64) std::atomic<std::uint64_t> released_{0};
  std::atomic<bool> consumer_waiting_{false};

  // Producer state.
  alignas(64) std::byte* write_ = nullptr;
  std::byte* limit_ = nullptr;      // last position a chunk-switch tag fits
  Chunk* write_chunk_ = nullptr;    // chunk being written
  Chunk* oldest_ = nullptr;         // oldest chunk not yet reclaimed
  Chunk* free_ = nullptr;           // reclaimed chunks ready for reuse
  std::size_t held_ = 0;            // chunks from oldest_ to write_chunk_
  std::uint64_t reclaimed_ = 0;     // released chunks taken back so far
  std::uint64_t produced_ = 0;      // wakes published
  std::byte* open_wake_ = nullptr;  // wake entry of the open wake
  std::uint32_t open_records_ = 0;  // records in the open wake
  std::vector<std::unique_ptr<Chunk>> owned_;

  // Consumer state.
  alignas(64) const std::byte* read_ = nullptr;
  Chunk* read_chunk_ = nullptr;
  std::uint64_t consumed_ = 0;   // wakes replayed
  std::uint64_t visible_ = 0;    // wakes known published
  std::uint64_t released_count_ = 0;
  bool abandoned_ = false;
};

}  // namespace wtr::sim
