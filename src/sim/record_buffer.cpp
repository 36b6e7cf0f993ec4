#include "sim/record_buffer.hpp"

#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace wtr::sim {

namespace {

// Every entry starts with its tag. kNextChunk ends a chunk's data: the
// stream continues at the start of the chunk's successor.
enum class Tag : std::uint8_t { kWake, kSignaling, kCdr, kXdr, kDwell, kNextChunk };

struct WakeEntry {
  Tag tag = Tag::kWake;
  std::uint32_t records = 0;
  stats::SimTime next_wake = RecordBuffer::kNoNextWake;
  AgentIndex agent = 0;
};
struct SignalingEntry {
  Tag tag = Tag::kSignaling;
  bool data_context = false;
  signaling::SignalingTransaction txn;
};
struct CdrEntry {
  Tag tag = Tag::kCdr;
  records::Cdr cdr;
};
/// Followed by `apn_size` bytes of APN text.
struct XdrEntry {
  Tag tag = Tag::kXdr;
  cellnet::Rat rat = cellnet::Rat::kTwoG;
  std::uint32_t apn_size = 0;
  signaling::DeviceHash device = 0;
  stats::SimTime time = 0;
  cellnet::Plmn sim_plmn{};
  cellnet::Plmn visited_plmn{};
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
};
struct DwellEntry {
  Tag tag = Tag::kDwell;
  std::int32_t day = 0;
  signaling::DeviceHash device = 0;
  cellnet::Plmn visited_plmn{};
  cellnet::GeoPoint location{};
  double seconds = 0.0;
};

constexpr std::size_t kAlign = 8;
static_assert(std::is_trivially_copyable_v<WakeEntry> &&
              std::is_trivially_copyable_v<SignalingEntry> &&
              std::is_trivially_copyable_v<CdrEntry> &&
              std::is_trivially_copyable_v<XdrEntry> &&
              std::is_trivially_copyable_v<DwellEntry>);
static_assert(sizeof(WakeEntry) % kAlign == 0 && sizeof(SignalingEntry) % kAlign == 0 &&
              sizeof(CdrEntry) % kAlign == 0 && sizeof(XdrEntry) % kAlign == 0 &&
              sizeof(DwellEntry) % kAlign == 0);

constexpr std::size_t round_up(std::size_t bytes) noexcept {
  return (bytes + kAlign - 1) & ~(kAlign - 1);
}

template <typename Entry>
const Entry& entry_at(const std::byte* at) noexcept {
  return *std::launder(reinterpret_cast<const Entry*>(at));
}

Tag tag_at(const std::byte* at) noexcept {
  return *std::launder(reinterpret_cast<const Tag*>(at));
}

// published_ flag bits below the wake count.
constexpr std::uint64_t kWindowDone = 1;
constexpr std::uint64_t kFailed = 2;
constexpr std::uint64_t kFlagBits = kWindowDone | kFailed;
// released_ flag bit below the chunk count.
constexpr std::uint64_t kAbandoned = 1;

// Bounded spin before a waiting side blocks. A wake takes a microsecond or
// so, so a short spin catches most publications without a futex round trip;
// a long one would steal the core from a shard on a fully subscribed host.
constexpr int kSpins = 256;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

struct RecordBuffer::Chunk {
  Chunk* next = nullptr;
  std::byte data[kChunkBytes - sizeof(Chunk*)];
};

RecordBuffer::RecordBuffer() {
  static_assert(sizeof(Chunk) == kChunkBytes);
  Chunk* first = take_chunk();
  write_chunk_ = oldest_ = read_chunk_ = first;
  held_ = 1;
  write_ = first->data;
  limit_ = first->data + sizeof(first->data) - kAlign;
  read_ = first->data;
}

RecordBuffer::~RecordBuffer() = default;

// --- producer ----------------------------------------------------------------

RecordBuffer::Chunk* RecordBuffer::take_chunk() {
  if (free_ == nullptr) reclaim(released_.load(std::memory_order_acquire) >> 1);
  if (free_ != nullptr) {
    Chunk* chunk = free_;
    free_ = chunk->next;
    return chunk;
  }
  owned_.push_back(std::unique_ptr<Chunk>(new Chunk));
  return owned_.back().get();
}

void RecordBuffer::reclaim(std::uint64_t released) {
  // The consumer releases chunks in the order they were written, so the
  // released ones are the oldest still held.
  while (reclaimed_ < released) {
    Chunk* chunk = oldest_;
    oldest_ = chunk->next;
    chunk->next = free_;
    free_ = chunk;
    ++reclaimed_;
    --held_;
  }
}

void RecordBuffer::next_chunk() {
  Chunk* chunk = take_chunk();
  // Link before the tag: both become visible with the next publication.
  write_chunk_->next = chunk;
  new (write_) Tag(Tag::kNextChunk);
  write_chunk_ = chunk;
  ++held_;
  write_ = chunk->data;
  limit_ = chunk->data + sizeof(chunk->data) - kAlign;
}

std::byte* RecordBuffer::reserve(std::size_t bytes) {
  // limit_ keeps room for the kNextChunk tag behind the last entry.
  if (bytes > static_cast<std::size_t>(limit_ - write_)) next_chunk();
  std::byte* at = write_;
  write_ += bytes;
  return at;
}

void RecordBuffer::begin_wake(AgentIndex agent) {
  open_wake_ = reserve(sizeof(WakeEntry));
  new (open_wake_) WakeEntry{Tag::kWake, 0, kNoNextWake, agent};
  open_records_ = 0;
}

void RecordBuffer::end_wake(stats::SimTime next_wake) {
  auto* wake = std::launder(reinterpret_cast<WakeEntry*>(open_wake_));
  wake->records = open_records_;
  wake->next_wake = next_wake;
  ++produced_;
  publish(0);
}

void RecordBuffer::publish(std::uint64_t flags) {
  // seq_cst store then seq_cst load: either this side sees the consumer's
  // waiting flag, or the consumer's re-check after raising it sees the store.
  published_.store((produced_ << 2) | flags, std::memory_order_seq_cst);
  if (consumer_waiting_.load(std::memory_order_seq_cst)) published_.notify_one();
}

void RecordBuffer::finish_window() { publish(kWindowDone); }

void RecordBuffer::close_failed() noexcept { publish(kFailed); }

bool RecordBuffer::make_room() {
  for (;;) {
    std::uint64_t word = released_.load(std::memory_order_acquire);
    reclaim(word >> 1);
    if (held_ <= kLeadChunks) return true;
    if ((word & kAbandoned) != 0) return false;
    bool moved = false;
    for (int spin = 0; spin < kSpins && !moved; ++spin) {
      cpu_relax();
      moved = released_.load(std::memory_order_relaxed) != word;
    }
    if (moved) continue;
    producer_waiting_.store(true, std::memory_order_seq_cst);
    released_.wait(word, std::memory_order_seq_cst);
    producer_waiting_.store(false, std::memory_order_relaxed);
  }
}

void RecordBuffer::on_signaling(const signaling::SignalingTransaction& txn,
                                bool data_context) {
  new (reserve(sizeof(SignalingEntry)))
      SignalingEntry{Tag::kSignaling, data_context, txn};
  ++open_records_;
}

void RecordBuffer::on_cdr(const records::Cdr& cdr) {
  new (reserve(sizeof(CdrEntry))) CdrEntry{Tag::kCdr, cdr};
  ++open_records_;
}

void RecordBuffer::on_xdr(const records::Xdr& xdr) {
  const std::size_t bytes = round_up(sizeof(XdrEntry) + xdr.apn.size());
  if (bytes > sizeof(Chunk::data) - kAlign) {
    throw std::length_error("sim::RecordBuffer: xDR APN of " +
                            std::to_string(xdr.apn.size()) +
                            " bytes does not fit a record log chunk");
  }
  std::byte* at = reserve(bytes);
  new (at) XdrEntry{Tag::kXdr,         xdr.rat,
                    static_cast<std::uint32_t>(xdr.apn.size()),
                    xdr.device,         xdr.time,
                    xdr.sim_plmn,       xdr.visited_plmn,
                    xdr.bytes_up,       xdr.bytes_down};
  std::memcpy(at + sizeof(XdrEntry), xdr.apn.data(), xdr.apn.size());
  ++open_records_;
}

void RecordBuffer::on_dwell(signaling::DeviceHash device, std::int32_t day,
                            cellnet::Plmn visited_plmn,
                            const cellnet::GeoPoint& location, double seconds) {
  new (reserve(sizeof(DwellEntry)))
      DwellEntry{Tag::kDwell, day, device, visited_plmn, location, seconds};
  ++open_records_;
}

// --- consumer ----------------------------------------------------------------

void RecordBuffer::open_window() noexcept {
  published_.fetch_and(~kWindowDone, std::memory_order_relaxed);
}

bool RecordBuffer::wait_for_wake() {
  if (consumed_ < visible_) return true;
  std::uint64_t word = published_.load(std::memory_order_acquire);
  for (;;) {
    if ((word >> 2) > consumed_) {
      visible_ = word >> 2;
      return true;
    }
    if ((word & kFlagBits) != 0) return false;
    bool moved = false;
    for (int spin = 0; spin < kSpins && !moved; ++spin) {
      cpu_relax();
      moved = published_.load(std::memory_order_relaxed) != word;
    }
    if (!moved) {
      consumer_waiting_.store(true, std::memory_order_seq_cst);
      published_.wait(word, std::memory_order_seq_cst);
      consumer_waiting_.store(false, std::memory_order_relaxed);
    }
    word = published_.load(std::memory_order_acquire);
  }
}

void RecordBuffer::advance_chunk() {
  // Read the link before releasing: the producer may rewrite a released
  // chunk at once.
  Chunk* next = read_chunk_->next;
  read_chunk_ = next;
  read_ = next->data;
  ++released_count_;
  released_.store((released_count_ << 1) | (abandoned_ ? kAbandoned : 0),
                  std::memory_order_seq_cst);
  if (producer_waiting_.load(std::memory_order_seq_cst)) released_.notify_one();
}

AgentIndex RecordBuffer::peek_agent() {
  if (tag_at(read_) == Tag::kNextChunk) advance_chunk();
  return entry_at<WakeEntry>(read_).agent;
}

stats::SimTime RecordBuffer::replay_wake(RecordSink& out) {
  if (tag_at(read_) == Tag::kNextChunk) advance_chunk();
  // Copy the wake entry out: its chunk may be released mid-wake.
  const WakeEntry wake = entry_at<WakeEntry>(read_);
  read_ += sizeof(WakeEntry);
  std::uint32_t left = wake.records;
  while (left > 0) {
    switch (tag_at(read_)) {
      case Tag::kNextChunk:
        advance_chunk();
        continue;
      case Tag::kSignaling: {
        const auto& item = entry_at<SignalingEntry>(read_);
        out.on_signaling(item.txn, item.data_context);
        read_ += sizeof(SignalingEntry);
        break;
      }
      case Tag::kCdr:
        out.on_cdr(entry_at<CdrEntry>(read_).cdr);
        read_ += sizeof(CdrEntry);
        break;
      case Tag::kXdr: {
        const auto& item = entry_at<XdrEntry>(read_);
        xdr_.device = item.device;
        xdr_.time = item.time;
        xdr_.sim_plmn = item.sim_plmn;
        xdr_.visited_plmn = item.visited_plmn;
        xdr_.bytes_up = item.bytes_up;
        xdr_.bytes_down = item.bytes_down;
        xdr_.rat = item.rat;
        xdr_.apn.assign(reinterpret_cast<const char*>(read_ + sizeof(XdrEntry)),
                        item.apn_size);
        out.on_xdr(xdr_);
        read_ += round_up(sizeof(XdrEntry) + item.apn_size);
        break;
      }
      case Tag::kDwell: {
        const auto& item = entry_at<DwellEntry>(read_);
        out.on_dwell(item.device, item.day, item.visited_plmn, item.location,
                     item.seconds);
        read_ += sizeof(DwellEntry);
        break;
      }
      case Tag::kWake:
        throw std::logic_error("sim::RecordBuffer: wake entry inside a wake's records");
    }
    --left;
  }
  ++consumed_;
  return wake.next_wake;
}

void RecordBuffer::abandon() noexcept {
  abandoned_ = true;
  released_.store((released_count_ << 1) | kAbandoned, std::memory_order_seq_cst);
  released_.notify_one();
}

bool RecordBuffer::failed() const noexcept {
  return (published_.load(std::memory_order_acquire) & kFailed) != 0;
}

std::uint64_t RecordBuffer::published_wakes() const noexcept {
  return published_.load(std::memory_order_acquire) >> 2;
}

}  // namespace wtr::sim
