#include "ckpt/snapshot.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "obs/trace.hpp"
#include "util/crc32.hpp"

namespace wtr::ckpt {

namespace {

constexpr char kHeaderMagic[8] = {'W', 'T', 'R', 'C', 'K', 'P', 'T', '1'};
constexpr char kFooterMagic[8] = {'W', 'T', 'R', 'C', 'K', 'E', 'N', 'D'};
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4 + 4;
constexpr std::size_t kFooterSize = 4 + 8;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw SnapshotError("snapshot " + path + ": " + what);
}

[[noreturn]] void fail_errno(const std::string& path, const std::string& what) {
  fail(path, what + ": " + std::strerror(errno));
}

std::string build_header(std::size_t payload_size, std::uint32_t payload_crc) {
  util::BinWriter header;
  header.raw(kHeaderMagic, sizeof kHeaderMagic);
  header.u32(kSnapshotVersion);
  header.u64(payload_size);
  header.u32(payload_crc);
  header.u32(util::crc32(header.bytes()));
  return header.take();
}

}  // namespace

void write_snapshot_atomic(const std::string& path, std::string_view payload,
                           obs::FlightRecorder* trace,
                           std::uint32_t trace_track) {
  const std::string tmp = path + ".tmp";
  obs::TraceSpan write_span(trace, trace_track, obs::TraceCat::kCheckpoint,
                            "ckpt_write");
  write_span.set_args("payload_bytes", static_cast<std::int64_t>(payload.size()));

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail_errno(path, "cannot create " + tmp);

  // Header and footer carry the same payload CRC: compute it once.
  const std::uint32_t payload_crc = util::crc32(payload);
  const std::string header = build_header(payload.size(), payload_crc);
  util::BinWriter footer;
  footer.u32(payload_crc);
  footer.raw(kFooterMagic, sizeof kFooterMagic);

  auto write_all = [&](std::string_view bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        ::unlink(tmp.c_str());
        fail_errno(path, "write to " + tmp + " failed");
      }
      done += static_cast<std::size_t>(n);
    }
  };
  write_all(header);
  write_all(payload);
  write_all(footer.bytes());

  // Durability before visibility: the data must be on disk before the
  // rename makes it the snapshot a resume would trust. The fsync gets its
  // own span — it routinely dominates checkpoint wall time, and a stall
  // here is exactly what a flight-recorder trace exists to show.
  {
    obs::TraceSpan fsync_span(trace, trace_track, obs::TraceCat::kCheckpoint,
                              "ckpt_fsync");
    if (::fsync(fd) != 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      fail_errno(path, "fsync of " + tmp + " failed");
    }
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail_errno(path, "close of " + tmp + " failed");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail_errno(path, "rename " + tmp + " -> " + path + " failed");
  }

  // Best-effort directory fsync so the rename itself survives power loss;
  // failure here is not fatal (the file content is already durable).
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

std::string read_snapshot(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) fail_errno(path, "cannot open");
  std::string bytes;
  char chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) bytes.append(chunk, n);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) fail(path, "read error");

  if (bytes.size() < kHeaderSize + kFooterSize) {
    fail(path, "truncated: " + std::to_string(bytes.size()) +
                   " bytes is smaller than the minimum snapshot frame");
  }
  util::BinReader header{std::string_view(bytes).substr(0, kHeaderSize)};
  char magic[8];
  for (auto& c : magic) c = static_cast<char>(header.u8());
  if (std::memcmp(magic, kHeaderMagic, sizeof magic) != 0) {
    fail(path, "bad magic (not a wtr checkpoint snapshot)");
  }
  const std::uint32_t version = header.u32();
  if (version != kSnapshotVersion) {
    fail(path, "format version " + std::to_string(version) + " unsupported (want " +
                   std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint64_t payload_size = header.u64();
  const std::uint32_t payload_crc = header.u32();
  const std::uint32_t header_crc = header.u32();
  if (util::crc32(std::string_view(bytes).substr(0, kHeaderSize - 4)) != header_crc) {
    fail(path, "header CRC mismatch (corrupted header)");
  }
  if (bytes.size() != kHeaderSize + payload_size + kFooterSize) {
    fail(path, "length mismatch: header declares " + std::to_string(payload_size) +
                   " payload bytes but file holds " +
                   std::to_string(bytes.size() - kHeaderSize - kFooterSize) +
                   " (torn write?)");
  }
  const std::string_view payload =
      std::string_view(bytes).substr(kHeaderSize, static_cast<std::size_t>(payload_size));
  if (util::crc32(payload) != payload_crc) {
    fail(path, "payload CRC mismatch (corrupted snapshot)");
  }
  util::BinReader footer{
      std::string_view(bytes).substr(kHeaderSize + static_cast<std::size_t>(payload_size))};
  if (footer.u32() != payload_crc) fail(path, "footer CRC mismatch (torn tail)");
  for (const char expected : kFooterMagic) {
    if (static_cast<char>(footer.u8()) != expected) {
      fail(path, "bad footer magic (torn tail)");
    }
  }
  return std::string(payload);
}

}  // namespace wtr::ckpt
