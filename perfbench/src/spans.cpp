#include "spans.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "io/json.hpp"

namespace perfbench {

namespace {

constexpr int kBenchPid = 2;
constexpr int kEnginePid = 1;

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_metadata(std::string& out, const char* kind, int pid, int tid,
                     std::string_view name) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d",
                kind, pid, tid);
  out += buf;
  out += ",\"args\":{\"name\":\"";
  out += wtr::io::json_escape(name);
  out += "\"}}";
}

}  // namespace

void SpanLog::add(std::string name, std::string track, std::int64_t start_ns,
                  std::int64_t dur_ns, std::vector<std::pair<std::string, double>> args) {
  spans_.push_back(Span{std::move(name), std::move(track), start_ns,
                        dur_ns < 0 ? 0 : dur_ns, std::move(args)});
}

std::string shift_timestamps(const std::string& events, double offset_us) {
  static constexpr std::string_view kKey = "\"ts\":";
  std::string out;
  out.reserve(events.size() + events.size() / 8);
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = events.find(kKey, pos);
    if (hit == std::string::npos) break;
    const std::size_t value_at = hit + kKey.size();
    out.append(events, pos, value_at - pos);
    const char* begin = events.c_str() + value_at;
    char* end = nullptr;
    const double ts = std::strtod(begin, &end);
    if (end == begin) {  // not a number: copy through untouched
      pos = value_at;
      continue;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.3f", ts + offset_us);
    out += buf;
    pos = value_at + static_cast<std::size_t>(end - begin);
  }
  out.append(events, pos, std::string::npos);
  return out;
}

std::string SpanLog::to_chrome_json(const std::string& engine_json,
                                    std::int64_t engine_epoch_ns) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  append_metadata(out, "process_name", kBenchPid, 0, "perfbench");

  std::vector<std::string> tracks;
  for (const Span& span : spans_) {
    std::size_t tid = 0;
    while (tid < tracks.size() && tracks[tid] != span.track) ++tid;
    if (tid == tracks.size()) {
      tracks.push_back(span.track);
      out += ",\n";
      append_metadata(out, "thread_name", kBenchPid, static_cast<int>(tid), span.track);
    }
    out += ",\n{\"name\":\"";
    out += wtr::io::json_escape(span.name);
    out += "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":";
    append_number(out, static_cast<double>(span.start_ns) / 1000.0);
    out += ",\"dur\":";
    append_number(out, static_cast<double>(span.dur_ns) / 1000.0);
    char buf[48];
    std::snprintf(buf, sizeof buf, ",\"pid\":%d,\"tid\":%zu,\"args\":{", kBenchPid, tid);
    out += buf;
    for (std::size_t i = 0; i < span.args.size(); ++i) {
      if (i != 0) out += ',';
      out += '"';
      out += wtr::io::json_escape(span.args[i].first);
      out += "\":";
      append_number(out, span.args[i].second);
    }
    out += "}}";
  }

  // Splice the recorder's events (everything inside its traceEvents array).
  const std::size_t open = engine_json.find('[');
  const std::size_t close = engine_json.rfind(']');
  if (open != std::string::npos && close != std::string::npos && close > open + 1) {
    out += ",\n";
    append_metadata(out, "process_name", kEnginePid, 0, "engine");
    out += ",\n";
    out += shift_timestamps(engine_json.substr(open + 1, close - open - 1),
                            static_cast<double>(engine_epoch_ns) / 1000.0);
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
