#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "src/obs/json_util.h"

namespace eva {

using obs_internal::AppendJsonNumber;
using obs_internal::AppendJsonString;

std::uint32_t TraceRecorder::RegisterTrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(register_mutex_);
  tracks_.emplace_back();
  tracks_.back().name = name;
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void TraceRecorder::Push(std::uint32_t track, Phase phase, double start_s,
                         double end_s, const char* name,
                         const char* arg0_name, double arg0,
                         const char* arg1_name, double arg1) {
  // No lock: each track has exactly one emitter at a time (a simulator's
  // event loop is serial; the federation driver emits only from its
  // single-threaded barrier loop), and the deque never moves existing
  // Track objects.
  Track& t = tracks_[track];
  Span span;
  span.start_s = start_s;
  span.end_s = end_s;
  span.seq = t.emitted;
  span.name = name;
  span.arg0_name = arg0_name;
  span.arg1_name = arg1_name;
  span.arg0 = arg0;
  span.arg1 = arg1;
  span.phase = phase;
  if (t.ring.size() < options_.max_spans_per_track) {
    t.ring.push_back(span);
  } else {
    t.ring[static_cast<std::size_t>(t.emitted % options_.max_spans_per_track)] =
        span;
  }
  ++t.emitted;
}

std::size_t TraceRecorder::num_tracks() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  return tracks_.size();
}

std::uint64_t TraceRecorder::TotalEmitted() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  std::uint64_t total = 0;
  for (const Track& t : tracks_) total += t.emitted;
  return total;
}

std::uint64_t TraceRecorder::TotalRetained() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  std::uint64_t total = 0;
  for (const Track& t : tracks_) total += t.ring.size();
  return total;
}

std::string TraceRecorder::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(register_mutex_);

  struct Entry {
    const Span* span;
    std::uint32_t track;
  };
  std::vector<Entry> entries;
  std::uint64_t retained = 0;
  for (const Track& t : tracks_) retained += t.ring.size();
  entries.reserve(retained);
  for (std::uint32_t i = 0; i < tracks_.size(); ++i) {
    for (const Span& span : tracks_[i].ring) {
      entries.push_back({&span, i});
    }
  }
  // Merge order is a pure function of the recorded spans: virtual time,
  // then track id, then the track's own emit sequence.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return std::make_tuple(a.span->start_s, a.track, a.span->seq) <
           std::make_tuple(b.span->start_s, b.track, b.span->seq);
  });

  std::string out;
  out.reserve(128 + entries.size() * 96);
  out.append("{\"traceEvents\":[\n");
  bool first = true;
  auto comma = [&] {
    if (!first) out.append(",\n");
    first = false;
  };
  char buf[64];
  for (std::uint32_t i = 0; i < tracks_.size(); ++i) {
    comma();
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":0,\"tid\":%u,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":",
                  i);
    out.append(buf);
    AppendJsonString(&out, tracks_[i].name);
    out.append("}}");
  }
  for (const Entry& entry : entries) {
    const Span& span = *entry.span;
    comma();
    const char phase = span.phase == kInstant   ? 'i'
                       : span.phase == kComplete ? 'X'
                                                 : 'C';
    std::snprintf(buf, sizeof(buf), "{\"ph\":\"%c\",\"pid\":0,\"tid\":%u,",
                  phase, entry.track);
    out.append(buf);
    // Timestamps are virtual seconds rendered as trace_event microseconds.
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,", span.start_s * 1e6);
    out.append(buf);
    if (span.phase == kComplete) {
      std::snprintf(buf, sizeof(buf), "\"dur\":%.3f,",
                    (span.end_s - span.start_s) * 1e6);
      out.append(buf);
    }
    if (span.phase == kInstant) {
      out.append("\"s\":\"t\",");
    }
    out.append("\"name\":");
    AppendJsonString(&out, span.name != nullptr ? span.name : "");
    if (span.arg0_name != nullptr) {
      out.append(",\"args\":{");
      AppendJsonString(&out, span.arg0_name);
      out.push_back(':');
      AppendJsonNumber(&out, span.arg0);
      if (span.arg1_name != nullptr) {
        out.push_back(',');
        AppendJsonString(&out, span.arg1_name);
        out.push_back(':');
        AppendJsonNumber(&out, span.arg1);
      }
      out.push_back('}');
    }
    out.push_back('}');
  }
  out.append("\n]}\n");
  return out;
}

bool TraceRecorder::WriteChromeJson(const std::string& path) const {
  const std::string json = ToChromeJson();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool ok = written == json.size() && std::fclose(file) == 0;
  if (written != json.size()) std::fclose(file);
  return ok;
}

}  // namespace eva
