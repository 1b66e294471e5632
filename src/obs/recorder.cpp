#include "obs/recorder.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "obs/manifest.hpp"
#include "util/check.hpp"

namespace sdn::obs {

const char* ToString(EventKind kind) {
  switch (kind) {
    case EventKind::kPhase:
      return "phase";
    case EventKind::kAlgoPhase:
      return "algo_phase";
    case EventKind::kProbeSpawn:
      return "probe_spawn";
    case EventKind::kProbeComplete:
      return "probe_complete";
    case EventKind::kSketchMerge:
      return "sketch_merge";
    case EventKind::kCheckerWindow:
      return "checker_window";
    case EventKind::kBandwidthHighWater:
      return "bandwidth_high_water";
    case EventKind::kBandwidthViolation:
      return "bandwidth_violation";
    case EventKind::kCounter:
      return "counter";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()), capacity_(capacity) {
  SDN_CHECK(capacity_ >= 1);
  ring_.reserve(std::min(capacity_, {1024}));
}

void FlightRecorder::Emit(const Event& e) {
  const std::size_t slot = static_cast<std::size_t>(emitted_ % capacity_);
  if (slot < ring_.size()) {
    ring_[slot] = e;  // wraparound: overwrite the oldest event
  } else {
    ring_.push_back(e);
  }
  ++emitted_;
}

std::vector<Event> FlightRecorder::Drain() const {
  // Once the ring wrapped, emission order starts at the write cursor.
  const std::size_t head = emitted_ <= capacity_
                               ? 0
                               : static_cast<std::size_t>(emitted_ % capacity_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head));
  // Spans are emitted when they close, after events stamped inside them.
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.t_ns < b.t_ns;
  });
  return out;
}

void FlightRecorder::WriteJsonl(std::ostream& os,
                                const RunManifest* manifest) const {
  if (manifest != nullptr) {
    os << "{\"type\":\"manifest\",\"manifest\":" << manifest->ToJson()
       << "}\n";
  }
  os << "{\"type\":\"meta\",\"emitted\":" << total_emitted()
     << ",\"dropped\":" << dropped() << "}\n";
  for (const Event& e : Drain()) {
    os << "{\"type\":\"event\",\"kind\":\"" << ToString(e.kind)
       << "\",\"label\":\"" << e.label << "\",\"round\":" << e.round
       << ",\"t_ns\":" << e.t_ns;
    if (e.dur_ns != 0) os << ",\"dur_ns\":" << e.dur_ns;
    os << ",\"a\":" << e.a << ",\"b\":" << e.b;
    if (e.c != 0) os << ",\"c\":" << e.c;
    os << "}\n";
  }
}

bool FlightRecorder::WriteJsonl(const std::string& path,
                                const RunManifest* manifest) const {
  std::ofstream os(path);
  if (!os) return false;
  WriteJsonl(os, manifest);
  return static_cast<bool>(os);
}

namespace {

/// Microsecond timestamp for the Chrome trace format (which uses `us`).
double Us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

void ChromeEvent(std::ostream& os, bool& first, const std::string& body) {
  os << (first ? "\n  " : ",\n  ") << body;
  first = false;
}

}  // namespace

void FlightRecorder::WriteChromeTrace(std::ostream& os,
                                      const RunManifest* manifest) const {
  const std::vector<Event> events = Drain();
  os << "{\"traceEvents\": [";
  bool first = true;
  const auto meta = [&](int tid, const char* name) {
    std::string body = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,";
    body += "\"tid\":" + std::to_string(tid) + ",\"args\":{\"name\":\"";
    body += name;
    body += "\"}}";
    ChromeEvent(os, first, body);
  };
  ChromeEvent(os, first,
              "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
              "\"args\":{\"name\":\"sdn engine\"}}");
  meta(0, "engine phases");
  meta(1, "algorithm phase");
  meta(2, "flood probes");

  // Algorithm-phase spans: each transition lasts until the next (or the end
  // of the trace).
  std::int64_t trace_end = 0;
  for (const Event& e : events) {
    trace_end = std::max(trace_end, e.t_ns + e.dur_ns);
  }
  std::vector<const Event*> algo;
  for (const Event& e : events) {
    if (e.kind == EventKind::kAlgoPhase) algo.push_back(&e);
  }

  char buf[512];
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kPhase:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"engine\",\"ph\":\"X\","
                      "\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"round\":%lld}}",
                      e.label, Us(e.t_ns), Us(e.dur_ns),
                      static_cast<long long>(e.round));
        ChromeEvent(os, first, buf);
        break;
      case EventKind::kAlgoPhase:
        break;  // emitted as spans below
      case EventKind::kProbeSpawn:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"probe %lld spawn (src %lld)\","
                      "\"cat\":\"probe\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                      "\"tid\":2,\"ts\":%.3f,\"args\":{\"round\":%lld}}",
                      static_cast<long long>(e.a),
                      static_cast<long long>(e.b), Us(e.t_ns),
                      static_cast<long long>(e.round));
        ChromeEvent(os, first, buf);
        break;
      case EventKind::kProbeComplete:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"probe %lld complete (d=%lld)\","
                      "\"cat\":\"probe\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                      "\"tid\":2,\"ts\":%.3f,\"args\":{\"round\":%lld}}",
                      static_cast<long long>(e.a),
                      static_cast<long long>(e.b), Us(e.t_ns),
                      static_cast<long long>(e.round));
        ChromeEvent(os, first, buf);
        break;
      case EventKind::kSketchMerge:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"sketch merges\",\"ph\":\"C\",\"pid\":0,"
                      "\"ts\":%.3f,\"args\":{\"merges\":%lld}}",
                      Us(e.t_ns), static_cast<long long>(e.a));
        ChromeEvent(os, first, buf);
        break;
      case EventKind::kCheckerWindow:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"stable window edges\",\"ph\":\"C\","
                      "\"pid\":0,\"ts\":%.3f,"
                      "\"args\":{\"edges\":%lld,\"certified_T\":%lld}}",
                      Us(e.t_ns), static_cast<long long>(e.a),
                      static_cast<long long>(e.c));
        ChromeEvent(os, first, buf);
        break;
      case EventKind::kBandwidthHighWater:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"max message bits\",\"ph\":\"C\",\"pid\":0,"
                      "\"ts\":%.3f,\"args\":{\"bits\":%lld}}",
                      Us(e.t_ns), static_cast<long long>(e.a));
        ChromeEvent(os, first, buf);
        break;
      case EventKind::kBandwidthViolation:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"BANDWIDTH VIOLATION (node %lld, %lld "
                      "bits)\",\"cat\":\"engine\",\"ph\":\"i\",\"s\":\"g\","
                      "\"pid\":0,\"tid\":0,\"ts\":%.3f,"
                      "\"args\":{\"round\":%lld}}",
                      static_cast<long long>(e.b),
                      static_cast<long long>(e.a), Us(e.t_ns),
                      static_cast<long long>(e.round));
        ChromeEvent(os, first, buf);
        break;
      case EventKind::kCounter:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":0,\"ts\":%.3f,"
                      "\"args\":{\"value\":%lld}}",
                      e.label, Us(e.t_ns), static_cast<long long>(e.a));
        ChromeEvent(os, first, buf);
        break;
    }
  }
  for (std::size_t i = 0; i < algo.size(); ++i) {
    const Event& e = *algo[i];
    const std::int64_t end =
        (i + 1 < algo.size()) ? algo[i + 1]->t_ns : trace_end;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s #%lld\",\"cat\":\"algo\",\"ph\":\"X\","
                  "\"pid\":0,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"round\":%lld,\"phase_index\":%lld}}",
                  e.label, static_cast<long long>(e.a), Us(e.t_ns),
                  Us(std::max<std::int64_t>(0, end - e.t_ns)),
                  static_cast<long long>(e.round),
                  static_cast<long long>(e.a));
    ChromeEvent(os, first, buf);
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": ";
  if (manifest != nullptr) {
    os << manifest->ToJson();
  } else {
    os << "{}";
  }
  os << "\n}\n";
}

bool FlightRecorder::WriteChromeTrace(const std::string& path,
                                      const RunManifest* manifest) const {
  std::ofstream os(path);
  if (!os) return false;
  WriteChromeTrace(os, manifest);
  return static_cast<bool>(os);
}

}  // namespace sdn::obs
