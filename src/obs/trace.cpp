#include "obs/trace.hpp"

#include <ostream>
#include <string>

#include "util/json.hpp"

namespace p2prank::obs {

// Pin the wire-format version in the file that implements the writer: an
// edit to the event JSON below must come with a schema bump here.
static_assert(kTraceSchema == "p2prank-trace-v1");

Tracer::Tracer(std::size_t max_events) : max_events_(max_events) {}

void Tracer::instant(std::string_view name, double t, std::uint32_t tid,
                     std::string_view detail, double value) {
  complete(name, t, -1.0, tid, detail, value);
}

void Tracer::complete(std::string_view name, double t_begin, double duration,
                      std::uint32_t tid, std::string_view detail, double value) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{std::string(name), std::string(detail), t_begin, duration,
                          value, tid});
}

void Tracer::write_chrome_json(std::ostream& out) const {
  // Virtual seconds become Chrome trace microseconds.
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Event& e : events_) {
    out << (first ? "\n" : ",\n") << "  {\"name\": " << util::json_string(e.name)
        << ", \"ph\": \"" << (e.dur < 0.0 ? 'i' : 'X') << "\", \"ts\": "
        << util::json_double(e.t * 1e6);
    first = false;
    if (e.dur >= 0.0) {
      out << ", \"dur\": " << util::json_double(e.dur * 1e6);
    } else {
      out << ", \"s\": \"t\"";  // instant scope: thread
    }
    out << ", \"pid\": 1, \"tid\": " << e.tid
        << ", \"args\": {\"value\": " << util::json_double(e.value);
    if (!e.detail.empty()) out << ", \"detail\": " << util::json_string(e.detail);
    out << "}}";
  }
  out << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"schema\": \""
      << kTraceSchema << "\", \"dropped\": " << dropped_ << "}\n}\n";
}

}  // namespace p2prank::obs
