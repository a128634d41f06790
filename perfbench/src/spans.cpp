#include "spans.hpp"

#include <ostream>
#include <string_view>

namespace perfbench {

std::int32_t SpanRecorder::open(const char* name, std::uint64_t trace_id) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  Span s;
  s.name = name;
  s.parent = current_;
  s.trace_id = trace_id;
  s.start_ns = now_ns();
  spans_.push_back(s);
  current_ = index;
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

void write_spans_jsonl(std::ostream& os, const std::vector<Span>& spans) {
  // Compact on purpose: a traced run records millions of spans. A span's id
  // is its line number (from 0); times are nanoseconds since the first span.
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    os << "{\"n\":\"" << s.name << "\",\"s\":" << s.start_ns - t0
       << ",\"e\":" << s.end_ns - t0 << ",\"p\":" << s.parent
       << ",\"t\":" << s.trace_id << "}\n";
  }
}

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
  }
  return out;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const auto& [name, secs] : self_time_by_name(spans)) {
    const std::string_view n(name);
    out[std::string(n.substr(0, n.find('.')))] += secs;
  }
  return out;
}

double root_time(const std::vector<Span>& spans) {
  std::int64_t ns = 0;
  for (const Span& s : spans) {
    if (s.parent < 0) ns += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

double total_time(const std::vector<Span>& spans, const std::string& name) {
  std::int64_t ns = 0;
  for (const Span& s : spans) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

}  // namespace perfbench
