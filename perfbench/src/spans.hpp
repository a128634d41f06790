// In-memory span recording for the traced benchmark run.
//
// The benchmark wraps every call it makes into a BIPS layer in a span:
// name ("layer.operation"), start, end and the enclosing span. The spans of
// one query share a trace id. Spans are kept in memory and written out once
// the run ends, so recording costs two clock reads and a vector append.
//
// A layer's self time is its span's duration minus the time its direct
// child spans cover; summed over all spans it equals the duration of the
// root spans, which is how the traced run checks that the per-layer split
// accounts for its wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   // "layer.operation"; a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index into the recorder, -1 for a root
  std::uint64_t trace_id = 0; // shared by the spans of one query; 0 = none
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records properly nested spans opened and closed on one thread.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name, std::uint64_t trace_id = 0);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a null recorder (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t trace_id = 0)
      : rec_(rec), index_(rec != nullptr ? rec->open(name, trace_id) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t index_;
};

/// One JSON object per line, the span with id k on line k (from 0):
/// {"n": name, "s": start, "e": end, "p": parent id, "t": trace id}, times in
/// nanoseconds since the first span's start.
void write_spans_jsonl(std::ostream& os, const std::vector<Span>& spans);

/// Self time (seconds) per span name: duration minus direct children.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);
/// Self time (seconds) per layer, the name's prefix before the first '.'.
std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans);
/// Total duration (seconds) of the root spans.
double root_time(const std::vector<Span>& spans);
/// Total duration (seconds) of every span with this exact name.
double total_time(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench
