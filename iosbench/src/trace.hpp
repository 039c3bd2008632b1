#pragma once
// In-memory span recorder for the traced run. Spans are recorded only by the
// benchmark's own code, around its calls into the library's layers; they are
// kept in memory and written once, at exit, in the Chrome trace-event format
// the repo's kernel timelines use (runtime/trace_export.hpp), so both open
// in the same viewer (chrome://tracing, Perfetto).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace iosbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

/// One timed interval. `parent` indexes the enclosing span in the same
/// recorder (-1 for a root); spans of one operation share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t request = 0;
};

/// Records spans from one thread. A disabled recorder records nothing, so
/// the untraced code path costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span; returns its index
  /// (-1 when disabled).
  int begin(const std::string& name, std::int64_t request);
  /// Closes the span `begin` returned.
  void end(int index);
  /// Adds an already-measured span (e.g. one reported by the server) under
  /// `parent`. Returns its index (-1 when disabled).
  int add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::int64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as complete ("X") events, one lane per request modulo
  /// 32, with the span's index, its parent's index and its request id in the
  /// event args. Beyond 50000 spans, only the spans of every k-th request id
  /// are written, k chosen to stay under that limit.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::int64_t request)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may overlap
/// each other and may stick out of the parent; only the covered part of the
/// parent's own interval is subtracted.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Self time summed per (request, span name), in nanoseconds.
std::map<std::int64_t, std::map<std::string, std::int64_t>> self_time_by_request(
    const std::vector<Span>& spans);

}  // namespace iosbench
