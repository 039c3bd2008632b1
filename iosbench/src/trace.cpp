#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace iosbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int Tracer::begin(const std::string& name, std::int64_t request) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("Tracer::end: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

int Tracer::add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, std::int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {
constexpr std::size_t kMaxTraceEvents = 50000;  // keeps the file viewer-sized
constexpr std::int64_t kTraceLanes = 32;
}  // namespace

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  const auto stride =
      static_cast<std::int64_t>((spans_.size() + kMaxTraceEvents - 1) / kMaxTraceEvents);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (stride > 1 && s.request % stride != 0) continue;
    // Names are benchmark-chosen identifiers, so no JSON escaping is needed.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,"
                 "\"request\":%lld}}",
                 first ? "" : ",", s.name.c_str(),
                 static_cast<long long>(s.request % kTraceLanes),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<long long>(s.request));
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace file " + path);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children.at(static_cast<std::size_t>(s.parent)).emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the union covered so far
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::int64_t, std::map<std::string, std::int64_t>> self_time_by_request(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::int64_t, std::map<std::string, std::int64_t>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].request][spans[i].name] += self[i];
  }
  return out;
}

}  // namespace iosbench
