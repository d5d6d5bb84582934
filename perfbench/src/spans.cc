#include "spans.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

int32_t SpanRecorder::Begin(const char* name, uint64_t items) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.op = op_;
  span.items = items;
  span.start_ns = NowNanos();
  spans_.push_back(span);
  current_ = static_cast<int32_t>(spans_.size() - 1);
  return current_;
}

void SpanRecorder::End(int32_t index) {
  Span& span = spans_[index];
  span.end_ns = NowNanos();
  current_ = span.parent;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"op\":%u,\"items\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.op,
                 static_cast<unsigned long long>(s.items));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanTotals> FoldSpans(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    SpanTotals& t = out[s.name];
    t.calls += 1;
    t.total_ms += dur * 1e-6;
    t.self_ms += (dur - child_ns[i]) * 1e-6;
    t.items += s.items;
  }
  return out;
}

}  // namespace perfbench
