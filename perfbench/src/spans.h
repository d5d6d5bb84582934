// Span recorder of the traced run, and the self-time fold over it.
//
// The benchmark wraps a span around each call it makes into a library
// layer; the library itself is not instrumented. Spans stay in memory
// until the run ends. A span's self time is its duration minus the
// durations of its direct children (the children of one span never
// overlap: every traced replay runs on one client thread).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the recorder, -1 for a root
  uint32_t op = 0;      // operation id shared by the spans of one operation
  uint64_t items = 0;   // objects or pairs the call processed
};

class SpanRecorder {
 public:
  int32_t Begin(const char* name, uint64_t items);
  void End(int32_t index);
  // Starts a new operation: later spans carry a fresh operation id.
  uint32_t NextOp() { return ++op_; }

  const std::vector<Span>& spans() const { return spans_; }
  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint32_t op_ = 0;
};

// A span over one scope; does nothing when the recorder is null, so one
// code path serves the traced and the untraced replay.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t items = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, items) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

// Per span name: calls, summed inclusive and self durations, summed items.
struct SpanTotals {
  uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  uint64_t items = 0;
};
std::map<std::string, SpanTotals> FoldSpans(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
