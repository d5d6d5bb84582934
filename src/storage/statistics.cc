#include "storage/statistics.h"

#include <algorithm>
#include <cstdio>

namespace rsj {
namespace {

uint64_t Merged(MetricMergeKind merge, uint64_t a, uint64_t b) {
  return merge == MetricMergeKind::kSum ? a + b : std::max(a, b);
}

}  // namespace

void Statistics::MergeFrom(const Statistics& other) {
#define RSJ_MERGE_COUNTER(type, name, merge, label)                    \
  SetCounter(name, Merged(MetricMergeKind::merge, CounterValue(name),  \
                          CounterValue(other.name)));
  RSJ_STATISTICS_COUNTERS(RSJ_MERGE_COUNTER)
#undef RSJ_MERGE_COUNTER
}

std::string Statistics::ToString() const {
  std::string out;
  char line[96];
#define RSJ_PRINT_COUNTER(type, name, merge, label)                    \
  std::snprintf(line, sizeof(line), "%-24s%llu\n", label ":",          \
                static_cast<unsigned long long>(CounterValue(name)));  \
  out += line;
  RSJ_STATISTICS_COUNTERS(RSJ_PRINT_COUNTER)
#undef RSJ_PRINT_COUNTER
  std::snprintf(line, sizeof(line), "%-24s%.1f%%\n", "hit rate:",
                HitRate() * 100.0);
  out += line;
  return out;
}

}  // namespace rsj
