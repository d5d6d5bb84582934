// The benchmark's own reference for MBR joins: sort both inputs on the
// lower x bound and sweep. It shares no code with the library's joins.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "rsj.h"

namespace perfbench {

using IdPair = std::pair<uint32_t, uint32_t>;

// All (i, j) with r[i] and s[j] intersecting (closed rectangles), or, for
// epsilon > 0, with Euclidean MBR distance <= epsilon. Ids are positions.
std::vector<IdPair> SweepJoin(const std::vector<rsj::Rect>& r,
                              const std::vector<rsj::Rect>& s,
                              double epsilon);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
