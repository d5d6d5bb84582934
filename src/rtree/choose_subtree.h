// Subtree choice of R-tree insertion (internal to rtree/; not exported
// through rsj.h).
//
// Both choosers are pure functions over one directory node's entries, so
// the insertion path and its tests call the very same code.

#ifndef RSJ_RTREE_CHOOSE_SUBTREE_H_
#define RSJ_RTREE_CHOOSE_SUBTREE_H_

#include <cstdint>
#include <span>

#include "rtree/entry.h"

namespace rsj {

// R*-tree ChooseSubtree for a node whose children are leaves: the index of
// the entry whose rectangle needs the least *overlap enlargement* (summed
// over its siblings) to cover `rect`; ties go to the least area
// enlargement, then the least area, then the earliest scored entry. Only
// the `candidate_limit` entries of least area enlargement are scored (all
// entries when the limit is 0 or not below entries.size()). `entries` must
// not be empty.
size_t ChooseLeastOverlapEnlargement(std::span<const Entry> entries,
                                     const Rect& rect,
                                     uint32_t candidate_limit);

// Guttman's criterion (every other level and policy): the index of the
// entry needing the least area enlargement, ties by least area, then by
// lowest index. `entries` must not be empty.
size_t ChooseLeastAreaEnlargement(std::span<const Entry> entries,
                                  const Rect& rect);

}  // namespace rsj

#endif  // RSJ_RTREE_CHOOSE_SUBTREE_H_
