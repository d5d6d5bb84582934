// One-call entry points used by examples, tests and benchmarks: build an
// R*-tree from rectangles, run a configured spatial join, get the counters
// back.

#ifndef RSJ_JOIN_JOIN_RUNNER_H_
#define RSJ_JOIN_JOIN_RUNNER_H_

#include <memory>
#include <span>

#include "join/join_options.h"
#include "join/spatial_join.h"
#include "rtree/rtree.h"
#include "storage/statistics.h"

namespace rsj {

// Inserts `rects` (object ids = positions) into a fresh tree on `file`.
RTree BuildRTree(PagedFile* file, std::span<const Rect> rects,
                 const RTreeOptions& options);

struct JoinRunResult {
  uint64_t pair_count = 0;
  Statistics stats;
  // Filled only when `collect_pairs` was requested: the result as a list
  // of contiguous pair chunks (exec/result_sink.h), handed out exactly as
  // the engine produced them — iterate chunk-wise, or CopyPairs() at API
  // edges that need a flat vector.
  ResultChunkList chunks;
};

// Runs the MBR-spatial-join of two already built trees under `options`,
// with a fresh LRU buffer of options.buffer_bytes.
JoinRunResult RunSpatialJoin(const RTree& r, const RTree& s,
                             const JoinOptions& options,
                             bool collect_pairs = false);

// Sink-based entry point: runs the join into a caller-provided sink
// (counting, materializing, or batched-callback — see exec/result_sink.h)
// and charges all counters to `stats`. The sink is flushed before
// returning. The struct-returning overload above is a convenience wrapper
// over this one.
void RunSpatialJoin(const RTree& r, const RTree& s, const JoinOptions& options,
                    ResultSink* sink, Statistics* stats);

// A relation bundled with its index (convenience owner used by examples
// and benchmarks; keeps file + tree lifetimes together).
class IndexedRelation {
 public:
  IndexedRelation(std::span<const Rect> rects, const RTreeOptions& options)
      : file_(std::make_unique<PagedFile>(options.page_size)),
        tree_(BuildRTree(file_.get(), rects, options)) {}

  const RTree& tree() const { return tree_; }

 private:
  std::unique_ptr<PagedFile> file_;
  RTree tree_;
};

}  // namespace rsj

#endif  // RSJ_JOIN_JOIN_RUNNER_H_
