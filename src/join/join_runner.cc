#include "join/join_runner.h"

#include "storage/buffer_pool.h"

namespace rsj {

RTree BuildRTree(PagedFile* file, std::span<const Rect> rects,
                 const RTreeOptions& options) {
  RTree tree(file, options);
  for (uint32_t i = 0; i < rects.size(); ++i) {
    tree.Insert(rects[i], i);
  }
  return tree;
}

void RunSpatialJoin(const RTree& r, const RTree& s, const JoinOptions& options,
                    ResultSink* sink, Statistics* stats) {
  BufferPool pool(
      BufferPool::Options{options.buffer_bytes, r.options().page_size,
                          options.eviction_policy},
      stats);
  SpatialJoinEngine engine(r, s, options, &pool, stats);
  engine.Run(sink);
}

JoinRunResult RunSpatialJoin(const RTree& r, const RTree& s,
                             const JoinOptions& options, bool collect_pairs) {
  JoinRunResult result;
  if (collect_pairs) {
    // A measuring gauge (engine/memory_governor.h) records the resident
    // high-water mark instead of computing it from final counts.
    ResidentBudget gauge(ResidentBudget::kUnbounded);
    MaterializingSink sink(ChunkArena{}, &gauge);
    RunSpatialJoin(r, s, options, &sink, &result.stats);
    result.chunks = sink.TakeChunks();
    result.pair_count = sink.count();
    result.stats.NoteResultChunksResident(gauge.peak());
  } else {
    CountingSink sink;
    RunSpatialJoin(r, s, options, &sink, &result.stats);
    result.pair_count = sink.count();
  }
  return result;
}

}  // namespace rsj
