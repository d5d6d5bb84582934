// Execution statistics: the quantities every table of the paper reports.
//
// The paper measures a spatial join by (i) the number of disk accesses and
// (ii) the number of executed floating point comparisons, split into the
// comparisons spent on the join itself, on sorting node entries (Table 4's
// `sorting` row) and on computing the z-order read schedule (the CPU price
// of SpatialJoin5 discussed in §4.3). `Statistics` carries all counters and
// is threaded through the buffer pool and the join engine.

#ifndef RSJ_STORAGE_STATISTICS_H_
#define RSJ_STORAGE_STATISTICS_H_

#include <cstdint>
#include <string>

#include "geom/comparison_counter.h"

namespace rsj {

// How two samples of the same counter combine (docs/METRICS.md's Merge
// column): volumes add, high-water marks take the maximum — concurrent
// actors share one peak.
enum class MetricMergeKind {
  kSum,
  kMax,
};

// Every counter `Statistics` carries, declared once. Each row is
//
//   X(type, name, merge, label)
//
//   type  — uint64_t, or ComparisonCounter for the paper's comparison
//           counts;
//   name  — the field, also the counter's docs/METRICS.md and metrics
//           registry name (rsj_<name>);
//   merge — kSum for volumes, kMax for high-water marks (MetricMergeKind);
//   label — its line in ToString().
//
// The struct fields, MergeFrom, ToString and the StatisticsCounters()
// table (obs/metrics.h) all expand from this list, and
// tools/check_metrics_docs.py reads it to require a docs/METRICS.md row
// per counter.
//
// Two-tier refinement (geom/raster_interval.h): per candidate pair exactly
// one of {ri_true_hits, ri_rejects, ri_inconclusive} increments, so
// ri_exact_tests_avoided == ri_true_hits + ri_rejects always holds.
// frontier_peak_tuples is the peak of live intermediate tuples of a chain
// join (whole frontiers when materialized, chunks in flight when
// pipelined). result_peak_chunks_resident is the peak of completed result
// chunks held in memory by the run's output path (spilling sinks cap it at
// their budget; materialized runs count their whole output).
#define RSJ_STATISTICS_COUNTERS(X)                                           \
  /* --- I/O --- */                                                          \
  X(uint64_t, disk_reads, kSum, "disk reads")      /* "disk accesses" */     \
  X(uint64_t, disk_writes, kSum, "disk writes")    /* physical writes */     \
  X(uint64_t, buffer_hits, kSum, "buffer hits")    /* served by the LRU */   \
  X(uint64_t, buffer_evictions, kSum, "evictions") /* pages dropped */       \
  X(uint64_t, pin_count, kSum, "pins")             /* SJ4/SJ5 pinning */     \
  /* --- decoding (storage/node_cache.h) --- */                              \
  X(uint64_t, node_decodes, kSum, "node decodes")                            \
  X(uint64_t, node_cache_hits, kSum, "node cache hits") /* decodes saved */  \
  /* --- simulated asynchronous I/O (src/io/) --- */                         \
  X(uint64_t, prefetch_issued, kSum, "prefetch issued")                      \
  X(uint64_t, prefetch_hits, kSum, "prefetch hits")                          \
  X(uint64_t, prefetch_wasted, kSum, "prefetch wasted") /* evicted unused */ \
  X(uint64_t, io_batches, kSum, "io batches")                                \
  X(uint64_t, modeled_io_micros, kSum, "modeled io stall (us)")              \
  /* --- CPU (floating point comparisons, the paper's metric) --- */         \
  X(ComparisonCounter, join_comparisons, kSum, "join comparisons")           \
  X(ComparisonCounter, sort_comparisons, kSum, "sort comparisons")           \
  X(ComparisonCounter, schedule_comparisons, kSum, "sched comparisons")      \
  /* --- join bookkeeping --- */                                             \
  X(uint64_t, output_pairs, kSum, "output pairs")                            \
  X(uint64_t, node_pairs, kSum, "node pairs")                                \
  X(uint64_t, window_queries, kSum, "window queries")                        \
  /* --- two-tier refinement (geom/raster_interval.h) --- */                 \
  X(uint64_t, ri_signatures_built, kSum, "ri signatures")                    \
  X(uint64_t, ri_signature_bytes, kSum, "ri signature bytes")                \
  X(uint64_t, ri_true_hits, kSum, "ri true hits")                            \
  X(uint64_t, ri_rejects, kSum, "ri rejects")                                \
  X(uint64_t, ri_inconclusive, kSum, "ri inconclusive")                      \
  X(uint64_t, ri_exact_tests_avoided, kSum, "ri tests avoided")              \
  /* --- multi-way chain join --- */                                         \
  X(uint64_t, frontier_peak_tuples, kMax, "frontier peak (tuples)")          \
  /* --- spill-to-disk result path (exec/spill_sink.h) --- */                \
  X(uint64_t, result_chunks_spilled, kSum, "chunks spilled")                 \
  X(uint64_t, result_spill_bytes, kSum, "spill bytes") /* page-granular */   \
  X(uint64_t, result_peak_chunks_resident, kMax, "resident peak (chunks)")

struct Statistics {
#define RSJ_DECLARE_COUNTER(type, name, merge, label) type name{};
  RSJ_STATISTICS_COUNTERS(RSJ_DECLARE_COUNTER)
#undef RSJ_DECLARE_COUNTER

  // Uniform access to a counter field of either type, for code expanded
  // from RSJ_STATISTICS_COUNTERS.
  static uint64_t CounterValue(uint64_t counter) { return counter; }
  static uint64_t CounterValue(const ComparisonCounter& counter) {
    return counter.count();
  }
  static void SetCounter(uint64_t& counter, uint64_t value) {
    counter = value;
  }
  static void SetCounter(ComparisonCounter& counter, uint64_t value) {
    counter.Reset();
    counter.Add(value);
  }

  // Raises result_peak_chunks_resident to at least `chunks` — the one
  // place the resident-peak convention lives; every output path
  // (spilling budget peaks and materialized whole-result counts alike)
  // reports through this.
  void NoteResultChunksResident(uint64_t chunks) {
    if (chunks > result_peak_chunks_resident) {
      result_peak_chunks_resident = chunks;
    }
  }

  // Total comparisons across all three counters.
  uint64_t TotalComparisons() const {
    return join_comparisons.count() + sort_comparisons.count() +
           schedule_comparisons.count();
  }

  // Fraction of page requests served from the buffer.
  double HitRate() const {
    const uint64_t total = disk_reads + buffer_hits;
    return total == 0 ? 0.0 : static_cast<double>(buffer_hits) / total;
  }

  void Reset() { *this = Statistics(); }

  // Merges every counter of `other` into this instance by its merge kind.
  // Parallel execution gives each worker its own Statistics and merges
  // them at the end.
  void MergeFrom(const Statistics& other);

  // Multi-line human readable dump, one line per counter plus the hit
  // rate (used by the examples).
  std::string ToString() const;
};

}  // namespace rsj

#endif  // RSJ_STORAGE_STATISTICS_H_
