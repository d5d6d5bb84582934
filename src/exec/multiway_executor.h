// Parallel multi-way chain join on the execution subsystem.
//
// One executor runs every chain, at every worker count. Its one
// scheduling choice is `exec_options.pipelined`, which the planner
// (engine/planner.h) sets from the estimated frontier; both settings run
// the same parts:
//
//   1. phase 1 (relations 0 ⋈ 1) runs the partitioned pairwise executor —
//      depth-adaptive plan, work-stealing scheduler — with every worker's
//      sink converting completed pair batches into FrontierChunks that go
//      into the first probe phase's channel (exec/frontier_channel.h),
//   2. every probe phase k extends each tuple of its input with
//      ProbeChainWindow, writing the extensions as chunks into phase
//      k+1's channel, or in the last phase to the final output (a count,
//      collected tuples, or the bounded spill set),
//   3. in shared-pool mode one SharedBufferPool and one NodeCache span all
//      phases and workers; in private-pool mode every worker (pairwise and
//      probe) owns a pool, and with prefetch enabled each probe worker
//      hints its phase's probe-root children into its own pool (hint
//      ownership is the pool, exactly the owner-scoping the IoScheduler
//      coalesces by),
//   4. per-worker Statistics and outputs are merged exactly like
//      RunParallelSpatialJoin's.
//
// The formulations differ only in where the phase barrier sits:
//
//   * pipelined (`pipelined = true`): no barrier. Every probe phase has a
//     dedicated worker team popping chunks as they arrive, and the channel
//     bound gives backpressure, so peak frontier memory is capped at
//     O(chunks-in-flight × chunk_capacity) instead of O(|frontier|), which
//     `Statistics::frontier_peak_tuples` proves per run;
//   * materialized (`pipelined = false`): a barrier after every phase.
//     Each probe phase starts once its predecessor finished and fans the
//     whole frontier, one flat array, out in slices over the task
//     scheduler. Its frontier_peak_tuples is the largest whole frontier.
//     The planner picks it when the frontier is small enough that the
//     barrier costs nothing worth bounding.
//
// A 2-relation chain has no probe phase and runs as the pairwise executor
// in either setting.
//
// Tuples are disjoint work units and every tuple is probed exactly once,
// so the union of the workers' outputs is the sequential chain result as
// a multiset (the concatenation order differs run to run).

#ifndef RSJ_EXEC_MULTIWAY_EXECUTOR_H_
#define RSJ_EXEC_MULTIWAY_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "exec/parallel_executor.h"
#include "join/multiway_join.h"

namespace rsj {

struct ParallelChainJoinResult {
  uint64_t tuple_count = 0;
  // Tuples of object ids, one per relation, when collected. The multiset
  // equals the sequential result; the order is scheduling-dependent.
  // Empty when spill_results applied (see spilled_tuples below) — the
  // collected tuples then land in `spilled_tuples` instead.
  std::vector<std::vector<uint32_t>> tuples;
  // The bounded-memory tuple set: final-phase tuple chunks past the
  // resident budget are serialized to the spill file through the timed
  // write path and streamed back on demand (exec/spill_sink.h). Filled
  // whenever exec_options.spill_results applies (collect_tuples) — at
  // every worker count, pipelined or materialized, including 2-relation
  // chains.
  SpilledTupleSet spilled_tuples;
  // Aggregated counters (coordinator + all workers, all phases).
  // total_stats.frontier_peak_tuples is the run's peak live intermediate
  // tuple count: whole frontiers when materialized, chunks in flight when
  // pipelined.
  Statistics total_stats;
  // Per-worker counters, merged across phases (index = worker slot).
  std::vector<Statistics> worker_stats;

  // --- executor telemetry ---
  // Subtree-pair tasks of the pairwise phase and its descent depth.
  size_t pairwise_task_count = 0;
  int partition_depth = 0;
  // Frontier chunks per probe phase (one entry per phase >= 2): chunks
  // pushed through the phase's channel when pipelined, frontier slices
  // scheduled when materialized.
  std::vector<size_t> probe_chunk_counts;
  // Probe chunks each worker slot executed, summed over all probe phases
  // (work stealing / channel scheduling balances these).
  std::vector<uint64_t> worker_probe_chunks;
  bool used_shared_pool = false;
  bool used_node_cache = false;
  bool used_pipeline = false;
  // Advance of the modeled I/O clock across the whole chain (0 without an
  // exec_options.io_scheduler).
  uint64_t modeled_elapsed_micros = 0;
};

// Runs the chain join over `relations` (>= 2, one shared page size) with
// `exec_options.num_threads` (>= 1) workers per stage. One worker runs the
// same executor as any other count: its pairwise phase is the paper's
// sequential run, and pools, I/O, pipelining and spilling all apply. The
// tuple multiset is identical to RunChainSpatialJoin's for every
// configuration.
ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples = false);

// Core of RunParallelChainSpatialJoin with engine-borrowed resources: in
// shared-pool mode, non-null `shared_pool` / `node_cache` are used instead
// of chain-private instances, so one buffer and one decode cache span
// every session of a serving engine. `node_cache`, when given, must be
// layered over `shared_pool`, and the pool's page size must match the
// trees'. Combine with exec_options.own_io_lifecycle = false to run on an
// engine-shared IoScheduler (the chain then retires its own actor clocks
// and reports modeled_elapsed_micros against the floor at entry).
ParallelChainJoinResult RunParallelChainSpatialJoinWith(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples,
    SharedBufferPool* shared_pool, NodeCache* node_cache);

}  // namespace rsj

#endif  // RSJ_EXEC_MULTIWAY_EXECUTOR_H_
