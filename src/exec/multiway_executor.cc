#include "exec/multiway_executor.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "common/logging.h"
#include "exec/frontier_channel.h"
#include "exec/task_scheduler.h"
#include "io/io_scheduler.h"
#include "io/prefetcher.h"
#include "storage/buffer_pool.h"
#include "storage/node_cache.h"
#include "storage/shared_buffer_pool.h"

namespace rsj {

namespace {

// High-water mark of live intermediate tuples: counted from the moment a
// tuple enters a producer's chunk (partially filled writer chunks
// included — only the workers' constant preallocated staging batches are
// outside the gauge) until the consumer finished extending every tuple of
// the chunk. This is the quantity frontier_peak_tuples reports — the
// proof that the pipeline's frontier memory stays bounded.
struct FrontierGauge {
  std::atomic<uint64_t> live{0};
  std::atomic<uint64_t> peak{0};
  // Run-wide mirror: every live tuple charges `tuple_bytes` (a flat
  // upper bound — the chain's final arity × 4) into the governor's
  // frontier category. Charge, not TryLease: channel backpressure is
  // what bounds the frontier; the governor only observes it.
  MemoryGovernor* governor = nullptr;
  uint64_t tuple_bytes = 0;

  void Add(uint64_t n) {
    const uint64_t now = live.fetch_add(n, std::memory_order_relaxed) + n;
    uint64_t seen = peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
    if (governor != nullptr) {
      governor->Charge(MemoryCategory::kFrontierTuples, n * tuple_bytes);
    }
  }
  void Sub(uint64_t n) {
    live.fetch_sub(n, std::memory_order_relaxed);
    if (governor != nullptr) {
      governor->Release(MemoryCategory::kFrontierTuples, n * tuple_bytes);
    }
  }
};

// Accumulates same-arity tuples into fixed-capacity FrontierChunks and
// pushes each one into the next phase's channel as it fills (single
// producer thread). `gauge` counts the tuples in flight; a materialized
// run passes nullptr, since it counts each frontier whole at its barrier.
class FrontierWriter {
 public:
  FrontierWriter(uint32_t arity, size_t capacity_tuples,
                 FrontierChannel* channel, FrontierGauge* gauge)
      : arity_(arity),
        capacity_tuples_(capacity_tuples),
        channel_(channel),
        gauge_(gauge) {
    RSJ_DCHECK(channel != nullptr);
    Reset();
  }

  // Appends a whole batch of 2-tuples — the pairwise phase's output.
  // Bulk-inserts chunk-sized segments so the staging-batch → chunk hop
  // is one contiguous copy per segment, not a call per pair.
  void AppendPairBatch(std::span<const ResultPair> batch) {
    RSJ_DCHECK(arity_ == 2);
    static_assert(sizeof(ResultPair) == 2 * sizeof(uint32_t),
                  "ResultPair must be layout-identical to flat [r, s]");
    size_t offset = 0;
    while (offset < batch.size()) {
      const size_t space = capacity_tuples_ - current_.tuple_count();
      const size_t take = std::min(space, batch.size() - offset);
      const uint32_t* raw =
          reinterpret_cast<const uint32_t*>(batch.data() + offset);
      current_.flat.insert(current_.flat.end(), raw, raw + 2 * take);
      if (gauge_ != nullptr) gauge_->Add(take);
      offset += take;
      MaybePush();
    }
  }

  // Appends prefix ++ [id] — a probe phase's extended tuple.
  void AppendExtended(const uint32_t* prefix, uint32_t prefix_len,
                      uint32_t id) {
    RSJ_DCHECK(prefix_len + 1 == arity_);
    current_.flat.insert(current_.flat.end(), prefix, prefix + prefix_len);
    current_.flat.push_back(id);
    if (gauge_ != nullptr) gauge_->Add(1);
    MaybePush();
  }

  // Pushes the final partial chunk, if any.
  void Flush() {
    if (!current_.flat.empty()) Push();
  }

 private:
  void MaybePush() {
    if (current_.tuple_count() >= capacity_tuples_) Push();
  }

  void Push() {
    // The tuples were gauged as they entered the chunk; the consumer
    // un-gauges the whole chunk after processing it.
    channel_->Push(std::move(current_));
    Reset();
  }

  void Reset() {
    current_.arity = arity_;
    current_.flat.clear();
    current_.flat.reserve(arity_ * capacity_tuples_);
  }

  uint32_t arity_;
  size_t capacity_tuples_;
  FrontierChannel* channel_;
  FrontierGauge* gauge_;
  FrontierChunk current_;
};

// Reads `tree`'s root through the worker's cache and hints its children
// into `prefetcher`'s pool: every frontier tuple descends from this root,
// so its children are the phase's shared read frontier. The root itself is
// read synchronously right here to learn them — prefetching it too would
// only be consumed on the next statement with its full stall. Works for
// shared pools (one coordinator-side call) and private pools (one call per
// worker, hints scoped to that worker's own pool — the same owner-scoping
// the IoScheduler coalesces by).
void HintProbeRoot(const RTree& tree, PageCache* pages, NodeCache* nodes,
                   const Prefetcher* prefetcher, Statistics* stats) {
  if (prefetcher == nullptr) return;
  const PagedFile& file = tree.file();
  const PageId root = tree.root_page();
  std::shared_ptr<const DecodedNode> cached;
  Node local;
  const Node* node;
  if (nodes != nullptr) {
    cached = nodes->Fetch(file, root, stats).decoded;
    node = &cached->node;
  } else {
    pages->Read(file, root, stats);
    ++stats->node_decodes;
    local = Node::Load(file, root);
    node = &local;
  }
  if (node->is_leaf()) return;
  std::vector<PageId> children;
  children.reserve(node->entries.size());
  for (const Entry& e : node->entries) children.push_back(e.ref);
  prefetcher->PrefetchSchedule(file, children, stats);
}

// Bytes one resident final-tuple chunk (chunk_capacity tuples of the
// chain's full arity) leases from the run-wide governor.
uint64_t TupleChunkBytes(const ParallelExecutorOptions& exec_options,
                         size_t arity) {
  return static_cast<uint64_t>(exec_options.chunk_capacity) * arity *
         sizeof(uint32_t);
}

// A 2-relation chain has no probe phase: it is the pairwise executor,
// whose pairs are the final 2-tuples.
ParallelChainJoinResult RunPairChain(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples,
    SharedBufferPool* ext_pool, NodeCache* ext_nodes) {
  ParallelExecutorOptions pair_exec = exec_options;
  pair_exec.collect_pairs = collect_tuples;
  pair_exec.spill_results = collect_tuples && exec_options.spill_results;
  ParallelJoinResult pairwise = RunParallelSpatialJoinWith(
      *relations[0].tree, *relations[1].tree, options, pair_exec, ext_pool,
      ext_nodes);
  ParallelChainJoinResult result;
  result.tuple_count = pairwise.pair_count;
  result.total_stats = pairwise.total_stats;
  result.worker_stats.resize(exec_options.num_threads);
  for (size_t w = 0; w < pairwise.worker_stats.size(); ++w) {
    result.worker_stats[w % exec_options.num_threads].MergeFrom(
        pairwise.worker_stats[w]);
  }
  result.pairwise_task_count = pairwise.task_count;
  result.partition_depth = pairwise.partition_depth;
  result.worker_probe_chunks.assign(exec_options.num_threads, 0);
  result.used_shared_pool = pairwise.used_shared_pool;
  result.used_node_cache = pairwise.used_node_cache;
  result.modeled_elapsed_micros = pairwise.modeled_elapsed_micros;
  if (pair_exec.spill_results) {
    // A ResultPair block is layout-identical to a flat [r, s] tuple run,
    // so the bounded SpilledResult transfers into the tuple set by
    // reference: spilled page runs move as-is, and only the resident pair
    // chunks (never more than the spill budget of them) re-wrap as
    // arity-2 frontier chunks.
    result.spilled_tuples.arity = 2;
    result.spilled_tuples.tuple_count = pairwise.spilled.pair_count;
    for (const ChunkPtr& chunk : pairwise.spilled.resident) {
      const std::span<const ResultPair> pairs = chunk->pairs();
      FrontierChunk tuples;
      tuples.arity = 2;
      const uint32_t* words = reinterpret_cast<const uint32_t*>(pairs.data());
      tuples.flat.assign(words, words + pairs.size() * 2);
      result.spilled_tuples.resident.push_back(std::move(tuples));
    }
    result.spilled_tuples.spilled = std::move(pairwise.spilled.spilled);
    result.spilled_tuples.file = std::move(pairwise.spilled.file);
  } else if (collect_tuples) {
    result.tuples.reserve(pairwise.pair_count);
    pairwise.chunks.ForEachPair([&result](const ResultPair& p) {
      result.tuples.push_back({p.r, p.s});
    });
  }
  return result;
}

// Everything one probe worker owns. Only the thread running the worker
// touches it: a pipelined run gives every worker its own thread, a
// materialized run hands worker slots out through the task scheduler
// (work stealing moves slices, not workers).
struct ProbeWorker {
  Statistics stats;
  std::unique_ptr<BufferPool> private_pool;    // null in shared-pool mode
  std::unique_ptr<Prefetcher> private_prefetcher;  // over the private pool
  PageCache* pages = nullptr;                  // the shared or private pool
  std::unique_ptr<FrontierWriter> writer;      // null in the last phase
  std::unique_ptr<TupleSpiller> spiller;       // last phase, when spilling
  std::vector<std::vector<uint32_t>> tuples;   // last phase, when collected
  std::vector<uint32_t> matches;               // per-probe scratch
  uint64_t final_tuples = 0;                   // last phase: tuples emitted
  uint64_t chunks = 0;
  size_t hinted_phase = std::numeric_limits<size_t>::max();
  std::thread thread;                          // pipelined runs only
};

// One parallel chain run over three or more relations. Both formulations
// share every part: the pool stack, the workers, a pairwise phase that
// writes FrontierWriters into channel 0, the probe routine and the finish
// step. They differ only in where the phase barrier sits. A pipelined run
// has none: every probe phase has a dedicated team popping chunks from a
// bounded channel as they arrive. A materialized run barriers after every
// phase and fans the whole flat frontier out in slices over the task
// scheduler.
class ChainRun {
 public:
  ChainRun(const std::vector<JoinRelation>& relations,
           const JoinOptions& options,
           const ParallelExecutorOptions& exec_options, bool collect_tuples,
           SharedBufferPool* ext_pool, NodeCache* ext_nodes);
  // Probe threads hold `this`.
  ChainRun(const ChainRun&) = delete;
  ChainRun& operator=(const ChainRun&) = delete;

  ParallelChainJoinResult Run();

 private:
  size_t phases() const { return relations_.size() - 2; }
  std::unique_ptr<ProbeWorker> MakeWorker(bool last_phase);
  void HintPhase(size_t k);
  void ProbeRun(size_t k, const uint32_t* flat, size_t tuples,
                ProbeWorker* worker);
  void RunPairwise(FrontierGauge* gauge);
  uint64_t RunPipelined();
  uint64_t RunMaterialized();
  void Finish(uint64_t frontier_peak);

  const std::vector<JoinRelation>& relations_;
  const JoinOptions& options_;
  const ParallelExecutorOptions& exec_;
  const bool collect_tuples_;
  const bool spill_on_;

  // One buffer, one decode cache and one prefetcher for the whole chain
  // in shared-pool mode: the pairwise phase warms them, and the probe
  // phases keep hitting the same directory pages for every frontier
  // tuple. `pool_`/`nodes_` are the owned instances or the engine's
  // borrowed ones.
  std::unique_ptr<SharedBufferPool> owned_pool_;
  std::unique_ptr<NodeCache> owned_nodes_;
  std::unique_ptr<Prefetcher> prefetcher_;
  SharedBufferPool* pool_ = nullptr;
  NodeCache* nodes_ = nullptr;

  // Modeled-clock snapshots at entry.
  IoScheduler* const io_;
  const bool owns_io_;
  uint64_t io_clock_before_ = 0;
  uint64_t io_batches_before_ = 0;
  uint64_t io_floor_before_ = 0;
  uint64_t pairwise_elapsed_ = 0;

  // The final tuple set's spill file and the resident budget the last
  // phase's workers share (exec/spill_sink.h).
  std::shared_ptr<SpillFile> spill_file_;
  std::unique_ptr<ResidentBudget> spill_budget_;

  Statistics coordinator_;  // shared-pool probe-root hints
  // channels_[k] feeds probe phase k, which probes relations_[k + 2].
  std::vector<std::unique_ptr<FrontierChannel>> channels_;
  // One team per probe phase when pipelined; one team reused by every
  // phase when materialized, so private pools stay warm between phases.
  std::vector<std::vector<std::unique_ptr<ProbeWorker>>> teams_;
  ParallelChainJoinResult result_;
};

ChainRun::ChainRun(const std::vector<JoinRelation>& relations,
                   const JoinOptions& options,
                   const ParallelExecutorOptions& exec_options,
                   bool collect_tuples, SharedBufferPool* ext_pool,
                   NodeCache* ext_nodes)
    : relations_(relations),
      options_(options),
      exec_(exec_options),
      collect_tuples_(collect_tuples),
      spill_on_(collect_tuples && exec_options.spill_results),
      io_(exec_options.io_scheduler),
      owns_io_(io_ != nullptr && exec_options.own_io_lifecycle) {
  if (io_ != nullptr) {
    io_clock_before_ = owns_io_ ? io_->NowMicros() : 0;
    io_batches_before_ = io_->io_batches();
    io_floor_before_ = io_->FloorMicros();
  }
  if (exec_.shared_pool) {
    pool_ = ext_pool;
    if (pool_ == nullptr) {
      owned_pool_ = std::make_unique<SharedBufferPool>(
          SharedBufferPool::Options{options.buffer_bytes,
                                    relations[0].tree->options().page_size,
                                    options.eviction_policy,
                                    exec_.pool_shards});
      pool_ = owned_pool_.get();
    }
    if (io_ != nullptr) pool_->AttachIoScheduler(io_);
    nodes_ = ext_nodes;
    if (nodes_ == nullptr && exec_.node_cache) {
      owned_nodes_ = std::make_unique<NodeCache>(
          pool_, NodeCache::Options{exec_.node_cache_capacity,
                                    exec_.pool_shards});
      nodes_ = owned_nodes_.get();
    }
    if (exec_.prefetch) {
      prefetcher_ = std::make_unique<Prefetcher>(
          pool_, Prefetcher::Options{exec_.prefetch_ahead});
    }
  }
  if (spill_on_) {
    spill_file_ = std::make_shared<SpillFile>(SpillFile::Options{
        exec_.spill_page_size, io_, exec_.tracer, exec_.trace_pid});
    spill_budget_ = std::make_unique<ResidentBudget>(
        exec_.spill_budget_chunks, exec_.memory_governor,
        MemoryCategory::kResultChunks,
        TupleChunkBytes(exec_, relations.size()));
    spill_budget_->AttachTracer(exec_.tracer, exec_.trace_pid);
  }
  result_.used_shared_pool = exec_.shared_pool;
  result_.used_node_cache = nodes_ != nullptr;
  result_.worker_stats.resize(exec_.num_threads);
}

// Builds one probe worker. Private-pool mode is the seed's model:
// per-worker buffers and no decode cache (matching the pairwise
// executor), so every probe visit pays its decode, and prefetch hints
// stay worker-scoped — each pool consumes its own.
std::unique_ptr<ProbeWorker> ChainRun::MakeWorker(bool last_phase) {
  auto worker = std::make_unique<ProbeWorker>();
  worker->pages = pool_;
  if (!exec_.shared_pool) {
    worker->private_pool = std::make_unique<BufferPool>(
        BufferPool::Options{options_.buffer_bytes,
                            relations_[0].tree->options().page_size,
                            options_.eviction_policy},
        &worker->stats);
    if (io_ != nullptr) worker->private_pool->AttachIoScheduler(io_);
    if (exec_.prefetch) {
      worker->private_prefetcher = std::make_unique<Prefetcher>(
          worker->private_pool.get(),
          Prefetcher::Options{exec_.prefetch_ahead});
    }
    worker->pages = worker->private_pool.get();
  }
  if (last_phase && spill_on_) {
    worker->spiller = std::make_unique<TupleSpiller>(
        static_cast<uint32_t>(relations_.size()), exec_.chunk_capacity,
        spill_file_.get(), spill_budget_.get(), &worker->stats);
  }
  return worker;
}

// Shared pool with prefetch: one coordinator-side hint of probe phase k's
// tree top serves every worker (a no-op otherwise).
void ChainRun::HintPhase(size_t k) {
  HintProbeRoot(*relations_[k + 2].tree, pool_, nodes_, prefetcher_.get(),
                &coordinator_);
}

// Probes a run of `tuples` flat tuples of arity k + 2 against probe phase
// k's tree. Each extension goes to the worker's FrontierWriter (the next
// frontier) or, in the last phase, to its final output: a count, plus
// the collected tuple or the spiller.
void ChainRun::ProbeRun(size_t k, const uint32_t* flat, size_t tuples,
                        ProbeWorker* worker) {
  const RTree& probe_tree = *relations_[k + 2].tree;
  const std::vector<Rect>& prev_rects = *relations_[k + 1].rects;
  const uint32_t arity = static_cast<uint32_t>(k + 2);
  TraceSpan span(exec_.tracer, "exec", "probe_chunk", exec_.trace_pid,
                 /*sampled=*/true);
  const uint64_t modeled_before =
      span.active() && io_ != nullptr ? io_->ActorClock(&worker->stats) : 0;
  ++worker->chunks;
  if (worker->private_prefetcher != nullptr && worker->hinted_phase != k) {
    // Private pool: the worker's first chunk of a phase hints the probe
    // root's children into its own pool.
    HintProbeRoot(probe_tree, worker->pages, nullptr,
                  worker->private_prefetcher.get(), &worker->stats);
    worker->hinted_phase = k;
  }
  for (size_t t = 0; t < tuples; ++t) {
    const uint32_t* tuple = flat + t * arity;
    const uint32_t last = tuple[arity - 1];
    RSJ_DCHECK(last < prev_rects.size());
    worker->matches.clear();
    ProbeChainWindow(probe_tree, worker->pages, nodes_, options_,
                     prev_rects[last], &worker->stats, &worker->matches);
    for (const uint32_t id : worker->matches) {
      if (worker->writer != nullptr) {
        worker->writer->AppendExtended(tuple, arity, id);
        continue;
      }
      ++worker->final_tuples;
      if (worker->spiller != nullptr) {
        worker->spiller->Append(tuple, arity, id);
      } else if (collect_tuples_) {
        std::vector<uint32_t>& full =
            worker->tuples.emplace_back(tuple, tuple + arity);
        full.push_back(id);
      }
    }
  }
  if (span.active()) {
    if (io_ != nullptr) {
      span.set_modeled_range(modeled_before, io_->ActorClock(&worker->stats));
    }
    span.set_arg("tuples", tuples);
  }
}

// Phase 1: the partitioned pairwise executor over relations 0 ⋈ 1, each
// worker's sink turning completed pair batches into frontier chunks for
// channel 0. In a pipelined run the push blocks while the probes lag
// (backpressure), so the pairwise phase cannot run away from its
// consumers. Returns once every producer of channel 0 has retired.
void ChainRun::RunPairwise(FrontierGauge* gauge) {
  const unsigned num_threads = exec_.num_threads;
  std::vector<std::unique_ptr<FrontierWriter>> writers;
  std::vector<std::unique_ptr<BatchedCallbackSink>> sinks;
  writers.reserve(num_threads);
  sinks.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    writers.push_back(std::make_unique<FrontierWriter>(
        /*arity=*/2, exec_.chunk_capacity, channels_[0].get(), gauge));
    FrontierWriter* const writer = writers.back().get();
    sinks.push_back(std::make_unique<BatchedCallbackSink>(
        [writer](std::span<const ResultPair> batch) {
          writer->AppendPairBatch(batch);
        }));
  }
  // The nested run does not own the I/O lifecycle (see
  // RunParallelSpatialJoinInto): it retires its own actors, and the
  // chain accounts the batch delta once, in Finish.
  const ParallelJoinResult pairwise = RunParallelSpatialJoinInto(
      *relations_[0].tree, *relations_[1].tree, options_, exec_, pool_,
      nodes_, [&sinks](unsigned w) { return sinks[w].get(); });
  result_.pairwise_task_count = pairwise.task_count;
  result_.partition_depth = pairwise.partition_depth;
  result_.total_stats.MergeFrom(pairwise.total_stats);
  for (size_t w = 0; w < pairwise.worker_stats.size(); ++w) {
    result_.worker_stats[w % num_threads].MergeFrom(pairwise.worker_stats[w]);
  }
  pairwise_elapsed_ = pairwise.modeled_elapsed_micros;
  for (unsigned w = 0; w < num_threads; ++w) {
    writers[w]->Flush();
    channels_[0]->RetireProducer();
  }
}

// No barrier: one bounded channel per phase boundary and one dedicated
// team per probe phase, chunks handed downstream as they fill. Closure
// cascades phase by phase as each channel drains. Returns the gauged peak
// of tuples in flight.
uint64_t ChainRun::RunPipelined() {
  const unsigned num_threads = exec_.num_threads;
  FrontierGauge gauge;
  gauge.governor = exec_.memory_governor;
  gauge.tuple_bytes = relations_.size() * sizeof(uint32_t);
  // Every probe phase is live from the first pushed chunk, so all probe
  // roots are hinted upfront.
  for (size_t k = 0; k < phases(); ++k) {
    HintPhase(k);
    channels_.push_back(
        std::make_unique<FrontierChannel>(exec_.channel_bound, num_threads));
  }
  // No unwind teardown (retire + join) guards the spawn loop: the library
  // is exception-free by policy (common/logging.h — invariant failures
  // abort), so any exception escaping here is already fatal.
  teams_.resize(phases());
  for (size_t k = 0; k < phases(); ++k) {
    const bool last_phase = k + 1 == phases();
    teams_[k].reserve(num_threads);
    for (unsigned w = 0; w < num_threads; ++w) {
      std::unique_ptr<ProbeWorker> worker = MakeWorker(last_phase);
      if (!last_phase) {
        worker->writer = std::make_unique<FrontierWriter>(
            static_cast<uint32_t>(k + 3), exec_.chunk_capacity,
            channels_[k + 1].get(), &gauge);
      }
      ProbeWorker* const self = worker.get();
      worker->thread = std::thread([this, self, &gauge, k, w]() {
        TraceRecorder* const tracer = exec_.tracer;
        if (tracer != nullptr && tracer->enabled()) {
          tracer->SetThreadName("probe-p" + std::to_string(k) + "-w" +
                                std::to_string(w));
        }
        FrontierChunk chunk;
        while (channels_[k]->Pop(&chunk)) {
          RSJ_DCHECK(chunk.arity == k + 2);
          const size_t tuples = chunk.tuple_count();
          ProbeRun(k, chunk.flat.data(), tuples, self);
          gauge.Sub(tuples);
        }
        if (self->writer != nullptr) {
          self->writer->Flush();
          channels_[k + 1]->RetireProducer();
        }
      });
      teams_[k].push_back(std::move(worker));
    }
  }
  RunPairwise(&gauge);
  for (auto& team : teams_) {
    for (auto& worker : team) worker->thread.join();
  }
  for (const auto& channel : channels_) {
    result_.probe_chunk_counts.push_back(
        static_cast<size_t>(channel->chunks_pushed()));
  }
  result_.used_pipeline = true;
  return gauge.peak.load(std::memory_order_relaxed);
}

// A barrier after every phase: each probe phase starts once its
// predecessor finished, over the whole frontier in one flat array, sliced
// so that partition_multiplier × num_threads slices exist (the same "k"
// as the pairwise partitioner). Returns the largest frontier.
uint64_t ChainRun::RunMaterialized() {
  const unsigned num_threads = exec_.num_threads;
  // Unbounded channels: a phase's whole output waits for the barrier.
  for (size_t k = 0; k < phases(); ++k) {
    channels_.push_back(std::make_unique<FrontierChannel>(
        std::numeric_limits<size_t>::max(), num_threads));
  }
  teams_.resize(1);
  std::vector<std::unique_ptr<ProbeWorker>>& team = teams_[0];
  for (unsigned w = 0; w < num_threads; ++w) {
    team.push_back(MakeWorker(/*last_phase=*/true));
  }
  RunPairwise(/*gauge=*/nullptr);
  if (io_ != nullptr) {
    // The nested pairwise run retired its actors without raising the
    // floor, so the barrier is modeled explicitly: every probe worker
    // (and the hint coordinator) starts no earlier than its completion.
    const uint64_t pair_end = io_floor_before_ + pairwise_elapsed_;
    io_->AdvanceActorTo(&coordinator_, pair_end);
    for (auto& worker : team) io_->AdvanceActorTo(&worker->stats, pair_end);
  }

  uint64_t frontier_peak = 0;
  std::vector<uint32_t> frontier;
  for (size_t k = 0; k < phases(); ++k) {
    const size_t arity = k + 2;
    const bool last_phase = k + 1 == phases();
    // Every producer of channel k retired: it holds the whole frontier.
    frontier.clear();
    FrontierChunk chunk;
    while (channels_[k]->Pop(&chunk)) {
      frontier.insert(frontier.end(), chunk.flat.begin(), chunk.flat.end());
    }
    const size_t tuples = frontier.size() / arity;
    frontier_peak = std::max<uint64_t>(frontier_peak, tuples);
    for (auto& worker : team) {
      worker->writer =
          last_phase ? nullptr
                     : std::make_unique<FrontierWriter>(
                           static_cast<uint32_t>(arity + 1),
                           exec_.chunk_capacity, channels_[k + 1].get(),
                           /*gauge=*/nullptr);
    }
    // A zero partition_multiplier must not zero the divisor, and the
    // ceiling division is computed overflow-safely (a huge frontier with
    // `size + target - 1` would wrap before dividing).
    const size_t target_slices = std::max<size_t>(
        1, static_cast<size_t>(exec_.partition_multiplier) * num_threads);
    const size_t slice_size = std::max<size_t>(
        1, tuples / target_slices + (tuples % target_slices != 0 ? 1 : 0));
    const size_t num_slices =
        tuples / slice_size + (tuples % slice_size != 0 ? 1 : 0);
    result_.probe_chunk_counts.push_back(num_slices);
    if (num_slices > 0) {
      HintPhase(k);
      const unsigned phase_workers =
          static_cast<unsigned>(std::min<size_t>(num_threads, num_slices));
      const auto slice_body = [&](unsigned w, size_t slice) {
        const size_t begin = slice * slice_size;
        const size_t end = std::min(tuples, begin + slice_size);
        ProbeRun(k, frontier.data() + begin * arity, end - begin,
                 team[w].get());
      };
      TraceSpan phase_span(exec_.tracer, "exec", "probe_phase",
                           exec_.trace_pid);
      phase_span.set_arg("chunks", num_slices);
      uint64_t phase_begin = std::numeric_limits<uint64_t>::max();
      if (phase_span.active() && io_ != nullptr) {
        for (unsigned w = 0; w < phase_workers; ++w) {
          phase_begin =
              std::min(phase_begin, io_->ActorClock(&team[w]->stats));
        }
      }
      if (exec_.task_runner) {
        exec_.task_runner(phase_workers, num_slices, slice_body);
      } else {
        TaskScheduler scheduler(phase_workers, num_slices);
        scheduler.Run(slice_body);
      }
      if (phase_span.active() && io_ != nullptr) {
        uint64_t phase_end = phase_begin;
        for (unsigned w = 0; w < phase_workers; ++w) {
          phase_end = std::max(phase_end, io_->ActorClock(&team[w]->stats));
        }
        phase_span.set_modeled_range(phase_begin, phase_end);
      }
    }
    if (!last_phase) {
      for (auto& worker : team) {
        worker->writer->Flush();
        channels_[k + 1]->RetireProducer();
      }
    }
  }
  return frontier_peak;
}

// The shared epilogue: seal the spillers, close the modeled clocks, merge
// worker stats and outputs, and gauge the resident result chunks.
void ChainRun::Finish(uint64_t frontier_peak) {
  // Seal the last phase's partial chunks before the clocks merge, so
  // their timed writes (charged to each worker's clock) are in the model.
  for (auto& team : teams_) {
    for (auto& worker : team) {
      if (worker->spiller != nullptr) {
        result_.spilled_tuples.MergeFrom(worker->spiller->Take());
      }
    }
  }
  if (owns_io_) {
    io_->Drain();
    coordinator_.io_batches += io_->io_batches() - io_batches_before_;
    result_.modeled_elapsed_micros =
        io_->SynchronizeClocks() - io_clock_before_;
  } else if (io_ != nullptr) {
    // Borrowed lifecycle: retire this chain's actors and measure elapsed
    // against the floor at entry. The shared io_batches counter is left
    // to the engine.
    uint64_t finish = io_floor_before_ + pairwise_elapsed_;
    finish = std::max(finish, io_->RetireActor(&coordinator_));
    for (auto& team : teams_) {
      for (auto& worker : team) {
        finish = std::max(finish, io_->RetireActor(&worker->stats));
      }
    }
    result_.modeled_elapsed_micros = finish - io_floor_before_;
  }
  result_.total_stats.MergeFrom(coordinator_);

  result_.worker_probe_chunks.assign(exec_.num_threads, 0);
  for (auto& team : teams_) {
    for (unsigned w = 0; w < team.size(); ++w) {
      ProbeWorker& worker = *team[w];
      result_.worker_probe_chunks[w] += worker.chunks;
      result_.worker_stats[w].MergeFrom(worker.stats);
      result_.total_stats.MergeFrom(worker.stats);
      result_.tuple_count += worker.final_tuples;
      if (result_.tuples.empty()) {
        result_.tuples = std::move(worker.tuples);
      } else {
        result_.tuples.reserve(result_.tuples.size() + worker.tuples.size());
        for (auto& tuple : worker.tuples) {
          result_.tuples.push_back(std::move(tuple));
        }
      }
    }
  }
  result_.total_stats.frontier_peak_tuples =
      std::max(result_.total_stats.frontier_peak_tuples, frontier_peak);
  if (spill_on_) {
    result_.spilled_tuples.arity = static_cast<uint32_t>(relations_.size());
    result_.spilled_tuples.file = std::move(spill_file_);
    result_.total_stats.NoteResultChunksResident(spill_budget_->peak());
  } else if (collect_tuples_) {
    // Collected tuple vectors report the whole output in chunk-capacity
    // units through an unbounded gauge, which also mirrors the bytes into
    // the run-wide governor — spill-on/off A/Bs compare one counter and
    // one ledger.
    ResidentBudget gauge(ResidentBudget::kUnbounded, exec_.memory_governor,
                         MemoryCategory::kResultChunks,
                         TupleChunkBytes(exec_, relations_.size()));
    const uint64_t cap = exec_.chunk_capacity;
    const uint64_t held = (result_.tuple_count + cap - 1) / cap;
    for (uint64_t c = 0; c < held; ++c) gauge.Admit();
    result_.total_stats.NoteResultChunksResident(gauge.peak());
  }
}

ParallelChainJoinResult ChainRun::Run() {
  const uint64_t frontier_peak =
      exec_.pipelined ? RunPipelined() : RunMaterialized();
  Finish(frontier_peak);
  return std::move(result_);
}

}  // namespace

ParallelChainJoinResult RunParallelChainSpatialJoinWith(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples,
    SharedBufferPool* shared_pool, NodeCache* node_cache) {
  RSJ_CHECK_MSG(relations.size() >= 2, "chain join needs >= 2 relations");
  RSJ_CHECK_MSG(exec_options.num_threads >= 1,
                "executor needs num_threads >= 1");
  RSJ_CHECK_MSG(exec_options.chunk_capacity >= 1,
                "executor needs chunk_capacity >= 1");
  RSJ_CHECK_MSG(exec_options.channel_bound >= 1,
                "executor needs channel_bound >= 1");
  for (const JoinRelation& rel : relations) {
    RSJ_CHECK(rel.tree != nullptr && rel.rects != nullptr);
    RSJ_CHECK_MSG(rel.tree->options().page_size ==
                      relations[0].tree->options().page_size,
                  "all relations must share one page size");
  }
  if (relations.size() == 2) {
    return RunPairChain(relations, options, exec_options, collect_tuples,
                        shared_pool, node_cache);
  }
  return ChainRun(relations, options, exec_options, collect_tuples,
                  shared_pool, node_cache)
      .Run();
}

ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples) {
  return RunParallelChainSpatialJoinWith(relations, options, exec_options,
                                         collect_tuples,
                                         /*shared_pool=*/nullptr,
                                         /*node_cache=*/nullptr);
}

}  // namespace rsj
