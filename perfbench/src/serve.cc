// serve: the trees of the A, B, D and E maps are built once in set-up.
// Four closed-loop clients each submit one planner-driven MBR join to one
// QueryEngine (results collected) and wait for it before submitting the
// next. The seeded mix covers A, B, the D self-join, E, one
// within-distance join and one 3-relation chain.
//
// Each run draws kInstances independent map instances; a query's instance
// rotates with its client and round. An epoch is kRounds rounds per client, with all clients meeting at a
// barrier every kRoundsPerBarrier rounds, where one of them calls
// WaitAll(). The engine keeps every finished session and its pairs until
// it is destroyed, so each epoch gets a fresh engine: peak memory then
// depends on the fixed epoch size, not on how fast the epochs run. The
// latency percentiles are taken per epoch and reported as their medians.
//
// Checks: every session's result multiset against the benchmark's sweep
// join (pairwise kinds) or a sequential RunChainSpatialJoin (the chain).

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <random>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common.h"
#include "oracle.h"

namespace perfbench {

namespace {

constexpr double kServeScale = 0.075;
constexpr unsigned kClients = 4;
constexpr size_t kRounds = 12;
constexpr size_t kRoundsPerBarrier = 4;
constexpr double kEpsilon = 0.002;
constexpr unsigned kInstances = 4;

enum MapId { kStreets, kRivers, kStreetsSecond, kRegionsFine, kRegionsCoarse,
             kMapCount };

struct QueryKind {
  const char* name;
  std::vector<MapId> maps;
  double epsilon = 0.0;  // > 0: within-distance join
};

const std::vector<QueryKind>& Kinds() {
  static const std::vector<QueryKind> kinds = {
      {"A", {kStreets, kRivers}},
      {"B", {kStreets, kStreetsSecond}},
      {"D", {kRivers, kRivers}},
      {"E", {kRegionsFine, kRegionsCoarse}},
      {"A~eps", {kStreets, kRivers}, kEpsilon},
      {"chain", {kStreets, kRivers, kStreetsSecond}},
  };
  return kinds;
}

struct ServeInstance {
  Relation maps[kMapCount];
  std::vector<MultisetHash> expect;  // per kind
};

struct Query {
  size_t kind = 0;
  unsigned instance = 0;
};

struct ServeState {
  ServeInstance instances[kInstances];
  // Per client: the queries it submits, round by round.
  std::vector<std::vector<Query>> mix;
  size_t tree_pages = 0;
};

std::vector<rsj::JoinRelation> Relations(const ServeInstance& state,
                                         const QueryKind& kind) {
  std::vector<rsj::JoinRelation> rels;
  for (MapId m : kind.maps) rels.push_back(state.maps[m].join_relation());
  return rels;
}

rsj::JoinOptions KindJoinOptions(const QueryKind& kind) {
  rsj::JoinOptions join;
  if (kind.epsilon > 0.0) {
    join.predicate = rsj::JoinPredicate::kWithinDistance;
    join.epsilon = kind.epsilon;
  }
  return join;
}

void SetupInstance(const Config& config, unsigned instance,
                   SpanRecorder* spans, ServeInstance* state) {
  const Seeds seeds = DeriveSeeds(config.seed, instance);
  Maps maps;
  {
    ScopedSpan span(spans, "datagen.generate");
    maps = GenerateMaps(seeds, kServeScale * config.scale,
                        MapSelection{true, true, true, true});
  }
  state->maps[kStreets] = BuildRelation(maps.streets.Mbrs(), spans);
  state->maps[kRivers] = BuildRelation(maps.rivers.Mbrs(), spans);
  state->maps[kStreetsSecond] =
      BuildRelation(maps.streets_second.Mbrs(), spans);
  state->maps[kRegionsFine] = BuildRelation(maps.regions_fine.Mbrs(), spans);
  state->maps[kRegionsCoarse] =
      BuildRelation(maps.regions_coarse.Mbrs(), spans);
  {
    ScopedSpan span(spans, "oracle.serve");
    for (const QueryKind& kind : Kinds()) {
      MultisetHash h;
      if (kind.maps.size() == 2) {
        for (const IdPair& p :
             SweepJoin(state->maps[kind.maps[0]].rects,
                       state->maps[kind.maps[1]].rects, kind.epsilon)) {
          h.AddPair(p.first, p.second);
        }
      } else {
        const rsj::MultiwayJoinResult ref = rsj::RunChainSpatialJoin(
            Relations(*state, kind), KindJoinOptions(kind), true);
        for (const auto& t : ref.tuples) h.AddTuple(t.data(), t.size());
      }
      state->expect.push_back(h);
    }
  }
}

std::unique_ptr<ServeState> SetupServe(const Config& config,
                                       SpanRecorder* spans) {
  ScopedSpan setup_span(spans, "setup.serve");
  auto state = std::make_unique<ServeState>();
  for (unsigned i = 0; i < kInstances; ++i) {
    SetupInstance(config, i, spans, &state->instances[i]);
    for (const Relation& rel : state->instances[i].maps) {
      state->tree_pages += rel.file->live_pages();
    }
  }

  // Each client draws its kinds from shuffled decks; the instance rotates
  // with client and round.
  std::mt19937_64 rng(DeriveSeeds(config.seed, 0).mix ^ 0x5e12eULL);
  state->mix.resize(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    std::vector<Query>& rounds = state->mix[c];
    while (rounds.size() < kRounds) {
      std::vector<size_t> deck(Kinds().size());
      for (size_t k = 0; k < deck.size(); ++k) deck[k] = k;
      std::shuffle(deck.begin(), deck.end(), rng);
      for (size_t k : deck) {
        rounds.push_back(
            Query{k, static_cast<unsigned>((c + rounds.size()) % kInstances)});
      }
    }
    rounds.resize(kRounds);
  }
  return state;
}

rsj::QueryEngine::Options EngineOptions(const ServeState& state) {
  rsj::QueryEngine::Options opt;
  // The shared pool and the decode cache hold every tree page twice over
  // (the pool is sharded, so a shard must not overflow either).
  opt.pool.page_size = rsj::kPageSize4K;
  opt.pool.capacity_bytes = 2 * state.tree_pages * rsj::kPageSize4K;
  opt.node_cache_nodes = 2 * state.tree_pages;
  // Two running sessions for four clients: admission control queues the
  // rest, so queueing shows up in the tail latency.
  opt.max_concurrent_sessions = 2;
  // No shared task threads: each session's own thread runs its query, so
  // two threads compute at once on the four cores the benchmark assumes.
  // With pool threads on top, a session waits on whichever task thread
  // the scheduler has preempted, and the latencies measure the scheduler.
  opt.pool_threads = 0;
  opt.session_threads = 2;
  return opt;
}

bool OutcomeMatches(const rsj::QueryOutcome& out, const MultisetHash& expect,
                    bool plant_fault) {
  MultisetHash h;
  if (out.is_chain) {
    for (const auto& t : out.chain.tuples) h.AddTuple(t.data(), t.size());
    out.chain.spilled_tuples.ForEachTuple(
        [&](const uint32_t* t) { h.AddTuple(t, out.chain.spilled_tuples.arity); },
        nullptr);
  } else {
    h = HashPairs(out.pair.chunks, &out.pair.spilled);
  }
  if (plant_fault) h.count -= 1;
  return h == expect;
}

struct Submitted {
  Query query;
  double latency_ms = 0.0;
  rsj::QuerySession* session = nullptr;
};

struct EpochResult {
  std::vector<double> latencies_ms;
  double wall_s = 0.0;
  uint64_t failed = 0;
  // Engine-side views, for the traced run.
  std::vector<double> queue_wait_ms;
  std::vector<double> service_ms;
  std::vector<double> modeled_ms;
  double governor_peak_mb = 0.0;
};

EpochResult RunEpoch(const ServeState& state, const Config& config,
                     Report* report) {
  EpochResult out;
  rsj::QueryEngine engine(EngineOptions(state));
  std::vector<std::vector<Submitted>> done(kClients);
  std::barrier sync(kClients, [&engine]() noexcept { engine.WaitAll(); });

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        const Query query = state.mix[c][round];
        const QueryKind& kind = Kinds()[query.kind];
        rsj::QuerySpec spec;
        spec.relations = Relations(state.instances[query.instance], kind);
        spec.label = kind.name;
        spec.join = KindJoinOptions(kind);
        spec.collect = true;
        const Clock::time_point q0 = Clock::now();
        rsj::QuerySession* session = engine.Submit(std::move(spec));
        session->Wait();
        done[c].push_back(Submitted{query, SecondsSince(q0) * 1e3, session});
        if ((round + 1) % kRoundsPerBarrier == 0) sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.wall_s = SecondsSince(t0);

  bool planted = false;
  for (const auto& per_client : done) {
    for (const Submitted& q : per_client) {
      out.latencies_ms.push_back(q.latency_ms);
      const QueryKind& kind = Kinds()[q.query.kind];
      const MultisetHash& expect =
          state.instances[q.query.instance].expect[q.query.kind];
      if (q.session->state() != rsj::SessionState::kFinished) {
        ++out.failed;
        report->Fail(std::string("serve ") + kind.name + " was shed");
        continue;
      }
      const bool plant = config.plant_fault && !planted;
      planted = true;
      if (!OutcomeMatches(q.session->outcome(), expect, plant)) {
        ++out.failed;
        report->Fail(std::string("serve ") + kind.name +
                     " result differs from the oracle");
      }
      const double queue_ms = q.session->queue_wall_micros() * 1e-3;
      out.queue_wait_ms.push_back(queue_ms);
      out.service_ms.push_back(q.latency_ms - queue_ms);
      out.modeled_ms.push_back(
          q.session->outcome().modeled_elapsed_micros * 1e-3);
    }
  }
  out.governor_peak_mb = engine.governor().peak_bytes() / (1024.0 * 1024.0);
  return out;
}

// The resources one engine owns, rebuilt outside the engine so a query
// can be replayed through the same planner -> executor calls.
struct ReplayEngine {
  explicit ReplayEngine(const rsj::QueryEngine::Options& opt)
      : options(opt),
        io(opt.io),
        pool(opt.pool),
        nodes(&pool, rsj::NodeCache::Options{opt.node_cache_nodes}),
        tasks(rsj::SessionTaskPool::Options{opt.pool_threads, nullptr}) {
    pool.AttachIoScheduler(&io);
  }

  // The executor options RunSession derives for one session.
  rsj::ParallelExecutorOptions ExecOptions() {
    rsj::ParallelExecutorOptions exec = options.exec_base;
    exec.num_threads = std::max(2u, options.session_threads);
    exec.shared_pool = true;
    exec.node_cache = true;
    exec.io_scheduler = &io;
    exec.own_io_lifecycle = false;
    exec.memory_governor = &governor;
    exec.task_runner = tasks.runner();
    exec.collect_pairs = true;
    return exec;
  }

  const rsj::QueryEngine::Options options;
  rsj::MemoryGovernor governor;
  rsj::IoScheduler io;
  rsj::SharedBufferPool pool;
  rsj::NodeCache nodes;
  rsj::SessionTaskPool tasks;
};

struct ReplayRun {
  rsj::QueryOutcome outcome;
  double wall_s = 0.0;
};

// One query through planner and executor, as the engine runs a session.
// `plan_override`, when set, replaces the planner's choice (for the
// planner-regret alternatives).
ReplayRun ReplayQuery(const ServeInstance& state, const QueryKind& kind,
                      ReplayEngine* engine, SpanRecorder* spans,
                      const rsj::PlanChoice* plan_override = nullptr) {
  ReplayRun run;
  rsj::QueryOutcome& out = run.outcome;
  const std::vector<rsj::JoinRelation> rels = Relations(state, kind);
  rsj::JoinOptions join = KindJoinOptions(kind);
  rsj::ParallelExecutorOptions exec = engine->ExecOptions();
  out.is_chain = rels.size() > 2;
  const Clock::time_point t0 = Clock::now();
  {
    if (spans != nullptr) spans->NextOp();
    ScopedSpan op_span(spans, "op.serve");
    {
      ScopedSpan span(spans, "engine.plan");
      out.planned = true;
      out.plan = plan_override != nullptr
                     ? *plan_override
                     : (out.is_chain
                            ? rsj::PlanChainJoin(rels,
                                                 engine->options.planner)
                            : rsj::PlanPairJoin(*rels[0].tree, *rels[1].tree,
                                                engine->options.planner));
      rsj::ApplyPlan(out.plan, &join, &exec);
    }
    if (out.is_chain) {
      ScopedSpan span(spans, "exec.chain");
      out.chain = rsj::RunParallelChainSpatialJoinWith(
          rels, join, exec, true, &engine->pool, &engine->nodes);
      out.result_count = out.chain.tuple_count;
      out.modeled_elapsed_micros = out.chain.modeled_elapsed_micros;
    } else {
      ScopedSpan span(spans, "exec.parallel_join");
      out.pair = rsj::RunParallelSpatialJoinWith(
          *rels[0].tree, *rels[1].tree, join, exec, &engine->pool,
          &engine->nodes);
      out.result_count = out.pair.pair_count;
      out.modeled_elapsed_micros = out.pair.modeled_elapsed_micros;
    }
    // The engine folds the modeled clocks once per WaitAll batch; a
    // replayed query is a batch of one.
    ScopedSpan span(spans, "io.fold");
    engine->io.Drain();
    engine->io.SynchronizeClocks();
  }
  run.wall_s = SecondsSince(t0);
  return run;
}

void AddQueryCounters(const rsj::QueryOutcome& out, TraceContext* ctx) {
  const rsj::Statistics& st =
      out.is_chain ? out.chain.total_stats : out.pair.total_stats;
  ctx->Add("serve.queries", 1);
  ctx->Add("serve.node_cache_hits", st.node_cache_hits);
  ctx->Add("serve.node_decodes", st.node_decodes);
  ctx->Add("any.spill_bytes", st.result_spill_bytes);
  ctx->Add("any.ops", 1);
  if (!out.is_chain) {
    ctx->Add("filter.calls", 1);
    ctx->Add("filter.comparisons", st.TotalComparisons());
    ctx->Add("filter.node_pairs", st.node_pairs);
  }
  const double est = std::max(1.0, out.plan.estimate.result_pairs);
  const double act = std::max<double>(1.0, out.result_count);
  ctx->Add("qerror.sum", std::max(est / act, act / est));
  ctx->Add("qerror.n", 1);
}

// Sequential / parallel wall of each pairwise kind, and the chosen plan's
// wall against the best alternative plan of each kind.
void MeasurePlans(const ServeInstance& state, ReplayEngine* engine,
                  TraceContext* ctx, Report* report) {
  for (size_t k = 0; k < Kinds().size(); ++k) {
    const QueryKind& kind = Kinds()[k];
    const ReplayRun chosen_run = ReplayQuery(state, kind, engine, nullptr);
    const rsj::PlanChoice chosen = chosen_run.outcome.plan;
    const auto wall_of = [&](const rsj::PlanChoice& plan) {
      return BestWall(2, [&] {
        return ReplayQuery(state, kind, engine, nullptr, &plan).wall_s;
      });
    };
    const double chosen_wall = wall_of(chosen);
    double best = chosen_wall;
    for (rsj::JoinAlgorithm algo :
         {rsj::JoinAlgorithm::kSJ1, rsj::JoinAlgorithm::kSJ4,
          rsj::JoinAlgorithm::kSJ5}) {
      for (bool pipelined : {true, false}) {
        if (!chosen_run.outcome.is_chain && !pipelined) continue;
        rsj::PlanChoice alt = chosen;
        alt.algorithm = algo;
        if (chosen_run.outcome.is_chain) alt.pipelined = pipelined;
        if (alt.algorithm == chosen.algorithm &&
            alt.pipelined == chosen.pipelined) {
          continue;
        }
        best = std::min(best, wall_of(alt));
      }
    }
    ctx->Add("regret.sum", chosen_wall / best);
    ctx->Add("regret.n", 1);
    report->info.push_back(std::string("serve plan ") + kind.name + " " +
                           chosen.Describe());

    // No plan at this scale turns prefetching on, so the prefetcher is
    // measured on a cold cache with the chosen plan plus prefetching.
    {
      ReplayEngine cold(engine->options);
      rsj::PlanChoice prefetching = chosen;
      prefetching.prefetch = true;
      const ReplayRun run =
          ReplayQuery(state, kind, &cold, nullptr, &prefetching);
      const rsj::Statistics& st = run.outcome.is_chain
                                      ? run.outcome.chain.total_stats
                                      : run.outcome.pair.total_stats;
      ctx->Add("prefetch.issued", st.prefetch_issued);
      ctx->Add("prefetch.hits", st.prefetch_hits);
    }

    if (chosen_run.outcome.is_chain) continue;
    const std::vector<rsj::JoinRelation> rels = Relations(state, kind);
    rsj::JoinOptions join = KindJoinOptions(kind);
    rsj::ParallelExecutorOptions unused = engine->ExecOptions();
    rsj::ApplyPlan(chosen, &join, &unused);
    // The sequential run gets a private buffer as large as the shared pool.
    join.buffer_bytes = engine->options.pool.capacity_bytes;
    const double seq = BestWall(2, [&] {
      const Clock::time_point t0 = Clock::now();
      rsj::MaterializingSink sink;
      rsj::Statistics stats;
      rsj::RunSpatialJoin(*rels[0].tree, *rels[1].tree, join, &sink, &stats);
      return SecondsSince(t0);
    });
    ctx->Add("speedup.sum", seq / chosen_wall);
    ctx->Add("speedup.n", 1);
  }
}

// Hands the heap pages freed with the finished epoch's engine back to the
// system. Without it they stay in the malloc arenas, fragments of them
// pile up epoch after epoch, and peak_rss_mb grows with the number of
// epochs a run fits instead of showing what one epoch of serving holds.
void ReturnFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

}  // namespace

Report RunServe(const Config& config) {
  Report report;
  auto state = RepeatedSetup<ServeState>(
      &report, [&] { return SetupServe(config, nullptr); });

  std::vector<std::vector<double>> latencies;
  std::vector<double> rates;
  const Clock::time_point start = Clock::now();
  do {
    EpochResult epoch = RunEpoch(*state, config, &report);
    rates.push_back(epoch.latencies_ms.size() / epoch.wall_s);
    report.attempted += epoch.latencies_ms.size();
    report.failed += epoch.failed;
    latencies.push_back(std::move(epoch.latencies_ms));
    ReturnFreedMemory();
  } while (SecondsSince(start) < config.seconds);
  AddBlockLatencyMetrics(latencies, rates, &report);
  const rsj::QueryEngine::Options opt = EngineOptions(*state);
  char line[200];
  std::snprintf(line, sizeof(line),
                "serve cache: tree pages %zu (%zu KiB), pool %llu KiB, "
                "node cache %zu nodes",
                state->tree_pages, state->tree_pages * 4,
                static_cast<unsigned long long>(opt.pool.capacity_bytes / 1024),
                opt.node_cache_nodes);
  report.info.push_back(line);
  return report;
}

void TraceServe(const Config& config, double budget_s, TraceContext* ctx,
                Report* report) {
  auto state = SetupServe(config, &ctx->spans);

  // Engine-side numbers come from one untraced engine epoch.
  EpochResult epoch = RunEpoch(*state, config, report);
  report->attempted += epoch.latencies_ms.size();
  report->failed += epoch.failed;
  for (double ms : epoch.queue_wait_ms) ctx->Add("engine.queue_wait_ms", ms);
  for (double ms : epoch.service_ms) ctx->Add("engine.service_ms", ms);
  for (double ms : epoch.modeled_ms) ctx->Add("engine.modeled_ms", ms);
  ctx->Add("engine.sessions", epoch.queue_wait_ms.size());
  ctx->Add("engine.governor_peak_mb", epoch.governor_peak_mb);

  ReplayEngine engine(EngineOptions(*state));
  MeasurePlans(state->instances[0], &engine, ctx, report);

  // The operation mix: every client's rounds, in round order.
  std::vector<Query> mix;
  for (size_t round = 0; round < kRounds; ++round) {
    for (unsigned c = 0; c < kClients; ++c) mix.push_back(state->mix[c][round]);
  }
  AlternateReplays("serve", budget_s, ctx, [&](SpanRecorder* spans) {
    ReplayWall r;
    for (const Query& q : mix) {
      const QueryKind& kind = Kinds()[q.kind];
      const ServeInstance& inst = state->instances[q.instance];
      ReplayRun run = ReplayQuery(inst, kind, &engine, spans);
      r.wall_s += run.wall_s;
      ++r.ops;
      ++report->attempted;
      if (!OutcomeMatches(run.outcome, inst.expect[q.kind], false)) {
        ++report->failed;
        report->Fail(std::string("serve replay ") + kind.name +
                     " result differs from the oracle");
      }
      if (spans != nullptr) AddQueryCounters(run.outcome, ctx);
    }
    return r;
  });
}

}  // namespace perfbench
