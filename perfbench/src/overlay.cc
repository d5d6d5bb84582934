// overlay: one client runs a seeded sequence of ID-spatial-joins on the A,
// B and E maps: the planner's plan for an exact-geometry query
// (PlanPairJoin(..., exact_geometry = true) through ApplyPlan), the MBR
// filter with spilled candidates over the paper's 128 KB LRU buffer
// (smaller than the trees), then refinement on the exact chains, with the
// raster tier when the planner picks it. Refined pairs are collected.
//
// When the raster tier runs, every signature is built before refinement
// (RasterRefineFilter::BuildAll), so the traced run can time the build
// apart from classification and both runs do the same work.
//
// Each run draws kInstances independent map instances; the sequence is
// made of shuffled decks holding every (instance, kind) once.
//
// Checks: the candidate multiset against the benchmark's sweep join, and
// the refined multiset against PolylinesIntersect over those candidates.

#include <algorithm>
#include <cstdio>
#include <random>

#include "common.h"
#include "geom/segment.h"
#include "oracle.h"

namespace perfbench {

namespace {

constexpr double kOverlayScale = 0.05;
constexpr uint64_t kBufferBytes = 128 * 1024;
constexpr unsigned kInstances = 4;
// A timed run stops only at a deck boundary, so every run joins each
// kind of each instance equally often.
constexpr size_t kDecks = 2;
constexpr size_t kDeckSize = 3 * kInstances;

struct OverlayKind {
  const char* name = "";
  const rsj::Dataset* r = nullptr;
  const rsj::Dataset* s = nullptr;
  const Relation* r_tree = nullptr;
  const Relation* s_tree = nullptr;
  MultisetHash candidates;
  MultisetHash refined;
};

struct OverlayInstance {
  Maps maps;
  Relation streets, rivers, streets_second, regions_fine, regions_coarse;
  std::vector<OverlayKind> kinds;  // A, B, E
  size_t tree_pages[3] = {0, 0, 0};
};

struct OverlayState {
  // Heap-held: the kinds point into their instance.
  std::unique_ptr<OverlayInstance> instances[kInstances];
  std::vector<const OverlayKind*> sequence;
};

void SetupInstance(const Config& config, unsigned instance,
                   SpanRecorder* spans, OverlayInstance* state) {
  const Seeds seeds = DeriveSeeds(config.seed, instance);
  {
    ScopedSpan span(spans, "datagen.generate");
    state->maps = GenerateMaps(seeds, kOverlayScale * config.scale,
                               MapSelection{true, true, true, true});
  }
  const Maps& m = state->maps;
  state->streets = BuildRelation(m.streets.Mbrs(), spans);
  state->rivers = BuildRelation(m.rivers.Mbrs(), spans);
  state->streets_second = BuildRelation(m.streets_second.Mbrs(), spans);
  state->regions_fine = BuildRelation(m.regions_fine.Mbrs(), spans);
  state->regions_coarse = BuildRelation(m.regions_coarse.Mbrs(), spans);
  state->kinds = {
      {"A", &m.streets, &m.rivers, &state->streets, &state->rivers, {}, {}},
      {"B", &m.streets, &m.streets_second, &state->streets,
       &state->streets_second, {}, {}},
      {"E", &m.regions_fine, &m.regions_coarse, &state->regions_fine,
       &state->regions_coarse, {}, {}},
  };

  {
    ScopedSpan span(spans, "oracle.overlay");
    for (size_t k = 0; k < state->kinds.size(); ++k) {
      OverlayKind& kind = state->kinds[k];
      for (const IdPair& p :
           SweepJoin(kind.r_tree->rects, kind.s_tree->rects, 0.0)) {
        kind.candidates.AddPair(p.first, p.second);
        if (rsj::PolylinesIntersect(kind.r->objects[p.first].chain,
                                    kind.s->objects[p.second].chain)) {
          kind.refined.AddPair(p.first, p.second);
        }
      }
      state->tree_pages[k] = kind.r_tree->file->live_pages() +
                             kind.s_tree->file->live_pages();
    }
  }
}

std::unique_ptr<OverlayState> SetupOverlay(const Config& config,
                                           SpanRecorder* spans) {
  ScopedSpan setup_span(spans, "setup.overlay");
  auto state = std::make_unique<OverlayState>();
  std::vector<const OverlayKind*> deck;
  for (unsigned i = 0; i < kInstances; ++i) {
    state->instances[i] = std::make_unique<OverlayInstance>();
    SetupInstance(config, i, spans, state->instances[i].get());
    for (const OverlayKind& kind : state->instances[i]->kinds) {
      deck.push_back(&kind);
    }
  }
  std::mt19937_64 rng(DeriveSeeds(config.seed, 0).mix ^ 0x0e71a7ULL);
  for (size_t d = 0; d < kDecks; ++d) {
    std::shuffle(deck.begin(), deck.end(), rng);
    state->sequence.insert(state->sequence.end(), deck.begin(), deck.end());
  }
  return state;
}

struct OpResult {
  double wall_s = 0.0;
  rsj::PlanChoice plan;
  rsj::Statistics stats;  // filter + signature build + refinement
  MultisetHash candidates;
  MultisetHash refined;
  uint64_t exact_tests = 0;  // traced split only
  uint64_t exact_hits = 0;   // traced split only
};

// Refinement split into its calls, each chunk's classification and exact
// tests under their own spans.
void SplitRefine(const rsj::SpilledResult& candidates,
                 const OverlayKind& kind, rsj::RasterRefineFilter* raster,
                 rsj::ResultSink* sink, SpanRecorder* spans, OpResult* out) {
  rsj::SpilledResultReader reader(&candidates, &out->stats);
  std::span<const rsj::ResultPair> chunk;
  std::vector<rsj::ResultPair> inconclusive;
  while (reader.Next(&chunk)) {
    inconclusive.clear();
    if (raster != nullptr) {
      ScopedSpan span(spans, "geom.raster_classify", chunk.size());
      for (const rsj::ResultPair& p : chunk) {
        switch (raster->Classify(p.r, p.s, &out->stats)) {
          case rsj::RasterVerdict::kTrueHit:
            sink->Add(p.r, p.s);
            break;
          case rsj::RasterVerdict::kReject:
            break;
          case rsj::RasterVerdict::kInconclusive:
            inconclusive.push_back(p);
            break;
        }
      }
    } else {
      inconclusive.assign(chunk.begin(), chunk.end());
    }
    ScopedSpan span(spans, "geom.exact_test", inconclusive.size());
    for (const rsj::ResultPair& p : inconclusive) {
      ++out->exact_tests;
      if (rsj::PolylinesIntersect(kind.r->objects[p.r].chain,
                                  kind.s->objects[p.s].chain)) {
        ++out->exact_hits;
        sink->Add(p.r, p.s);
      }
    }
  }
  sink->Flush();
}

// One ID-spatial-join. Untraced (`spans` null) it refines through
// RefineCandidateChunks; traced, through SplitRefine.
OpResult OverlayOp(const OverlayKind& kind, SpanRecorder* spans,
                   const rsj::PlanChoice* plan_override = nullptr) {
  OpResult out;
  const rsj::RTree& r = *kind.r_tree->tree;
  const rsj::RTree& s = *kind.s_tree->tree;
  rsj::ParallelJoinResult filtered;
  rsj::ResultChunkList refined;
  const Clock::time_point t0 = Clock::now();
  {
    if (spans != nullptr) spans->NextOp();
    ScopedSpan op_span(spans, "op.overlay");
    rsj::JoinOptions join;
    join.buffer_bytes = kBufferBytes;
    rsj::ParallelExecutorOptions exec;
    exec.num_threads = 1;
    exec.collect_pairs = true;
    {
      ScopedSpan span(spans, "engine.plan");
      out.plan = plan_override != nullptr
                     ? *plan_override
                     : rsj::PlanPairJoin(r, s, rsj::PlannerOptions{},
                                         /*exact_geometry=*/true);
      rsj::ApplyPlan(out.plan, &join, &exec);
      exec.spill_results = true;
    }
    {
      ScopedSpan span(spans, "join.filter");
      filtered = rsj::RunParallelSpatialJoin(r, s, join, exec);
    }
    out.stats = filtered.total_stats;
    std::unique_ptr<rsj::RasterRefineFilter> raster;
    if (join.refine_raster) {
      ScopedSpan span(spans, "geom.raster_build");
      raster = std::make_unique<rsj::RasterRefineFilter>(
          *kind.r, *kind.s, join.raster_grid_bits);
      raster->BuildAll(&out.stats);
    }
    rsj::MaterializingSink sink;
    {
      ScopedSpan span(spans, "join.refine", filtered.pair_count);
      if (spans == nullptr) {
        rsj::RefineCandidateChunks(filtered.spilled, *kind.r, *kind.s, &sink,
                                   &out.stats, raster.get());
      } else {
        SplitRefine(filtered.spilled, kind, raster.get(), &sink, spans, &out);
      }
    }
    refined = sink.TakeChunks();
  }
  out.wall_s = SecondsSince(t0);
  out.candidates = HashPairs(rsj::ResultChunkList(), &filtered.spilled);
  out.refined = HashPairs(refined, nullptr);
  return out;
}

bool CheckOp(const OverlayKind& kind, OpResult* op, bool plant_fault,
             Report* report) {
  if (plant_fault) op->refined.count -= 1;
  bool ok = true;
  if (!(op->candidates == kind.candidates)) {
    ok = false;
    report->Fail(std::string("overlay ") + kind.name +
                 " candidates differ from the sweep join");
  }
  if (!(op->refined == kind.refined)) {
    ok = false;
    report->Fail(std::string("overlay ") + kind.name +
                 " refined pairs differ from the exact oracle");
  }
  return ok;
}

void AddOpCounters(const OpResult& op, uint64_t candidates,
                   TraceContext* ctx) {
  const rsj::Statistics& st = op.stats;
  ctx->Add("overlay.disk_reads", st.disk_reads);
  ctx->Add("overlay.buffer_hits", st.buffer_hits);
  ctx->Add("overlay.exact_tests", op.exact_tests);
  ctx->Add("overlay.exact_hits", op.exact_hits);
  if (op.plan.refine_raster) {
    ctx->Add("overlay.raster_candidates", candidates);
    ctx->Add("overlay.raster_avoided", st.ri_exact_tests_avoided);
  }
  ctx->Add("any.spill_bytes", st.result_spill_bytes);
  ctx->Add("any.ops", 1);
  ctx->Add("filter.calls", 1);
  ctx->Add("filter.comparisons", st.TotalComparisons());
  ctx->Add("filter.node_pairs", st.node_pairs);
  const double est = std::max(1.0, op.plan.estimate.result_pairs);
  const double act = std::max<double>(1.0, candidates);
  ctx->Add("qerror.sum", std::max(est / act, act / est));
  ctx->Add("qerror.n", 1);
}

// The chosen plan's wall against the best alternative plan, per kind:
// every SJ variant with and without the raster tier.
void MeasurePlans(const OverlayInstance& state, TraceContext* ctx,
                  Report* report) {
  for (const OverlayKind& kind : state.kinds) {
    const auto wall_of = [&](const rsj::PlanChoice* plan) {
      return BestWall(2, [&] { return OverlayOp(kind, nullptr, plan).wall_s; });
    };
    const rsj::PlanChoice chosen = OverlayOp(kind, nullptr).plan;
    const double chosen_wall = wall_of(&chosen);
    double best = chosen_wall;
    for (rsj::JoinAlgorithm algo :
         {rsj::JoinAlgorithm::kSJ1, rsj::JoinAlgorithm::kSJ4,
          rsj::JoinAlgorithm::kSJ5}) {
      for (bool raster : {false, true}) {
        if (algo == chosen.algorithm && raster == chosen.refine_raster) {
          continue;
        }
        rsj::PlanChoice alt = chosen;
        alt.algorithm = algo;
        alt.refine_raster = raster;
        best = std::min(best, wall_of(&alt));
      }
    }
    ctx->Add("regret.sum", chosen_wall / best);
    ctx->Add("regret.n", 1);
    report->info.push_back(std::string("overlay plan ") + kind.name + " " +
                           chosen.Describe());
  }
}

}  // namespace

Report RunOverlay(const Config& config) {
  Report report;
  auto state = RepeatedSetup<OverlayState>(
      &report, [&] { return SetupOverlay(config, nullptr); });

  std::vector<double> latencies, rates;
  bool planted = false;
  size_t next = 0;
  const Clock::time_point start = Clock::now();
  do {
    double deck_wall = 0.0;
    for (size_t i = 0; i < kDeckSize; ++i) {
      const OverlayKind& kind = *state->sequence[next];
      next = (next + 1) % state->sequence.size();
      OpResult op = OverlayOp(kind, nullptr);
      deck_wall += op.wall_s;
      latencies.push_back(op.wall_s * 1e3);
      ++report.attempted;
      const bool plant = config.plant_fault && !planted;
      planted = true;
      if (!CheckOp(kind, &op, plant, &report)) ++report.failed;
    }
    rates.push_back(kDeckSize / deck_wall);
  } while (SecondsSince(start) < config.seconds);
  AddLatencyMetrics(latencies, rates, &report);
  for (const auto& inst : state->instances) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "overlay cache: LRU buffer %llu KiB (%llu pages) vs tree "
                  "pages A %zu, B %zu, E %zu",
                  static_cast<unsigned long long>(kBufferBytes / 1024),
                  static_cast<unsigned long long>(kBufferBytes / 4096),
                  inst->tree_pages[0], inst->tree_pages[1],
                  inst->tree_pages[2]);
    report.info.push_back(line);
  }
  return report;
}

void TraceOverlay(const Config& config, double budget_s, TraceContext* ctx,
                  Report* report) {
  auto state = SetupOverlay(config, &ctx->spans);
  MeasurePlans(*state->instances[0], ctx, report);
  AlternateReplays("overlay", budget_s, ctx, [&](SpanRecorder* spans) {
    ReplayWall r;
    for (const OverlayKind* kind_ptr : state->sequence) {
      const OverlayKind& kind = *kind_ptr;
      OpResult op = OverlayOp(kind, spans);
      r.wall_s += op.wall_s;
      ++r.ops;
      ++report->attempted;
      if (!CheckOp(kind, &op, false, report)) ++report->failed;
      if (spans != nullptr) AddOpCounters(op, kind.candidates.count, ctx);
    }
    return r;
  });
}

}  // namespace perfbench
