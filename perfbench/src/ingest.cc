// ingest: one client builds the streets and rivers maps of test A by
// inserting objects one at a time. An operation is one batch: kBatch
// inserts, kBatch delete+reinsert churn pairs (about 10 % of the objects
// over a cycle), or kWindowsPerBatch window queries. A cycle builds both
// trees of one map instance from empty; a round runs one cycle per
// instance, and rounds repeat until the time is up.
//
// Checks: a brute-force answer for the first window of every query batch,
// RTree::Validate() on both trees after each cycle, and a hash of every
// page that must be the same in every cycle of an instance (and is
// printed, so two runs of one seed can be compared).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>

#include "common.h"

namespace perfbench {

namespace {

// Fraction of the paper's cardinalities the ingest maps use.
constexpr double kIngestScale = 0.1;
constexpr unsigned kInstances = 4;
constexpr uint32_t kBatch = 64;
constexpr uint32_t kWindowsPerBatch = 16;
// One churn batch after every kChurnEvery insert batches (10 % churn),
// one query batch after every kQueryEvery insert batches.
constexpr uint32_t kChurnEvery = 10;
constexpr uint32_t kQueryEvery = 4;

enum class OpKind { kInsert, kChurn, kQuery };

struct Op {
  OpKind kind = OpKind::kInsert;
  int map = 0;          // 0 = streets, 1 = rivers
  uint32_t begin = 0;   // insert: object ids [begin, end); churn: offsets
  uint32_t end = 0;     // into churn_ids; query: offsets into windows
  uint32_t live = 0;    // objects of `map` inserted before this op
};

struct IngestInstance {
  std::vector<rsj::Rect> rects[2];
  std::vector<Op> schedule;
  std::vector<uint32_t> churn_ids;
  std::vector<rsj::Rect> windows;
};

struct IngestState {
  IngestInstance instances[kInstances];
};

void SetupInstance(const Config& config, unsigned instance,
                   SpanRecorder* spans, IngestInstance* state) {
  const Seeds seeds = DeriveSeeds(config.seed, instance);
  {
    ScopedSpan span(spans, "datagen.generate");
    MapSelection which;
    which.streets = which.rivers = true;
    Maps maps = GenerateMaps(seeds, kIngestScale * config.scale, which);
    state->rects[0] = maps.streets.Mbrs();
    state->rects[1] = maps.rivers.Mbrs();
  }

  // The seeded operation schedule of one cycle: insert batches alternate
  // between the two maps; churn and query batches interleave.
  std::mt19937_64 rng(seeds.mix ^ 0x1a9e57ULL);
  uint32_t inserted[2] = {0, 0};
  uint32_t insert_batches = 0;
  int next_map = 0;
  while (inserted[0] < state->rects[0].size() ||
         inserted[1] < state->rects[1].size()) {
    if (inserted[next_map] >= state->rects[next_map].size()) {
      next_map = 1 - next_map;
    }
    Op ins;
    ins.map = next_map;
    ins.begin = inserted[next_map];
    ins.end = std::min<uint32_t>(ins.begin + kBatch,
                                 state->rects[next_map].size());
    ins.live = inserted[next_map];
    inserted[next_map] = ins.end;
    state->schedule.push_back(ins);
    ++insert_batches;
    next_map = 1 - next_map;

    const int m = static_cast<int>(rng() % 2);
    if (insert_batches % kChurnEvery == 0 && inserted[m] >= kBatch) {
      Op churn;
      churn.kind = OpKind::kChurn;
      churn.map = m;
      churn.begin = state->churn_ids.size();
      for (uint32_t k = 0; k < kBatch; ++k) {
        state->churn_ids.push_back(static_cast<uint32_t>(rng() % inserted[m]));
      }
      churn.end = state->churn_ids.size();
      churn.live = inserted[m];
      state->schedule.push_back(churn);
    }
    if (insert_batches % kQueryEvery == 0 && inserted[m] > 0) {
      Op query;
      query.kind = OpKind::kQuery;
      query.map = m;
      query.begin = state->windows.size();
      std::uniform_real_distribution<double> side(0.002, 0.01);
      for (uint32_t k = 0; k < kWindowsPerBatch; ++k) {
        const rsj::Rect& c = state->rects[m][rng() % inserted[m]];
        const double cx = 0.5 * (c.xl + c.xu), cy = 0.5 * (c.yl + c.yu);
        const double h = 0.5 * side(rng);
        state->windows.push_back(rsj::Rect{
            static_cast<rsj::Coord>(cx - h), static_cast<rsj::Coord>(cy - h),
            static_cast<rsj::Coord>(cx + h), static_cast<rsj::Coord>(cy + h)});
      }
      query.end = state->windows.size();
      query.live = inserted[m];
      state->schedule.push_back(query);
    }
  }
}

std::unique_ptr<IngestState> SetupIngest(const Config& config,
                                         SpanRecorder* spans) {
  ScopedSpan setup_span(spans, "setup.ingest");
  auto state = std::make_unique<IngestState>();
  for (unsigned i = 0; i < kInstances; ++i) {
    SetupInstance(config, i, spans, &state->instances[i]);
  }
  return state;
}

uint64_t PageHash(const rsj::PagedFile& file) {
  uint64_t h = file.allocated_pages();
  for (rsj::PageId id = 0; id < file.allocated_pages(); ++id) {
    const std::byte* page = file.PageData(id);
    for (uint32_t off = 0; off + 8 <= file.page_size(); off += 8) {
      uint64_t word = 0;
      std::memcpy(&word, page + off, 8);
      h = SplitMix64(h ^ word);
    }
  }
  return h;
}

struct CycleResult {
  std::vector<double> latencies_ms;
  uint64_t page_hash = 0;
  uint64_t failed = 0;
};

// One cycle: both trees built from empty by the schedule. `spans` null is
// the untraced replay; the code path is otherwise the same.
CycleResult RunCycle(const IngestInstance& state, const Config& config,
                     SpanRecorder* spans, Report* report) {
  CycleResult out;
  rsj::RTreeOptions options;
  options.page_size = rsj::kPageSize4K;
  rsj::PagedFile file0(options.page_size), file1(options.page_size);
  rsj::RTree trees[2] = {rsj::RTree(&file0, options),
                         rsj::RTree(&file1, options)};
  out.latencies_ms.reserve(state.schedule.size());
  std::vector<uint32_t> hits;
  for (const Op& op : state.schedule) {
    rsj::RTree& tree = trees[op.map];
    const std::vector<rsj::Rect>& rects = state.rects[op.map];
    std::vector<uint32_t> checked;
    bool op_failed = false;
    const Clock::time_point t0 = Clock::now();
    {
      if (spans != nullptr) spans->NextOp();
      ScopedSpan op_span(spans, "op.ingest");
      switch (op.kind) {
        case OpKind::kInsert:
          for (uint32_t id = op.begin; id < op.end; ++id) {
            ScopedSpan span(spans, "rtree.insert", 1);
            tree.Insert(rects[id], id);
          }
          break;
        case OpKind::kChurn:
          for (uint32_t k = op.begin; k < op.end; ++k) {
            const uint32_t id = state.churn_ids[k];
            bool deleted = false;
            {
              ScopedSpan span(spans, "rtree.delete", 1);
              deleted = tree.Delete(rects[id], id);
            }
            op_failed |= !deleted;
            ScopedSpan span(spans, "rtree.insert", 1);
            tree.Insert(rects[id], id);
          }
          break;
        case OpKind::kQuery:
          for (uint32_t k = op.begin; k < op.end; ++k) {
            hits.clear();
            {
              ScopedSpan span(spans, "rtree.window_query", 1);
              tree.WindowQuery(state.windows[k], &hits);
            }
            if (k == op.begin) checked = hits;
          }
          break;
      }
    }
    out.latencies_ms.push_back(SecondsSince(t0) * 1e3);

    if (op.kind == OpKind::kQuery) {
      // Brute force over the objects inserted so far (churn reinserts
      // what it deletes, so the live set is the inserted prefix).
      const rsj::Rect& w = state.windows[op.begin];
      std::vector<uint32_t> expect;
      for (uint32_t id = 0; id < op.live; ++id) {
        if (rects[id].Intersects(w)) expect.push_back(id);
      }
      if (config.plant_fault && !checked.empty()) checked.pop_back();
      std::sort(checked.begin(), checked.end());
      if (checked != expect) {
        op_failed = true;
        report->Fail("ingest window query: " + std::to_string(checked.size()) +
                     " ids, brute force " + std::to_string(expect.size()));
      }
    } else if (op.kind == OpKind::kChurn && op_failed) {
      report->Fail("ingest churn: Delete() missed an inserted object");
    }
    out.failed += op_failed ? 1 : 0;
  }

  for (int m = 0; m < 2; ++m) {
    const std::vector<std::string> violations = trees[m].Validate();
    if (!violations.empty() || trees[m].size() != state.rects[m].size()) {
      ++out.failed;
      report->Fail("ingest tree " + std::to_string(m) + " invalid: " +
                   (violations.empty() ? "size" : violations.front()));
    }
  }
  out.page_hash = SplitMix64(PageHash(file0)) ^ PageHash(file1);
  return out;
}

void CheckHash(uint64_t hash, unsigned instance, uint64_t* first,
               Report* report) {
  if (*first == 0) {
    *first = hash;
    char line[64];
    std::snprintf(line, sizeof(line), "ingest page_hash[%u] %016llx",
                  instance, static_cast<unsigned long long>(hash));
    report->info.push_back(line);
  } else if (hash != *first) {
    report->Fail("ingest page hash differs between cycles of one seed");
  }
}

}  // namespace

Report RunIngest(const Config& config) {
  Report report;
  auto state = RepeatedSetup<IngestState>(
      &report, [&] { return SetupIngest(config, nullptr); });

  std::vector<double> latencies, rates;
  uint64_t first_hash[kInstances] = {};
  const Clock::time_point start = Clock::now();
  do {
    for (unsigned i = 0; i < kInstances; ++i) {
      CycleResult cycle =
          RunCycle(state->instances[i], config, nullptr, &report);
      double wall = 0.0;
      for (double ms : cycle.latencies_ms) wall += ms * 1e-3;
      rates.push_back(cycle.latencies_ms.size() / wall);
      latencies.insert(latencies.end(), cycle.latencies_ms.begin(),
                       cycle.latencies_ms.end());
      report.attempted += cycle.latencies_ms.size();
      report.failed += cycle.failed;
      CheckHash(cycle.page_hash, i, &first_hash[i], &report);
    }
  } while (SecondsSince(start) < config.seconds);
  AddLatencyMetrics(latencies, rates, &report);
  for (const IngestInstance& inst : state->instances) {
    report.info.push_back("ingest objects " +
                          std::to_string(inst.rects[0].size()) + " + " +
                          std::to_string(inst.rects[1].size()) +
                          ", ops per cycle " +
                          std::to_string(inst.schedule.size()));
  }
  return report;
}

void TraceIngest(const Config& config, double budget_s, TraceContext* ctx,
                 Report* report) {
  auto state = SetupIngest(config, &ctx->spans);
  uint64_t first_hash[kInstances] = {};
  AlternateReplays("ingest", budget_s, ctx, [&](SpanRecorder* spans) {
    ReplayWall r;
    for (unsigned i = 0; i < kInstances; ++i) {
      CycleResult cycle = RunCycle(state->instances[i], config, spans, report);
      for (double ms : cycle.latencies_ms) r.wall_s += ms * 1e-3;
      r.ops += cycle.latencies_ms.size();
      report->attempted += cycle.latencies_ms.size();
      report->failed += cycle.failed;
      CheckHash(cycle.page_hash, i, &first_hash[i], report);
    }
    return r;
  });
}

}  // namespace perfbench
