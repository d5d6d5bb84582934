// Shared pieces of the repository benchmark: command-line config, seeded
// input generation, timing, percentiles, order-independent result hashes
// and the report every workload fills in.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rsj.h"
#include "spans.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Cardinality multiplier on top of each workload's own scale (the
  // self-test runs at a tiny fraction).
  double scale = 1.0;
  // Self-test hook: drop one result before the oracle check.
  bool plant_fault = false;
  // Directory for the span dump of traced runs ("" = no dump).
  std::string out_dir;
};

// --- seeds -----------------------------------------------------------------

// Every generator seed, derived from the benchmark seed. A run draws
// several independent map instances, so that one unusual city layout does
// not decide a run's figures. Instance 0 of seed 1 reproduces
// MakeWorkload's Table 8 seeds exactly.
struct Seeds {
  uint64_t city = 4242;         // shared geography of streets and rivers
  uint64_t streets = 1;         // first street map (tests A, B)
  uint64_t streets_second = 7;  // second street map (test B)
  uint64_t rivers = 2;          // rivers & railways (tests A, D)
  uint64_t regions_fine = 3;    // test E, R side
  uint64_t regions_coarse = 11; // test E, S side
  uint64_t mix = 1;             // operation order and query parameters
};
inline constexpr uint64_t kDefaultSeed = 1;
Seeds DeriveSeeds(uint64_t bench_seed, unsigned instance);

uint64_t SplitMix64(uint64_t x);

// The five maps of the Table 8 workloads, at `scale` of the paper's
// cardinalities. Maps a workload does not need stay empty.
struct Maps {
  rsj::Dataset streets;         // A.r, B.r
  rsj::Dataset rivers;          // A.s, D.r, D.s
  rsj::Dataset streets_second;  // B.s
  rsj::Dataset regions_fine;    // E.r
  rsj::Dataset regions_coarse;  // E.s
};
struct MapSelection {
  bool streets = false, rivers = false, streets_second = false,
       regions = false;
};
Maps GenerateMaps(const Seeds& seeds, double scale, MapSelection which);

// An insertion-built R*-tree of 4 KB pages (the paper's construction)
// over rectangles whose ids are their positions.
struct Relation {
  std::unique_ptr<rsj::PagedFile> file;
  std::unique_ptr<rsj::RTree> tree;
  std::vector<rsj::Rect> rects;
  rsj::JoinRelation join_relation() const { return {tree.get(), &rects}; }
};
Relation BuildRelation(std::vector<rsj::Rect> rects, SpanRecorder* spans);

// --- timing ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);
double PeakRssMb();

// --- result hashing ----------------------------------------------------------

// Order-independent hash of a multiset of pairs or tuples: two results
// match when their counts and both mixed sums agree.
struct MultisetHash {
  uint64_t count = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;
  void AddPair(uint32_t r, uint32_t s) {
    AddKey((static_cast<uint64_t>(r) << 32) | s);
  }
  void AddTuple(const uint32_t* ids, size_t n) {
    uint64_t h = 0x51ed270b27f2a3c5ULL ^ n;
    for (size_t i = 0; i < n; ++i) h = SplitMix64(h ^ ids[i]);
    AddKey(h);
  }
  void AddKey(uint64_t key) {
    ++count;
    sum_a += SplitMix64(key);
    sum_b += SplitMix64(key ^ 0x9e3779b97f4a7c15ULL) * 0xff51afd7ed558ccdULL;
  }
  friend bool operator==(const MultisetHash&, const MultisetHash&) = default;
};

MultisetHash HashPairs(const rsj::ResultChunkList& chunks,
                       const rsj::SpilledResult* spilled);

// --- report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // False once any oracle check disagreed.
  bool correct = true;
  std::vector<Metric> metrics;
  // Free-form lines printed before the result line (environment, cache
  // sizing, hashes, mismatch details).
  std::vector<std::string> info;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  void Fail(const std::string& what) {
    correct = false;
    // The first mismatches are enough to diagnose a run.
    if (++mismatches <= 20) info.push_back("MISMATCH " + what);
  }
  uint64_t mismatches = 0;
};

// Adds throughput and latency percentiles of one timed phase. The phase
// is cut into blocks of equal work (a cycle, an epoch, a deck); throughput
// is the median of the blocks' rates, so a burst of machine noise moves it
// less than a total would.
void AddLatencyMetrics(const std::vector<double>& latencies_ms,
                       const std::vector<double>& block_ops_per_s,
                       Report* report);

// As AddLatencyMetrics, but the latency percentiles are the medians over
// the blocks of each block's own percentile. For a concurrent workload,
// whose queueing makes a spell of machine noise stretch every latency it
// touches: a spell that covers fewer than half the blocks moves neither.
void AddBlockLatencyMetrics(
    const std::vector<std::vector<double>>& block_latencies_ms,
    const std::vector<double>& block_ops_per_s, Report* report);

// Set-up repetitions of an untraced run: at least kSetupRepeats, and more
// while they have taken less than kSetupMinSeconds in all (a set-up of a
// few tens of milliseconds is too short for three samples to be steady),
// up to kSetupMaxRepeats.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kSetupMaxRepeats = 32;
inline constexpr double kSetupMinSeconds = 1.0;

// Runs `setup` as often as the constants above say, reports setup_s as the
// median wall time, and returns the last state built.
template <typename State, typename Fn>
std::unique_ptr<State> RepeatedSetup(Report* report, Fn&& setup) {
  std::vector<double> walls;
  double total_s = 0.0;
  std::unique_ptr<State> state;
  while (static_cast<int>(walls.size()) < kSetupRepeats ||
         (total_s < kSetupMinSeconds &&
          static_cast<int>(walls.size()) < kSetupMaxRepeats)) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = setup();
    walls.push_back(SecondsSince(t0));
    total_s += walls.back();
  }
  report->Add("setup_s", Median(walls), "s", walls.size());
  return state;
}

// The shortest of `reps` wall times returned by `fn`.
template <typename Fn>
double BestWall(int reps, Fn&& fn) {
  double best = fn();
  for (int i = 1; i < reps; ++i) best = std::min(best, fn());
  return best;
}

// --- workloads -----------------------------------------------------------------

// What the traced run gathers across the three workloads: the spans, and
// named sums of library counters the layer metrics are folded from.
struct TraceContext {
  SpanRecorder spans;
  std::map<std::string, double> sums;
  void Add(const std::string& key, double value) { sums[key] += value; }
  double Get(const std::string& key) const {
    auto it = sums.find(key);
    return it == sums.end() ? 0.0 : it->second;
  }
};

struct ReplayWall {
  double wall_s = 0.0;  // summed operation latencies
  uint64_t ops = 0;
};

// Replays one workload's operation mix: once to warm up (first-touch
// allocations, caches), then untraced and traced replays in pairs, the
// order alternating between pairs, until `budget_s` has passed.
template <typename Fn>
void AlternateReplays(const std::string& workload, double budget_s,
                      TraceContext* ctx, Fn&& replay) {
  replay(nullptr);
  const Clock::time_point start = Clock::now();
  int pair = 0;
  do {
    for (int i = 0; i < 2; ++i) {
      const bool traced = (i == 0) == (pair % 2 == 1);
      const ReplayWall r = replay(traced ? &ctx->spans : nullptr);
      ctx->Add(workload + (traced ? ".traced_s" : ".untraced_s"), r.wall_s);
      if (traced) ctx->Add(workload + ".ops", r.ops);
    }
    ++pair;
  } while (SecondsSince(start) < budget_s);
}

// Untraced runs fill the end-to-end metrics of one workload. Traced runs
// set the workload up once and replay its operation mix through
// AlternateReplays.
Report RunIngest(const Config& config);
Report RunServe(const Config& config);
Report RunOverlay(const Config& config);
void TraceIngest(const Config& config, double budget_s, TraceContext* ctx,
                 Report* report);
void TraceServe(const Config& config, double budget_s, TraceContext* ctx,
                Report* report);
void TraceOverlay(const Config& config, double budget_s, TraceContext* ctx,
                  Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
