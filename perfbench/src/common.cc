#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Seeds DeriveSeeds(uint64_t bench_seed, unsigned instance) {
  Seeds seeds;
  if (bench_seed == kDefaultSeed && instance == 0) return seeds;
  // Each generator of each instance gets its own stream.
  const uint64_t base = SplitMix64(SplitMix64(bench_seed) + instance);
  const auto derive = [base](uint64_t stream) {
    return SplitMix64(base ^ (stream * 0x632be59bd9b4e019ULL));
  };
  seeds.city = derive(1);
  seeds.streets = derive(2);
  seeds.streets_second = derive(3);
  seeds.rivers = derive(4);
  seeds.regions_fine = derive(5);
  seeds.regions_coarse = derive(6);
  seeds.mix = derive(7);
  return seeds;
}

namespace {

size_t Scaled(size_t paper_count, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(paper_count * scale));
}

rsj::Dataset Streets(size_t count, uint64_t seed, uint64_t city_seed) {
  rsj::StreetsConfig config;
  config.object_count = count;
  config.seed = seed;
  config.city_seed = city_seed;
  return rsj::GenerateStreets(config);
}

}  // namespace

Maps GenerateMaps(const Seeds& seeds, double scale, MapSelection which) {
  // Table 8 cardinalities; the configs match MakeWorkload's.
  Maps maps;
  if (which.streets) {
    maps.streets = Streets(Scaled(131461, scale), seeds.streets, seeds.city);
  }
  if (which.streets_second) {
    maps.streets_second =
        Streets(Scaled(131192, scale), seeds.streets_second, seeds.city);
  }
  if (which.rivers) {
    rsj::RiversConfig config;
    config.object_count = Scaled(128971, scale);
    config.seed = seeds.rivers;
    config.city_seed = seeds.city;
    maps.rivers = rsj::GenerateRivers(config);
  }
  if (which.regions) {
    rsj::RegionsConfig fine;
    fine.object_count = Scaled(67527, scale);
    fine.seed = seeds.regions_fine;
    maps.regions_fine = rsj::GenerateRegions(fine);
    rsj::RegionsConfig coarse;
    coarse.object_count = Scaled(33696, scale);
    coarse.seed = seeds.regions_coarse;
    maps.regions_coarse = rsj::GenerateRegions(coarse);
  }
  return maps;
}

Relation BuildRelation(std::vector<rsj::Rect> rects, SpanRecorder* spans) {
  ScopedSpan span(spans, "rtree.build", rects.size());
  Relation rel;
  rel.rects = std::move(rects);
  rsj::RTreeOptions options;
  options.page_size = rsj::kPageSize4K;
  rel.file = std::make_unique<rsj::PagedFile>(options.page_size);
  rel.tree = std::make_unique<rsj::RTree>(
      rsj::BuildRTree(rel.file.get(), rel.rects, options));
  return rel;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t at = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(at, v.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

MultisetHash HashPairs(const rsj::ResultChunkList& chunks,
                       const rsj::SpilledResult* spilled) {
  MultisetHash h;
  chunks.ForEachPair([&h](const rsj::ResultPair& p) { h.AddPair(p.r, p.s); });
  if (spilled != nullptr && !spilled->empty()) {
    rsj::Statistics scratch;
    rsj::SpilledResultReader reader(spilled, &scratch);
    std::span<const rsj::ResultPair> chunk;
    while (reader.Next(&chunk)) {
      for (const rsj::ResultPair& p : chunk) h.AddPair(p.r, p.s);
    }
  }
  return h;
}

namespace {

// p99 has ten samples beyond it only from 1,000 operations on.
void AddP99Line(const std::vector<double>& latencies_ms, Report* report) {
  const uint64_t n = latencies_ms.size();
  char line[160];
  if (n >= 1000) {
    std::snprintf(line, sizeof(line), "latency_p99_ms %.6f ms (n=%llu)",
                  Percentile(latencies_ms, 0.99),
                  static_cast<unsigned long long>(n));
  } else {
    std::snprintf(line, sizeof(line),
                  "latency_p99_ms not reported: n=%llu < 1000",
                  static_cast<unsigned long long>(n));
  }
  report->info.push_back(line);
}

}  // namespace

void AddLatencyMetrics(const std::vector<double>& latencies_ms,
                       const std::vector<double>& block_ops_per_s,
                       Report* report) {
  const uint64_t n = latencies_ms.size();
  report->Add("throughput_ops_s", Median(block_ops_per_s), "1/s", n);
  report->Add("latency_p50_ms", Percentile(latencies_ms, 0.50), "ms", n);
  report->Add("latency_p90_ms", Percentile(latencies_ms, 0.90), "ms", n);
  AddP99Line(latencies_ms, report);
}

void AddBlockLatencyMetrics(
    const std::vector<std::vector<double>>& block_latencies_ms,
    const std::vector<double>& block_ops_per_s, Report* report) {
  std::vector<double> all, p50, p90;
  for (const std::vector<double>& block : block_latencies_ms) {
    all.insert(all.end(), block.begin(), block.end());
    p50.push_back(Percentile(block, 0.50));
    p90.push_back(Percentile(block, 0.90));
  }
  const uint64_t n = all.size();
  report->Add("throughput_ops_s", Median(block_ops_per_s), "1/s", n);
  report->Add("latency_p50_ms", Median(p50), "ms", n);
  report->Add("latency_p90_ms", Median(p90), "ms", n);
  AddP99Line(all, report);
}

}  // namespace perfbench
