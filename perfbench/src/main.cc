// The repository benchmark.
//
//   perfbench --workload {ingest,serve,overlay} --seed N --seconds S
//             --trace {0,1} [--scale F] [--out-dir DIR] [--plant-fault]
//
// --trace 0 runs one workload and prints its end-to-end metrics. --trace 1
// sets up all three workloads, replays each one's operation mix untraced
// and traced, and prints the per-layer metrics folded from the spans.
// Every run checks its results against the benchmark's oracles. The last
// line of standard output is one JSON object: correct, attempted, failed
// and the metrics. The exit code is 0 only when every check passed.

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "geom/simd_kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--plant-fault") {
      config->plant_fault = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      config->workload = argv[++i];
    } else if (arg == "--seed") {
      config->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      config->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--scale") {
      config->scale = std::atof(argv[++i]);
    } else if (arg == "--out-dir") {
      config->out_dir = argv[++i];
    } else {
      return false;
    }
  }
  const bool known = config->workload == "ingest" ||
                     config->workload == "serve" ||
                     config->workload == "overlay";
  return known && config->seconds > 0.0 &&
         config->scale > 0.0 && config->scale <= 1.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Folds the spans and counters of a traced run into the layer metrics.
void AddLayerMetrics(const TraceContext& ctx, Report* report) {
  const std::map<std::string, SpanTotals> spans = FoldSpans(ctx.spans.spans());
  const auto span = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const auto sum = [&ctx](const char* key) { return ctx.Get(key); };
  const auto n = [](double v) { return static_cast<uint64_t>(v); };

  const SpanTotals gen = span("datagen.generate");
  report->Add("datagen.generate_s", Ratio(gen.total_ms * 1e-3, gen.calls),
              "s", gen.calls);

  const SpanTotals ins = span("rtree.insert"), build = span("rtree.build");
  report->Add("rtree.insert_us_per_object",
              Ratio((ins.total_ms + build.total_ms) * 1e3,
                    ins.items + build.items),
              "us", ins.items + build.items);
  const SpanTotals del = span("rtree.delete");
  report->Add("rtree.delete_us_per_object",
              Ratio(del.total_ms * 1e3, del.items), "us", del.items);
  const SpanTotals wq = span("rtree.window_query");
  report->Add("rtree.window_query_us", Ratio(wq.total_ms * 1e3, wq.calls),
              "us", wq.calls);

  const double overlay_ops = sum("overlay.ops");
  const double reads = sum("overlay.disk_reads"),
               hits = sum("overlay.buffer_hits");
  report->Add("storage.disk_reads_per_op", Ratio(reads, overlay_ops), "count",
              n(overlay_ops));
  report->Add("storage.buffer_hit_ratio", Ratio(hits, hits + reads), "ratio",
              n(hits + reads));
  const double nc_hits = sum("serve.node_cache_hits");
  const double nc_fetches = nc_hits + sum("serve.node_decodes");
  report->Add("storage.node_cache_hit_ratio", Ratio(nc_hits, nc_fetches),
              "ratio", n(nc_fetches));

  const SpanTotals filter = span("join.filter"),
                   par = span("exec.parallel_join");
  report->Add("join.filter_ms",
              Ratio(filter.total_ms + par.total_ms, filter.calls + par.calls),
              "ms", filter.calls + par.calls);
  const double filter_calls = sum("filter.calls");
  report->Add("join.comparisons_per_op",
              Ratio(sum("filter.comparisons"), filter_calls), "count",
              n(filter_calls));
  report->Add("join.node_pairs_per_op",
              Ratio(sum("filter.node_pairs"), filter_calls), "count",
              n(filter_calls));
  const SpanTotals refine = span("join.refine");
  report->Add("join.refine_ms", Ratio(refine.total_ms, refine.calls), "ms",
              refine.calls);
  const double exact_tests = sum("overlay.exact_tests");
  report->Add("join.refine_hit_ratio",
              Ratio(sum("overlay.exact_hits"), exact_tests), "ratio",
              n(exact_tests));
  report->Add("join.estimate_qerror_results",
              Ratio(sum("qerror.sum"), sum("qerror.n")), "ratio",
              n(sum("qerror.n")));

  const SpanTotals rb = span("geom.raster_build"),
                   rc = span("geom.raster_classify"),
                   ex = span("geom.exact_test");
  report->Add("geom.raster_build_ms", Ratio(rb.total_ms, overlay_ops), "ms",
              n(overlay_ops));
  report->Add("geom.raster_classify_ms", Ratio(rc.total_ms, overlay_ops),
              "ms", n(overlay_ops));
  report->Add("geom.exact_test_ms", Ratio(ex.total_ms, overlay_ops), "ms",
              n(overlay_ops));
  const double raster_candidates = sum("overlay.raster_candidates");
  report->Add("geom.raster_avoided_ratio",
              Ratio(sum("overlay.raster_avoided"), raster_candidates),
              "ratio", n(raster_candidates));

  report->Add("exec.parallel_join_ms", Ratio(par.total_ms, par.calls), "ms",
              par.calls);
  report->Add("exec.parallel_speedup",
              Ratio(sum("speedup.sum"), sum("speedup.n")), "ratio",
              n(sum("speedup.n")));
  const SpanTotals chain = span("exec.chain");
  report->Add("exec.chain_ms", Ratio(chain.total_ms, chain.calls), "ms",
              chain.calls);
  report->Add("exec.spill_bytes_per_op",
              Ratio(sum("any.spill_bytes"), sum("any.ops")), "bytes",
              n(sum("any.ops")));

  const SpanTotals plan = span("engine.plan");
  report->Add("engine.plan_us", Ratio(plan.total_ms * 1e3, plan.calls), "us",
              plan.calls);
  const double sessions = sum("engine.sessions");
  report->Add("engine.service_ms", Ratio(sum("engine.service_ms"), sessions),
              "ms", n(sessions));
  report->Add("engine.queue_wait_ms",
              Ratio(sum("engine.queue_wait_ms"), sessions), "ms", n(sessions));
  report->Add("engine.planner_regret",
              Ratio(sum("regret.sum"), sum("regret.n")), "ratio",
              n(sum("regret.n")));
  report->Add("engine.governor_peak_mb", sum("engine.governor_peak_mb"), "MB",
              1);

  report->Add("io.modeled_ms_per_op", Ratio(sum("engine.modeled_ms"), sessions),
              "ms", n(sessions));
  const double issued = sum("prefetch.issued");
  report->Add("io.prefetch_hit_ratio", Ratio(sum("prefetch.hits"), issued),
              "ratio", n(issued));

  // Tracing overhead, and the share of each operation's traced time that
  // no layer span claims (the benchmark's own glue between calls).
  double untraced = 0.0, traced = 0.0, op_total = 0.0, op_self = 0.0;
  uint64_t ops = 0;
  for (const char* w : {"ingest", "serve", "overlay"}) {
    const double u = sum((std::string(w) + ".untraced_s").c_str());
    const double t = sum((std::string(w) + ".traced_s").c_str());
    const double w_ops = sum((std::string(w) + ".ops").c_str());
    const SpanTotals op = span((std::string("op.") + w).c_str());
    untraced += u;
    traced += t;
    op_total += op.total_ms;
    op_self += op.self_ms;
    ops += n(w_ops);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "trace %s: untraced %.4f ms/op, traced %.4f ms/op, layer "
                  "self time %.4f ms/op over %.0f ops",
                  w, Ratio(u * 1e3, w_ops), Ratio(t * 1e3, w_ops),
                  Ratio(op.total_ms - op.self_ms, w_ops), w_ops);
    report->info.push_back(line);
  }
  report->Add("trace.overhead_frac", Ratio(traced, untraced) - 1.0, "ratio",
              ops);
  report->Add("trace.unattributed_frac", Ratio(op_self, op_total), "ratio",
              ops);

  for (const auto& [name, t] : spans) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "span %-22s calls %8llu total %10.3f ms self %10.3f ms",
                  name.c_str(), static_cast<unsigned long long>(t.calls),
                  t.total_ms, t.self_ms);
    report->info.push_back(line);
  }
}

// The malloc arenas the process may use: one per core. glibc otherwise
// opens up to eight per core as threads come and go, and serve starts a
// thread for every session, so which arenas hold the pages freed by earlier
// epochs, and with it peak_rss_mb, would change from run to run. Servers
// cap arenas the same way (MALLOC_ARENA_MAX).
unsigned MallocArenas() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void PrintReport(const Config& config, const Report& report) {
  std::printf("env nproc=%u malloc_arenas=%u build=%s geom_kernels=%s "
              "workload=%s seed=%llu seconds=%g trace=%d scale=%g\n",
              std::thread::hardware_concurrency(), MallocArenas(),
              PERFBENCH_BUILD_TYPE,
              rsj::GeomKernelModeName(rsj::ActiveGeomKernelMode()),
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.scale);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("rusage minor_faults=%ld major_faults=%ld "
              "involuntary_switches=%ld\n",
              usage.ru_minflt, usage.ru_majflt, usage.ru_nivcsw);
  for (const std::string& line : report.info) std::printf("%s\n", line.c_str());
  for (const Metric& m : report.metrics) {
    std::printf("metric %s = %.9g %s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": ";
  json += report.correct && report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
#ifdef __GLIBC__
  mallopt(M_ARENA_MAX, static_cast<int>(MallocArenas()));
#endif
  Config config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {ingest,serve,overlay} --seed N "
                 "--seconds S --trace {0,1} [--scale F] [--out-dir DIR] "
                 "[--plant-fault]\n");
    return 2;
  }
  Report report;
  if (!config.trace) {
    if (config.workload == "ingest") report = RunIngest(config);
    if (config.workload == "serve") report = RunServe(config);
    if (config.workload == "overlay") report = RunOverlay(config);
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  } else {
    TraceContext ctx;
    const double budget = config.seconds / 3.0;
    TraceIngest(config, budget, &ctx, &report);
    TraceServe(config, budget, &ctx, &report);
    TraceOverlay(config, budget, &ctx, &report);
    AddLayerMetrics(ctx, &report);
    if (!config.out_dir.empty()) {
      const std::string path = config.out_dir + "/spans.jsonl";
      if (!ctx.spans.WriteJsonLines(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    }
  }
  PrintReport(config, report);
  return report.correct && report.failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
