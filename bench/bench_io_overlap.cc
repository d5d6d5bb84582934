// Async I/O overlap — prefetch on/off over 1/2/4/8 simulated disks.
//
// The paper's SJ3–SJ5 compute a good *read schedule* (§4.3) and its
// experiments stripe the R-trees over a disk array; with the synchronous
// substrate the schedule quality only shows up as counted reads. This
// bench runs SJ4 on workload A over the simulated disk array
// (io/disk_model.h) and A/Bs the schedule-driven prefetcher
// (io/prefetcher.h): with prefetch OFF every miss is one outstanding
// request that serializes the array; with prefetch ON the engine streams
// each schedule ahead and the per-disk queues work in parallel with each
// other and with the modeled CPU.
//
// Reported per configuration: result pairs (identical by construction),
// physical reads, prefetch issued/hits/wasted, I/O batches, modeled
// elapsed ms and the on/off speedup. Each row is also emitted as a JSON
// line (prefix "JSON "). The process exits non-zero when a disk count
// >= 2 does not show a modeled win or any pair count diverges, so CI
// smoke runs enforce the acceptance criteria.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace rsj {
namespace bench {
namespace {

// One worker over a private pool: the paper's sequential SJ4 run, its
// misses serviced in modeled time by the disk array.
ParallelJoinResult Measure(const TreePair& pair, const JoinOptions& jopt,
                           unsigned disks, bool prefetch) {
  IoScheduler::Options sopt;
  sopt.disks.disk_count = disks;
  // Modeled CPU per consumed page: roughly the paper's comparison cost of
  // one node's pair finding — the work a prefetcher overlaps with I/O.
  sopt.cpu_micros_per_read = 1000;
  IoScheduler io(sopt);
  ParallelExecutorOptions exec;
  exec.num_threads = 1;
  exec.shared_pool = false;
  exec.io_scheduler = &io;
  exec.prefetch = prefetch;
  exec.prefetch_ahead = 16;
  return RunParallelSpatialJoin(*pair.r, *pair.s, jopt, exec);
}

void EmitJson(unsigned disks, bool prefetch, const ParallelJoinResult& m,
              double speedup) {
  std::printf(
      "JSON {\"bench\":\"io_overlap\",\"disks\":%u,\"prefetch\":%s,"
      "\"pairs\":%llu,\"modeled_elapsed_micros\":%llu,"
      "\"modeled_speedup\":%.3f,%s}\n",
      disks, prefetch ? "true" : "false",
      static_cast<unsigned long long>(m.pair_count),
      static_cast<unsigned long long>(m.modeled_elapsed_micros), speedup,
      IoCountersJson(m.total_stats).c_str());
}

int Main(int argc, char** argv) {
  const double scale = ParseScale(argc, argv);
  PrintBanner(
      "Async I/O overlap (SJ4, 4 KByte pages, 128 KByte buffer; "
      "schedule-driven prefetch over a simulated disk array)",
      "Section 4.3 read schedules + Section 5 disk-array setting", scale);
  const Workload w = MakeWorkload(TestCase::kA, scale);
  const TreePair pair = BuildTreePair(w.r, w.s, kPageSize4K);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 128 * 1024;

  PrintRow("disks", {"pairs", "reads", "pf issued", "pf hits", "pf wasted",
                     "elapsed (ms)", "speedup"});
  bool ok = true;
  uint64_t baseline_pairs = 0;
  for (const unsigned disks : {1u, 2u, 4u, 8u}) {
    const ParallelJoinResult off =
        Measure(pair, jopt, disks, /*prefetch=*/false);
    const ParallelJoinResult on =
        Measure(pair, jopt, disks, /*prefetch=*/true);
    if (disks == 1) baseline_pairs = off.pair_count;

    const double speedup = static_cast<double>(off.modeled_elapsed_micros) /
                           static_cast<double>(std::max<uint64_t>(
                               1, on.modeled_elapsed_micros));
    char label[32];
    for (const ParallelJoinResult* m : {&off, &on}) {
      const bool prefetch = m == &on;
      std::snprintf(label, sizeof(label), "%u (%s)", disks,
                    prefetch ? "prefetch" : "sync");
      PrintRow(label,
               {Num(m->pair_count), Num(m->total_stats.disk_reads),
                Num(m->total_stats.prefetch_issued),
                Num(m->total_stats.prefetch_hits),
                Num(m->total_stats.prefetch_wasted),
                Dbl(static_cast<double>(m->modeled_elapsed_micros) / 1000.0,
                    1),
                prefetch ? Dbl(speedup) : std::string("1.00")});
      EmitJson(disks, prefetch, *m, prefetch ? speedup : 1.0);
    }

    if (on.pair_count != off.pair_count || on.pair_count != baseline_pairs) {
      std::printf("FAIL: pair counts diverge at %u disks\n", disks);
      ok = false;
    }
    if (disks >= 2 &&
        on.modeled_elapsed_micros >= off.modeled_elapsed_micros) {
      std::printf(
          "FAIL: prefetch shows no modeled win at %u disks "
          "(%llu >= %llu us)\n",
          disks, static_cast<unsigned long long>(on.modeled_elapsed_micros),
          static_cast<unsigned long long>(off.modeled_elapsed_micros));
      ok = false;
    }
  }

  std::printf(
      "\nIdentical result pairs in every configuration. Synchronous misses\n"
      "keep one request outstanding, so the array is idle while the join\n"
      "computes; the schedule-driven prefetcher issues the §4.3 read order\n"
      "ahead, which keeps every disk's queue busy — the win grows with the\n"
      "disk count, independent of host core count.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
