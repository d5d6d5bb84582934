#include "obs/metrics.h"

#include <bit>

#include "engine/memory_governor.h"
#include "engine/task_pool.h"
#include "io/io_scheduler.h"

namespace rsj {

const std::vector<StatisticsCounterDesc>& StatisticsCounters() {
#define RSJ_COUNTER_DESC(type, name, merge, label)                     \
  StatisticsCounterDesc{                                               \
      #name, MetricMergeKind::merge,                                   \
      [](const Statistics& s) {                                        \
        return Statistics::CounterValue(s.name);                       \
      },                                                               \
      [](Statistics& s, uint64_t v) { Statistics::SetCounter(s.name, v); }},
  static const std::vector<StatisticsCounterDesc> kCounters = {
      RSJ_STATISTICS_COUNTERS(RSJ_COUNTER_DESC)};
#undef RSJ_COUNTER_DESC
  return kCounters;
}

void LatencyHistogram::Observe(uint64_t value) {
  buckets_[std::bit_width(value)] += 1;
  count_ += 1;
  sum_ += value;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

uint64_t LatencyHistogram::ApproxQuantile(double quantile) const {
  if (count_ == 0) return 0;
  uint64_t target =
      static_cast<uint64_t>(quantile * static_cast<double>(count_)) + 1;
  if (target > count_) target = count_;  // quantile 1.0 = the last sample
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return i == 0 ? 0 : (uint64_t{1} << i) - 1;
    }
  }
  return (uint64_t{1} << (kBuckets - 1));
}

void MetricsRegistry::AddCounter(const std::string& name, uint64_t value,
                                 MetricMergeKind merge) {
  auto [it, inserted] = counters_.try_emplace(name);
  CounterCell& cell = it->second;
  if (inserted) cell.merge = merge;
  if (cell.merge == MetricMergeKind::kSum) {
    cell.value += value;
  } else if (value > cell.value) {
    cell.value = value;
  }
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::ObserveHistogram(const std::string& name,
                                       uint64_t value) {
  histograms_[name].Observe(value);
}

void MetricsRegistry::MergeHistogram(const std::string& name,
                                     const LatencyHistogram& h) {
  histograms_[name].MergeFrom(h);
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, cell] : other.counters_) {
    AddCounter(name, cell.value, cell.merge);
  }
  for (const auto& [name, value] : other.gauges_) {
    gauges_[name] = value;
  }
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].MergeFrom(histogram);
  }
}

bool MetricsRegistry::HasCounter(const std::string& name) const {
  return counters_.find(name) != counters_.end();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const LatencyHistogram* MetricsRegistry::Histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  for (const auto& [name, cell] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(cell.value) + "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      if (histogram.bucket(i) == 0) continue;
      cumulative += histogram.bucket(i);
      const uint64_t le = i == 0 ? 0 : (uint64_t{1} << i) - 1;
      out += name + "_bucket{le=\"" + std::to_string(le) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(histogram.count()) +
           "\n";
    out += name + "_sum " + std::to_string(histogram.sum()) + "\n";
    out += name + "_count " + std::to_string(histogram.count()) + "\n";
  }
  return out;
}

void SnapshotStatistics(const Statistics& stats, MetricsRegistry* out) {
  for (const StatisticsCounterDesc& desc : StatisticsCounters()) {
    out->AddCounter(std::string("rsj_") + desc.name, desc.get(stats),
                    desc.merge);
  }
}

void SnapshotGovernor(const MemoryGovernor& governor, MetricsRegistry* out) {
  out->SetGauge("rsj_governor_budget_bytes",
                static_cast<double>(governor.budget_bytes()));
  out->SetGauge("rsj_governor_live_bytes",
                static_cast<double>(governor.leased_bytes()));
  out->AddCounter("rsj_governor_peak_bytes", governor.peak_bytes(),
                  MetricMergeKind::kMax);
  for (unsigned c = 0; c < kMemoryCategoryCount; ++c) {
    const auto category = static_cast<MemoryCategory>(c);
    const std::string base =
        std::string("rsj_governor_") + MemoryCategoryName(category);
    out->SetGauge(base + "_live_bytes",
                  static_cast<double>(governor.category_live(category)));
    out->AddCounter(base + "_peak_bytes", governor.category_peak(category),
                    MetricMergeKind::kMax);
  }
}

void SnapshotTaskPool(const SessionTaskPool& pool, MetricsRegistry* out) {
  out->AddCounter("rsj_task_pool_tasks_executed", pool.tasks_executed());
  out->AddCounter("rsj_task_pool_assists", pool.pool_assists());
  out->AddCounter("rsj_task_pool_runs_completed", pool.runs_completed());
  out->AddCounter("rsj_task_pool_peak_concurrent_runs",
                  pool.peak_concurrent_runs(), MetricMergeKind::kMax);
}

void SnapshotIo(const IoScheduler& io, MetricsRegistry* out) {
  out->AddCounter("rsj_io_batches", io.io_batches());
  out->AddCounter("rsj_io_async_reads", io.async_reads());
  out->AddCounter("rsj_io_timed_writes", io.disk_writes());
  const SimulatedDiskArray& disks = io.disks();
  const uint64_t now = io.NowMicros();
  const unsigned count = disks.disk_count();
  uint64_t busy_total = 0;
  for (unsigned d = 0; d < count; ++d) {
    const uint64_t busy = disks.busy_micros(d);
    busy_total += busy;
    out->SetGauge("rsj_io_disk" + std::to_string(d) + "_busy_micros",
                  static_cast<double>(busy));
  }
  out->AddCounter("rsj_io_disk_busy_micros_total", busy_total);
  out->AddCounter("rsj_io_backfills", disks.backfills());
  // Fraction of the merged modeled timeline the arms spent servicing
  // requests (1.0 = every disk busy the whole run; idle gaps and
  // post-floor slack lower it).
  const double denom = static_cast<double>(now) * count;
  out->SetGauge("rsj_io_disk_utilization",
                denom > 0 ? static_cast<double>(busy_total) / denom : 0.0);
}

}  // namespace rsj
