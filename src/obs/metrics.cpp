#include "obs/metrics.h"

#include <algorithm>
#include <ostream>

#include "common/error.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "obs/run_meta.h"

namespace geomap::obs {

Histogram::Histogram(std::size_t sample_cap)
    : sample_cap_(sample_cap),
      // Fixed seed: the reservoir's choices are a pure function of the
      // arrival sequence, not of the host or the wall clock.
      rng_(0x68697374u /* "hist" */) {}

void Histogram::record(double x) {
  std::lock_guard<std::mutex> lock(mutex_);
  record_locked(x);
}

void Histogram::record_many(const std::vector<double>& xs) {
  if (xs.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const double x : xs) record_locked(x);
}

void Histogram::record_locked(double x) {
  count_ += 1;
  if (count_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  if (sample_cap_ == 0 || samples_.size() < sample_cap_) {
    samples_.push_back(x);
    return;
  }
  // Algorithm R: the new sample replaces a uniformly random slot with
  // probability cap / count, so every sample ever recorded is retained
  // with equal probability.
  const std::uint64_t j = rng_.uniform_index(count_);
  if (j < sample_cap_) samples_[static_cast<std::size_t>(j)] = x;
}

Histogram::Summary Histogram::summary() const {
  std::vector<double> copy;
  std::uint64_t count = 0;
  double min = 0, max = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = samples_;
    count = count_;
    min = min_;
    max = max_;
  }
  Summary s;
  s.count = count;
  if (copy.empty()) return s;
  s.sampled = count > copy.size();
  // Concurrent record() calls land in host arrival order; sort before
  // folding so sum/mean are byte-identical across reruns of the same
  // seeded workload (floating-point addition is not associative).
  std::sort(copy.begin(), copy.end());
  RunningStats stats;
  for (const double x : copy) stats.add(x);
  // Exact when every sample is retained; past the cap, min/max come from
  // the running accumulators (still exact), sum is scaled up from the
  // reservoir mean, and mean/percentiles are reservoir estimates.
  s.min = min;
  s.max = max;
  s.mean = stats.mean();
  s.sum = s.sampled ? stats.mean() * static_cast<double>(count) : stats.sum();
  s.p50 = percentile(copy, 50.0);
  s.p90 = percentile(copy, 90.0);
  s.p99 = percentile(copy, 99.0);
  return s;
}

std::vector<double> Histogram::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

namespace {

template <typename Map, typename Factory>
auto& find_or_create(Map& map, const std::string& name, Factory&& make,
                     const char* kind, bool taken_elsewhere) {
  auto it = map.find(name);
  if (it == map.end()) {
    GEOMAP_CHECK_MSG(!taken_elsewhere, "metric '" << name
                                                  << "' already registered as "
                                                     "a different kind than "
                                                  << kind);
    it = map.emplace(name, make()).first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(
      counters_, name, [] { return std::make_unique<Counter>(); }, "counter",
      gauges_.count(name) > 0 || histograms_.count(name) > 0);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(
      gauges_, name, [] { return std::make_unique<Gauge>(); }, "gauge",
      counters_.count(name) > 0 || histograms_.count(name) > 0);
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(
      histograms_, name,
      [this] { return std::make_unique<Histogram>(histogram_sample_cap_); },
      "histogram", counters_.count(name) > 0 || gauges_.count(name) > 0);
}

void MetricsRegistry::set_histogram_sample_cap(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_sample_cap_ = cap;
}

void MetricsRegistry::write_json(std::ostream& os, const RunMeta* meta) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w(os);
  w.begin_object();
  if (meta != nullptr) meta->write_member(w);
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Summary s = h->summary();
    w.key(name).begin_object();
    w.field("count", s.count);
    w.field("sum", s.sum);
    w.field("min", s.min);
    w.field("max", s.max);
    w.field("mean", s.mean);
    w.field("p50", s.p50);
    w.field("p90", s.p90);
    w.field("p99", s.p99);
    // Only when the reservoir actually dropped samples, so uncapped
    // registries keep their historical byte-exact exports.
    if (s.sampled) w.field("sampled", true);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  os << "\n";
}

}  // namespace geomap::obs
