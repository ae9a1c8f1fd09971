#pragma once
// Thread-safe metrics registry: named counters, gauges, and histograms
// for the pipeline's hot paths (mapper order search, minimpi transfers,
// replay engines, fault accounting).
//
// Handles returned by the registry are stable for its lifetime, so hot
// paths resolve a metric once (one map lookup under the registry mutex)
// and then update it lock-free: counters and gauges are single atomics,
// histograms take a short mutex per sample. With no registry in reach
// (the Collector is opt-in) instrumented code never touches any of this.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"

namespace geomap::obs {

struct RunMeta;

/// Monotonic event count. Lock-free, relaxed ordering: totals are exact
/// once the writing threads are joined (asserted by tests).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Monotone set: keeps the larger of the stored and given value. Lets
  /// concurrent progress reporters race without the exported value ever
  /// moving backwards (the final value is then deterministic).
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Sample distribution; exports count/sum/extrema plus interpolated
/// percentiles (common/stats) at summary time. Stores raw samples up to
/// `sample_cap` — exact percentiles, bounded use-cases (per-order costs,
/// per-rank times, backoff delays), no bucket-boundary tuning. Past the
/// cap it degrades to a seeded reservoir (Algorithm R over a fixed
/// xoshiro stream): memory stays bounded at `sample_cap` doubles,
/// count/min/max remain exact (tracked by running accumulators),
/// sum/mean/percentiles become reservoir estimates and the summary is
/// flagged `sampled`. The kept set is deterministic for a given arrival
/// order; concurrent recorders can permute arrivals, so byte-stable
/// exports need either single-threaded recording or a cap above the
/// sample count (the uncapped default).
class Histogram {
 public:
  /// `sample_cap` = 0 keeps every sample (the historical behavior).
  explicit Histogram(std::size_t sample_cap = 0);

  void record(double x);

  /// Record `xs` in order under one lock — state-identical to calling
  /// record() per element (the reservoir sees the same arrival sequence),
  /// at a fraction of the locking cost. Hot single-threaded loops buffer
  /// locally and flush once.
  void record_many(const std::vector<double>& xs);

  struct Summary {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    /// True when the reservoir dropped samples: sum/mean/percentiles are
    /// estimates (count/min/max are still exact).
    bool sampled = false;
  };
  Summary summary() const;

  std::vector<double> samples() const;  // retained set (copy, for tests)

 private:
  void record_locked(double x);  // caller holds mutex_

  const std::size_t sample_cap_;
  mutable std::mutex mutex_;
  std::vector<double> samples_;
  std::uint64_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
  Rng rng_;
};

class MetricsRegistry {
 public:
  /// Find-or-create by name. The returned reference stays valid for the
  /// registry's lifetime. A name is bound to one metric kind; asking for
  /// the same name as a different kind throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Reservoir cap for histograms created after this call (existing
  /// histograms keep theirs; 0 = unbounded, the default). Bounds each
  /// histogram's memory at `cap` doubles; summaries past the cap carry
  /// "sampled": true.
  void set_histogram_sample_cap(std::size_t cap);

  /// One JSON object: {"meta": {...}, "counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, mean, p50, p90, p99}}}
  /// (histograms past their reservoir cap add "sampled": true).
  /// Keys sorted (std::map order) for diffable output; `meta` is omitted
  /// when null. Deterministic for deterministic runs: histogram folds
  /// sort their samples first, so parallel recording order cannot perturb
  /// the floating-point sums.
  void write_json(std::ostream& os, const RunMeta* meta = nullptr) const;

 private:
  mutable std::mutex mutex_;
  std::size_t histogram_sample_cap_ = 0;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace geomap::obs
