#pragma once
// Shared pieces of the geomap benchmark harness: the in-memory span
// recorder of the traced run, and the interface each workload implements.
//
// The harness measures the library from outside. Every span is recorded
// here, around a call into a module's public functions; nothing inside
// src/ is instrumented, and no obs::Collector is attached on any path
// that offers running without one.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock seconds since the first call in this process.
double now_s();

/// Spans of the traced run, kept in memory and written out at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;  // index into spans(), -1 at the top level
    int job = -1;     // timed job id; -1 set-up, -2 stage probes
  };

  void set_job(int job) { job_ = job; }
  int open(const std::string& name);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int job_ = -1;
};

/// Span scope; costs one branch when `tracer` is null (the timed runs).
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Config {
  std::uint64_t seed = 2017;
  /// Tiny inputs, for the smoke test only.
  bool smoke = false;
  /// Directory inside the checkout for files the workload writes (WALs).
  std::string work_dir;
  /// Set in the traced run; null in timed runs.
  Tracer* tracer = nullptr;
};

/// One workload. The constructor is the set-up: input synthesis,
/// calibration, baselines and set-up digests. Jobs are numbered within a
/// fixed cycle of instances; the harness always runs whole cycles and
/// takes percentiles over the instances, each timed by its fastest visit.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t cycle() const = 0;

  /// Run instance `i` of the cycle. Returns an empty string when every
  /// output check passed, otherwise the failed check.
  virtual std::string run_job(std::size_t i) = 0;

  /// Mean alpha-beta COST improvement (%) of the Geo-distributed mappings
  /// over random baselines on this workload's instances. Deterministic.
  virtual double improvement_pct() const = 0;

  /// Traced run: counts from the result structs, plus stage timings
  /// measured by extra public calls on the same seed's inputs. Returns
  /// an empty string, or the output check those calls failed.
  virtual std::string layer_metrics(Metrics& out) = 0;

  /// Switch span recording on (traced phase) or off.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 protected:
  Tracer* tracer_ = nullptr;
};

std::unique_ptr<Workload> make_map_scale(const Config& config);
std::unique_ptr<Workload> make_outage_storm(const Config& config);

/// Stage probes of the threaded runtime (profile, execute, replay), run
/// by the traced map_scale run. Returns an empty string, or the output
/// check that failed.
std::string runtime_probes(const Config& config, Tracer* tracer, Metrics& out);

/// splitmix64 step: independent per-instance seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Seconds of CPU time this process has used.
double process_cpu_s();

}  // namespace perfbench
