#pragma once
// Shared scaffolding for the experiment harnesses. Every bench binary
// reproduces one paper table or figure: it prints the same rows/series
// the paper reports, using this module's common setup (the 4-region EC2
// deployment, calibrated network model, app profiling and the
// Baseline/Greedy/MPIPP/Geo-distributed comparison set).

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/atomic_file.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "obs/collector.h"
#include "core/geodist_mapper.h"
#include "core/pipeline.h"
#include "mapping/cost.h"
#include "mapping/greedy_mapper.h"
#include "mapping/metrics.h"
#include "mapping/mpipp_mapper.h"
#include "mapping/problem.h"
#include "mapping/random_mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "runtime/comm.h"
#include "sim/netsim.h"
#include "trace/profile.h"

namespace geomap::bench {

/// The paper's EC2 deployment: 4 regions x `nodes_per_site` m4.xlarge.
struct Ec2Context {
  net::CloudTopology topo;
  net::CalibrationResult calib;

  explicit Ec2Context(int nodes_per_site)
      : topo(net::aws_experiment_profile(nodes_per_site)),
        calib(net::Calibrator().calibrate(topo)) {}
};

/// Profile `app` with the tracer attached (one execution under a trivial
/// mapping; the pattern is mapping-independent for these apps).
inline trace::CommMatrix profile_app(const apps::App& app,
                                     const apps::AppConfig& cfg,
                                     const net::NetworkModel& model) {
  trace::ApplicationProfile profile(cfg.num_ranks);
  Mapping trivial(static_cast<std::size_t>(cfg.num_ranks), 0);
  runtime::Runtime rt(model, trivial, 50.0, &profile);
  rt.run([&](runtime::Comm& comm) { (void)app.run(comm, cfg); });
  return profile.build_comm_matrix();
}

/// The paper's comparison set (Section 5.1), in presentation order.
/// MPIPP is omitted above `mpipp_limit` processes — the paper notes it is
/// "very inefficient" beyond ~1000 processes.
struct AlgorithmSet {
  std::unique_ptr<mapping::Mapper> greedy;
  std::unique_ptr<mapping::Mapper> mpipp;  // may be null at large N
  std::unique_ptr<mapping::Mapper> geo;

  std::vector<mapping::Mapper*> all() const {
    std::vector<mapping::Mapper*> out = {greedy.get()};
    if (mpipp) out.push_back(mpipp.get());
    out.push_back(geo.get());
    return out;
  }
};

inline AlgorithmSet paper_algorithms(int num_processes, int mpipp_limit = 1000,
                                     obs::Collector* collector = nullptr) {
  AlgorithmSet set;
  set.greedy = std::make_unique<mapping::GreedyMapper>();
  if (num_processes <= mpipp_limit)
    set.mpipp = std::make_unique<mapping::MpippMapper>();
  core::GeoDistOptions geo_options;
  geo_options.collector = collector;
  set.geo = std::make_unique<core::GeoDistMapper>(geo_options);
  for (mapping::Mapper* m : set.all()) m->set_collector(collector);
  return set;
}

/// Mean cost of `trials` random (Baseline) mappings — the paper
/// normalizes all improvements against the Baseline average.
inline RunningStats baseline_cost_stats(const mapping::MappingProblem& p,
                                        int trials, std::uint64_t seed) {
  const mapping::CostEvaluator eval(p);
  Rng rng(seed);
  RunningStats stats;
  for (int t = 0; t < trials; ++t)
    stats.add(eval.total_cost(mapping::RandomMapper::draw(p, rng)));
  return stats;
}

/// Parse the standard bench flags shared by all harnesses.
struct BenchFlags {
  int trials = 5;
  std::uint64_t seed = 2017;
  bool csv = false;
};

inline void print_table(const Table& table, bool csv) {
  if (csv) table.print_csv(std::cout);
  else table.print(std::cout);
}

/// True when GEOMAP_PROFILE_DETERMINISTIC asks for byte-identical
/// output. Benches must zero every wall-clock field they emit under
/// this flag — the same contract the profiler's clocks follow — so a
/// rerun with the same seed cmp's clean.
inline bool deterministic_output() {
  const char* v = std::getenv("GEOMAP_PROFILE_DETERMINISTIC");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// `ms` as-is normally, 0 under GEOMAP_PROFILE_DETERMINISTIC.
inline double masked_ms(double ms) { return deterministic_output() ? 0.0 : ms; }

/// Collector wired from the shared observability option, --obs-dir. One
/// call to add_flags() in every bench registers it; parse() (or the
/// constructor) reads it back. collector() is nullptr when no directory
/// was given, so benches stay on the exact uninstrumented path unless
/// asked; flush() (also run at destruction) writes the artifacts into
/// the directory, each stamped with the run-metadata header (bench name
/// from argv[0], the bench's --seed when it has one, geomap version, git
/// describe, timestamp). checkpoint() writes the same set mid-run —
/// atomically, via tmp+rename — so `geomap-obsctl watch` can follow a
/// live --obs-dir without ever reading a half-written artifact.
class ObsSink {
 public:
  /// Register --obs-dir. Empty = observability off.
  static void add_flags(CliParser& cli) {
    cli.add_string("obs-dir", "",
                   "write the observability artifacts into this directory "
                   "as metrics.json, trace.json, audit.json, critpath.json, "
                   "timeline.json, profile.json, events.jsonl, "
                   "incidents.json");
  }

  /// Read the flag add_flags() registered back into a sink.
  static ObsSink parse(const CliParser& cli) { return ObsSink(cli); }

  explicit ObsSink(const CliParser& cli) : dir_(cli.get_string("obs-dir")) {
    if (dir_.empty()) return;
    std::filesystem::create_directories(dir_);
    // A fresh collector records everything, the forensic recorders
    // (audit, critpath) included: their artifacts are part of the set.
    collector_ = std::make_unique<obs::Collector>();
    const bool has_seed = cli.has("seed");
    collector_->set_meta(obs::make_run_meta(
        cli.program_name(),
        has_seed ? static_cast<std::uint64_t>(cli.get_int("seed")) : 0,
        has_seed));
  }

  ObsSink(const ObsSink&) = delete;
  ObsSink& operator=(const ObsSink&) = delete;
  ObsSink(ObsSink&&) = default;
  ~ObsSink() { flush(); }

  obs::Collector* collector() { return collector_.get(); }

  /// Final export: writes every artifact once (latched; the destructor
  /// is a no-op afterwards).
  void flush() {
    if (collector_ == nullptr || flushed_) return;
    flushed_ = true;
    write_all();
  }

  /// Mid-run export for live watching: writes every artifact *now*
  /// without latching, so a later checkpoint() or the final flush()
  /// overwrites it with fresher state. Each file lands via tmp + rename,
  /// so a concurrent reader (obsctl watch, tail -f on the directory)
  /// never sees a torn artifact.
  void checkpoint() {
    if (collector_ == nullptr || flushed_) return;
    write_all();
  }

 private:
  void write_all() {
    const obs::Collector& c = *collector_;
    write("metrics.json", [&](std::ostream& os) { c.write_metrics_json(os); });
    write("trace.json", [&](std::ostream& os) { c.write_trace_json(os); });
    write("audit.json", [&](std::ostream& os) { c.write_audit_json(os); });
    write("critpath.json",
          [&](std::ostream& os) { c.write_critpath_json(os); });
    write("timeline.json",
          [&](std::ostream& os) { c.write_timeline_json(os); });
    write("events.jsonl", [&](std::ostream& os) { c.write_events_jsonl(os); });
    write("incidents.json",
          [&](std::ostream& os) { c.write_incidents_json(os); });
    // Fold the OS view in right before export so profile.json's memory
    // section can be sanity-checked against the instrumented accounts
    // (no-op in deterministic mode).
    collector_->mem().sample_rss();
    write("profile.json", [&](std::ostream& os) { c.write_profile_json(os); });
  }

  template <typename WriteFn>
  void write(const char* name, WriteFn&& fn) {
    // Write-then-rename keeps every published artifact whole even while
    // a watcher polls the directory mid-run.
    write_file_atomic(dir_ + "/" + name, std::forward<WriteFn>(fn));
  }

  std::string dir_;
  std::unique_ptr<obs::Collector> collector_;
  bool flushed_ = false;
};

}  // namespace geomap::bench
