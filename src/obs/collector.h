#pragma once
// The opt-in observability handle threaded through Pipeline, Runtime, and
// the mapper options: one Collector bundles the metrics registry, the
// span tracer, and the mapper decision audit trail.
//
// Contract: every instrumented component takes a `Collector*` that
// defaults to nullptr, and with no collector attached executes the exact
// pre-observability code path — mappings, RunResults, and replay results
// are bit-identical to an uninstrumented build (asserted by tests). With
// a collector attached, instrumentation only observes; it never alters a
// decision.
//
// The collector is thread-safe: rank threads and parallel order
// evaluations record into the same instance concurrently.

#include <iosfwd>
#include <utility>

#include "obs/audit.h"
#include "obs/critpath.h"
#include "obs/detector.h"
#include "obs/eventlog.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/run_meta.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace geomap::obs {

class Collector {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  SpanTracer& tracer() { return tracer_; }
  const SpanTracer& tracer() const { return tracer_; }

  MapperAudit& audit() { return audit_; }
  const MapperAudit& audit() const { return audit_; }

  CritGraph& critpath() { return critpath_; }
  const CritGraph& critpath() const { return critpath_; }

  TimeSeriesRegistry& timeline() { return timeline_; }
  const TimeSeriesRegistry& timeline() const { return timeline_; }

  DetectionLog& detections() { return detections_; }
  const DetectionLog& detections() const { return detections_; }

  PhaseProfiler& profile() { return profile_; }
  const PhaseProfiler& profile() const { return profile_; }

  MemTracker& mem() { return mem_; }
  const MemTracker& mem() const { return mem_; }

  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  IncidentLog& incidents() { return incidents_; }
  const IncidentLog& incidents() const { return incidents_; }

  /// Run metadata stamped into every exported artifact. Set once by the
  /// bench harness before the first export; default is an empty header.
  void set_meta(RunMeta meta) { meta_ = std::move(meta); }
  const RunMeta& meta() const { return meta_; }

  /// The forensic recorders — the per-order decision audit and the
  /// per-edge critical-path event log — cost real time on hot paths
  /// (unlike the always-on set: metrics, spans, timeline, profiler,
  /// memory, whose overhead the CI gate bounds at 5%). They default on,
  /// so a directly constructed Collector (and every --obs-dir run)
  /// records everything; the overhead gate turns them off to time the
  /// always-on set alone. Instrumented sites consult these flags before
  /// recording.
  void set_audit_enabled(bool enabled) { audit_enabled_ = enabled; }
  bool audit_enabled() const { return audit_enabled_; }
  void set_critpath_enabled(bool enabled) { critpath_enabled_ = enabled; }
  bool critpath_enabled() const { return critpath_enabled_; }

  /// Exporters (one JSON document each; see the member classes for the
  /// schemas). Streams are flushed by the caller.
  void write_metrics_json(std::ostream& os) const {
    metrics_.write_json(os, &meta_);
  }
  void write_trace_json(std::ostream& os) const {
    tracer_.write_chrome_trace(os, &meta_);
  }
  void write_audit_json(std::ostream& os) const {
    audit_.write_json(os, &meta_);
  }
  void write_critpath_json(std::ostream& os, bool include_events = true) const {
    critpath_.write_json(os, &meta_, include_events);
  }
  void write_timeline_json(std::ostream& os) const {
    obs::write_timeline_json(os, timeline_, detections_, &meta_);
  }
  void write_profile_json(std::ostream& os) const {
    profile_.write_json(os, &mem_, &meta_);
  }
  void write_events_jsonl(std::ostream& os) const {
    events_.write_jsonl(os, &meta_);
  }
  void write_incidents_json(std::ostream& os) const {
    const AttributionTotals totals = incidents_.totals();
    obs::write_incidents_json(os, incidents_.snapshot(),
                              incidents_.has_totals() ? &totals : nullptr,
                              &meta_);
  }

 private:
  MetricsRegistry metrics_;
  SpanTracer tracer_;
  MapperAudit audit_;
  CritGraph critpath_;
  TimeSeriesRegistry timeline_;
  DetectionLog detections_;
  PhaseProfiler profile_;
  MemTracker mem_;
  EventLog events_;
  IncidentLog incidents_;
  RunMeta meta_;
  bool audit_enabled_ = true;
  bool critpath_enabled_ = true;
};

}  // namespace geomap::obs
