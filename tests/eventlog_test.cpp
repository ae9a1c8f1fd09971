// Streaming telemetry plane (src/obs/eventlog, slo): the structured
// event log's ordering/bounding/thread-safety contracts, the
// deterministic JSONL export, SLO error-budget math on hand-built
// streams, and the nullptr-collector bit-identity of every new emission
// site.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.h"
#include "fault/fault_plan.h"
#include "mapping/problem.h"
#include "migrate/executor.h"
#include "obs/collector.h"
#include "obs/detector.h"
#include "obs/eventlog.h"
#include "obs/slo.h"
#include "tenancy/soak.h"
#include "test_util.h"

namespace geomap::obs {
namespace {

/// Pin an environment variable for one test, restoring on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

TEST(EventLogTest, SequenceNumbersAreMonotoneFromOne) {
  EventLog log;
  log.emit(1.0, EventSeverity::kInfo, "a", "x");
  log.emit(0.5, EventSeverity::kWarn, "b", "y");
  log.emit(2.0, EventSeverity::kError, "c", "z");
  const std::vector<Event> events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, CapacityBoundDropsOldest) {
  EventLog log(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    log.emit(static_cast<Seconds>(i), EventSeverity::kInfo, "c", "e",
             {field("i", i)});
  }
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const std::vector<Event> events = log.events();
  ASSERT_EQ(events.size(), 4u);
  // Newest survive; oldest evicted.
  EXPECT_EQ(events.front().seq, 7u);
  EXPECT_EQ(events.back().seq, 10u);
}

TEST(EventLogTest, MetaLineReportsTotalsAndDrops) {
  EventLog log(/*capacity=*/2);
  for (int i = 0; i < 5; ++i)
    log.emit(static_cast<Seconds>(i), EventSeverity::kInfo, "c", "e");
  std::ostringstream os;
  log.write_jsonl(os);
  std::istringstream is(os.str());
  std::string meta_line;
  ASSERT_TRUE(std::getline(is, meta_line));
  const JsonValue meta = parse_json(meta_line);
  EXPECT_EQ(meta.string_or("kind", ""), "meta");
  EXPECT_EQ(meta.number_or("events", 0), 5.0);
  EXPECT_EQ(meta.number_or("dropped", 0), 3.0);
}

TEST(EventLogTest, ConcurrentEmittersAssignUniqueSeqs) {
  EventLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.emit(static_cast<Seconds>(i), EventSeverity::kInfo, "thread",
                 "tick", {field("t", t), field("i", i)});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.total(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::set<std::uint64_t> seqs;
  for (const Event& e : log.events()) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(EventLogTest, DeterministicExportCanonicalizesInterleaving) {
  ScopedEnv env("GEOMAP_PROFILE_DETERMINISTIC", "1");
  // Same multiset of events, two emission orders (a thread race).
  EventLog a;
  a.emit(1.0, EventSeverity::kInfo, "runtime", "retry", {field("rank", 2)});
  a.emit(1.0, EventSeverity::kInfo, "runtime", "retry", {field("rank", 1)});
  a.emit(0.5, EventSeverity::kWarn, "runtime", "timeout", {field("rank", 3)});
  EventLog b;
  b.emit(0.5, EventSeverity::kWarn, "runtime", "timeout", {field("rank", 3)});
  b.emit(1.0, EventSeverity::kInfo, "runtime", "retry", {field("rank", 1)});
  b.emit(1.0, EventSeverity::kInfo, "runtime", "retry", {field("rank", 2)});
  std::ostringstream osa, osb;
  a.write_jsonl(osa);
  b.write_jsonl(osb);
  EXPECT_EQ(osa.str(), osb.str());
  // Seq stays monotone in file order after renumbering.
  std::istringstream is(osa.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));  // meta
  std::uint64_t last = 0;
  while (std::getline(is, line)) {
    const JsonValue v = parse_json(line);
    const auto seq = static_cast<std::uint64_t>(v.number_or("seq", 0));
    EXPECT_GT(seq, last);
    last = seq;
  }
  EXPECT_EQ(last, 3u);
}

TEST(EventLogTest, NonDeterministicExportKeepsEmissionOrder) {
  ScopedEnv env("GEOMAP_PROFILE_DETERMINISTIC", "0");
  EventLog log;
  log.emit(5.0, EventSeverity::kInfo, "z", "later");
  log.emit(1.0, EventSeverity::kInfo, "a", "earlier");
  std::ostringstream os;
  log.write_jsonl(os);
  const std::size_t z = os.str().find("\"z\"");
  const std::size_t a = os.str().find("\"a\"");
  ASSERT_NE(z, std::string::npos);
  ASSERT_NE(a, std::string::npos);
  EXPECT_LT(z, a);
}

TEST(EventLogTest, JsonlRoundTripsThroughReader) {
  EventLog log;
  log.emit(1.25, EventSeverity::kWarn, "migrate", "commit",
           {field("process", 7), field("downtime", 0.125),
            field("forced", true), field("cause", "outage")});
  std::ostringstream os;
  log.write_jsonl(os);
  std::istringstream is(os.str());
  const std::vector<Event> back = read_events_jsonl(is);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(event_to_json(back[0]), event_to_json(log.events()[0]));
  EXPECT_EQ(back[0].severity, EventSeverity::kWarn);
  ASSERT_EQ(back[0].fields.size(), 4u);
  EXPECT_EQ(back[0].fields[0].kind, EventField::Kind::kInt);
  EXPECT_EQ(back[0].fields[1].kind, EventField::Kind::kDouble);
  EXPECT_EQ(back[0].fields[2].kind, EventField::Kind::kBool);
  EXPECT_EQ(back[0].fields[3].kind, EventField::Kind::kString);
}

TEST(EventLogTest, SeverityParsesAndRejects) {
  EXPECT_EQ(parse_event_severity("debug"), EventSeverity::kDebug);
  EXPECT_EQ(parse_event_severity("error"), EventSeverity::kError);
  EXPECT_THROW(parse_event_severity("fatal"), Error);
}

// ---------------------------------------------------------------------------
// SLO error budgets

std::vector<Event> stream_of(const std::string& component,
                             const std::string& name, const std::string& key,
                             const std::vector<double>& values) {
  std::vector<Event> events;
  for (std::size_t i = 0; i < values.size(); ++i) {
    Event e;
    e.seq = i + 1;
    e.t = static_cast<Seconds>(i);
    e.component = component;
    e.name = name;
    e.fields.push_back(field(key, values[i]));
    events.push_back(e);
  }
  return events;
}

SloSpec latency_spec(double threshold, double objective) {
  SloSpec s;
  s.name = "lat";
  s.component = "detector";
  s.event = "onset";
  s.field = "latency";
  s.threshold = threshold;
  s.objective = objective;
  return s;
}

TEST(SloTest, BurnMathOnHandBuiltStream) {
  // 10 events, 2 over the threshold, objective 0.9: budget 0.1,
  // budget_used 0.2, burn 2.0 -> blown.
  const std::vector<Event> events = stream_of(
      "detector", "onset", "latency",
      {1, 1, 1, 1, 1, 1, 1, 1, 50, 60});
  const SloReport report = evaluate_slos(events, {latency_spec(10.0, 0.9)});
  ASSERT_EQ(report.slos.size(), 1u);
  const SloResult& r = report.slos[0];
  EXPECT_EQ(r.events, 10u);
  EXPECT_EQ(r.good, 8u);
  EXPECT_EQ(r.bad, 2u);
  EXPECT_DOUBLE_EQ(r.compliance, 0.8);
  EXPECT_DOUBLE_EQ(r.error_budget, 0.1);
  EXPECT_DOUBLE_EQ(r.budget_used, 0.2);
  EXPECT_DOUBLE_EQ(r.burn, 2.0);
  EXPECT_DOUBLE_EQ(r.worst, 60.0);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(report.ok);
}

TEST(SloTest, ExactBudgetSpendStillHolds) {
  // 1 bad in 10 with objective 0.9 burns exactly 1.0 — within budget.
  const std::vector<Event> events = stream_of(
      "detector", "onset", "latency", {1, 1, 1, 1, 1, 1, 1, 1, 1, 50});
  const SloReport report = evaluate_slos(events, {latency_spec(10.0, 0.9)});
  EXPECT_DOUBLE_EQ(report.slos[0].burn, 1.0);
  EXPECT_TRUE(report.slos[0].ok);
  EXPECT_TRUE(report.ok);
}

TEST(SloTest, VacuousSloIsMet) {
  const SloReport report = evaluate_slos({}, {latency_spec(10.0, 0.9)});
  EXPECT_EQ(report.slos[0].events, 0u);
  EXPECT_DOUBLE_EQ(report.slos[0].compliance, 1.0);
  EXPECT_DOUBLE_EQ(report.slos[0].burn, 0.0);
  EXPECT_TRUE(report.ok);
}

TEST(SloTest, HigherIsBetterFlipsTheComparison) {
  SloSpec spec = latency_spec(0.9, 0.5);
  spec.field = "jain_index";
  spec.higher_is_better = true;
  const std::vector<Event> events =
      stream_of("detector", "onset", "jain_index", {0.95, 0.99, 0.5});
  const SloReport report = evaluate_slos(events, {spec});
  EXPECT_EQ(report.slos[0].good, 2u);
  EXPECT_EQ(report.slos[0].bad, 1u);
  // Worst for higher-is-better is the smallest observed value.
  EXPECT_DOUBLE_EQ(report.slos[0].worst, 0.5);
}

TEST(SloTest, SelectorsIgnoreOtherEventsAndMissingFields) {
  std::vector<Event> events =
      stream_of("detector", "onset", "latency", {1.0});
  // Same component, different event; and an onset without the field.
  Event other;
  other.component = "detector";
  other.name = "clear";
  other.fields.push_back(field("latency", 99.0));
  events.push_back(other);
  Event no_field;
  no_field.component = "detector";
  no_field.name = "onset";
  no_field.fields.push_back(field("note", "no latency here"));
  events.push_back(no_field);
  const SloReport report = evaluate_slos(events, {latency_spec(10.0, 0.9)});
  EXPECT_EQ(report.slos[0].events, 1u);
}

TEST(SloTest, SpecsParseFromJsonAndValidate) {
  const JsonValue doc = parse_json(R"({"slos": [
    {"name": "x", "component": "migrate", "event": "commit",
     "field": "downtime", "threshold": 2.5, "objective": 0.95,
     "higher_is_better": false, "description": "d"}]})");
  const std::vector<SloSpec> specs = slo_specs_from_json(doc);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].name, "x");
  EXPECT_DOUBLE_EQ(specs[0].threshold, 2.5);
  EXPECT_DOUBLE_EQ(specs[0].objective, 0.95);

  const JsonValue bad = parse_json(
      R"({"slos": [{"name": "x", "component": "a", "event": "b",
          "field": "c", "threshold": 1, "objective": 1.5}]})");
  EXPECT_THROW(slo_specs_from_json(bad), Error);
}

TEST(SloTest, ReportJsonFlattensForRegressEngine) {
  const std::vector<Event> events = stream_of(
      "detector", "onset", "latency", {1, 50});
  const SloReport report = evaluate_slos(events, {latency_spec(10.0, 0.9)});
  std::ostringstream os;
  write_slo_json(os, report);
  const JsonValue doc = parse_json(os.str());
  const JsonValue* slos = doc.find("slos");
  ASSERT_NE(slos, nullptr);
  const JsonValue* lat = slos->find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->number_or("burn", 0), 5.0);
  EXPECT_DOUBLE_EQ(lat->number_or("compliance", 0), 0.5);
  const JsonValue* ok = doc.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->as_bool());
}

TEST(SloTest, DefaultSpecsCoverTheClosedLoop) {
  const std::vector<SloSpec> specs = default_slo_specs();
  std::set<std::string> names;
  for (const SloSpec& s : specs) {
    names.insert(s.name);
    EXPECT_GT(s.objective, 0.0);
    EXPECT_LT(s.objective, 1.0);
  }
  EXPECT_TRUE(names.count("detection_latency"));
  EXPECT_TRUE(names.count("remap_queue_wait"));
  EXPECT_TRUE(names.count("migration_downtime"));
  EXPECT_TRUE(names.count("placement_stretch"));
}

// ---------------------------------------------------------------------------
// Emission sites: nullptr bit-identity and deterministic reruns

TEST(EventEmissionTest, DetectorStreamsOnsetsWithoutChangingVerdicts) {
  // Identical telemetry through two detectors — one streaming to an event
  // log, one not. The verdicts must match; the log gets onset and clear.
  const auto feed = [](DegradationDetector& d) {
    for (int i = 0; i < 4; ++i)
      d.observe_latency_ratio(0, 1, static_cast<Seconds>(i), 3.0);
    for (int i = 4; i < 30; ++i)
      d.observe_latency_ratio(0, 1, static_cast<Seconds>(i), 1.0);
    d.observe_timeout(2, 3, 5.0);
  };
  DegradationDetector plain;
  feed(plain);
  EventLog log;
  DegradationDetector streaming;
  streaming.set_event_log(&log);
  feed(streaming);

  const std::vector<DegradationEvent> expected = plain.events();
  const std::vector<DegradationEvent> got = streaming.events();
  ASSERT_EQ(got.size(), expected.size());
  ASSERT_GE(got.size(), 2u);  // one latency episode + one down episode
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, expected[i].kind);
    EXPECT_EQ(got[i].onset_vtime, expected[i].onset_vtime);
    EXPECT_EQ(got[i].detect_vtime, expected[i].detect_vtime);
    EXPECT_EQ(got[i].end_vtime, expected[i].end_vtime);
    EXPECT_EQ(got[i].severity, expected[i].severity);
  }
  std::size_t onsets = 0, clears = 0;
  for (const Event& e : log.events()) {
    EXPECT_EQ(e.component, "detector");
    if (e.name == "onset") ++onsets;
    if (e.name == "clear") ++clears;
  }
  EXPECT_EQ(onsets, expected.size());
  EXPECT_GE(clears, 1u);  // the latency episode decayed closed
}

TEST(EventEmissionTest, ExecutorStreamsProtocolBitIdentically) {
  // Deterministic executor run (single-threaded, discrete-event): the
  // report must not change when the collector streams protocol events.
  const mapping::MappingProblem problem =
      testutil::random_problem(6, 0.0, /*seed=*/7, /*degree=*/3, /*slack=*/2);
  const Mapping current{0, 0, 1, 1, 2, 2};
  const Mapping target{3, 3, 1, 1, 2, 2};
  fault::FaultPlan plan(11);
  plan.add_site_degradation(1, 0.0, 5.0, 0.5, 2.0);
  migrate::MigrationOptions options;
  options.bytes_per_process = 10.0 * kMiB;
  options.chunk_bytes = 1.0 * kMiB;
  const migrate::MigrationReport baseline = migrate::execute_migration(
      problem, current, target, plan, 0.0, options);

  obs::Collector collector;
  migrate::MigrationOptions instrumented = options;
  instrumented.collector = &collector;
  const migrate::MigrationReport observed = migrate::execute_migration(
      problem, current, target, plan, 0.0, instrumented);

  EXPECT_EQ(observed.final_mapping, baseline.final_mapping);
  EXPECT_EQ(observed.bytes_sent, baseline.bytes_sent);
  EXPECT_EQ(observed.finish_time, baseline.finish_time);
  EXPECT_EQ(observed.max_downtime, baseline.max_downtime);
  EXPECT_EQ(observed.events.size(), baseline.events.size());

  // The stream carries every non-chunk protocol transition; commits
  // carry the downtime the SLO tracker consumes.
  std::size_t commits = 0;
  for (const Event& e : collector.events().events()) {
    EXPECT_EQ(e.component, "migrate");
    EXPECT_NE(e.name, "chunk");
    if (e.name == "commit") {
      ++commits;
      bool has_downtime = false;
      for (const EventField& f : e.fields)
        if (f.key == "downtime") has_downtime = true;
      EXPECT_TRUE(has_downtime);
    }
  }
  EXPECT_EQ(commits, 2u);
}

TEST(EventEmissionTest, MultiTenantSoakStreamsLifecycleBitIdentically) {
  tenancy::MultiTenantSoakOptions options;
  options.substrate.num_sites = 4;
  options.substrate.num_tenants = 6;
  const tenancy::MultiTenantSoakCase baseline =
      tenancy::run_multitenant_soak_case(5, options);

  obs::Collector collector;
  tenancy::MultiTenantSoakOptions instrumented = options;
  instrumented.collector = &collector;
  const tenancy::MultiTenantSoakCase observed =
      tenancy::run_multitenant_soak_case(5, instrumented);

  EXPECT_EQ(observed.detected, baseline.detected);
  EXPECT_EQ(observed.detect_time, baseline.detect_time);
  EXPECT_EQ(observed.requests, baseline.requests);
  EXPECT_EQ(observed.storm.requeues, baseline.storm.requeues);
  EXPECT_EQ(observed.storm.gave_up, baseline.storm.gave_up);
  EXPECT_EQ(observed.fairness.jain_index, baseline.fairness.jain_index);
  EXPECT_EQ(observed.violations.size(), baseline.violations.size());

  // Lifecycle events present: case_start first, case_done last.
  const std::vector<Event> events = collector.events().events();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().component, "soak");
  EXPECT_EQ(events.front().name, "case_start");
  EXPECT_EQ(events.back().name, "case_done");
  bool saw_detect = false, saw_sched = false;
  for (const Event& e : events) {
    if (e.component == "soak" && e.name == "detect") saw_detect = true;
    if (e.component == "scheduler") saw_sched = true;
  }
  EXPECT_TRUE(saw_detect);
  EXPECT_TRUE(saw_sched);
}

TEST(EventEmissionTest, DeterministicRerunsExportByteIdenticalJsonl) {
  ScopedEnv env("GEOMAP_PROFILE_DETERMINISTIC", "1");
  tenancy::MultiTenantSoakOptions options;
  options.substrate.num_sites = 4;
  options.substrate.num_tenants = 6;

  std::string exports[2];
  for (std::string& out : exports) {
    obs::Collector collector;
    tenancy::MultiTenantSoakOptions instrumented = options;
    instrumented.collector = &collector;
    (void)tenancy::run_multitenant_soak_case(5, instrumented);
    std::ostringstream os;
    collector.write_events_jsonl(os);
    out = os.str();
  }
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_NE(exports[0].find("case_done"), std::string::npos);
}

// The window obsctl's `timeline --since/--until` and `events` filters
// share (obs/timeseries.h). Bounds are inclusive on both ends.
TEST(TimeWindowTest, DefaultWindowContainsEverything) {
  const TimeWindow w;
  EXPECT_FALSE(w.empty());
  EXPECT_TRUE(w.contains(-1e18));
  EXPECT_TRUE(w.contains(0.0));
  EXPECT_TRUE(w.contains(1e18));
  EXPECT_TRUE(w.intersects(-5.0, -4.0));
}

TEST(TimeWindowTest, BoundsAreInclusive) {
  const TimeWindow w{2.0, 7.0};
  EXPECT_TRUE(w.contains(2.0));
  EXPECT_TRUE(w.contains(7.0));
  EXPECT_FALSE(w.contains(std::nextafter(2.0, 0.0)));
  EXPECT_FALSE(w.contains(std::nextafter(7.0, 100.0)));
  // A span entirely before / entirely after does not intersect; one
  // touching an endpoint does.
  EXPECT_FALSE(w.intersects(0.0, 1.9));
  EXPECT_FALSE(w.intersects(7.1, 9.0));
  EXPECT_TRUE(w.intersects(1.0, 2.0));
  EXPECT_TRUE(w.intersects(7.0, 9.0));
  EXPECT_DOUBLE_EQ(w.clamp(0.0), 2.0);
  EXPECT_DOUBLE_EQ(w.clamp(9.0), 7.0);
  EXPECT_DOUBLE_EQ(w.clamp(5.0), 5.0);
}

TEST(TimeWindowTest, SinceEqualsUntilSelectsExactlyThatInstant) {
  const TimeWindow w{3.0, 3.0};
  EXPECT_FALSE(w.empty());
  EXPECT_TRUE(w.contains(3.0));
  EXPECT_FALSE(w.contains(3.0 - 1e-12));
  EXPECT_FALSE(w.contains(3.0 + 1e-12));
}

TEST(TimeWindowTest, SinceAfterUntilIsEmpty) {
  const TimeWindow w{5.0, 3.0};
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(w.contains(4.0));
  EXPECT_FALSE(w.intersects(0.0, 10.0));
}

namespace {
void write_jsonl_atomically(const std::filesystem::path& path,
                            const EventLog& log) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream os(tmp);
    log.write_jsonl(os);
  }
  std::filesystem::rename(tmp, path);  // the exporter's swap discipline
}
}  // namespace

TEST(FollowCursorTest, ResumesAcrossAtomicSnapshotSwap) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "geomap-follow-test";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "events.jsonl";

  EventLog log;
  log.emit(1.0, EventSeverity::kInfo, "scheduler", "queue",
           {field("tenant", 0)});
  log.emit(2.0, EventSeverity::kWarn, "detector", "onset",
           {field("src", 0), field("dst", 1)});
  write_jsonl_atomically(path, log);

  FollowCursor cursor;
  const auto load = [&] {
    std::ifstream is(path);
    return read_events_jsonl(is);
  };
  std::vector<Event> fresh = cursor.take_new(load());
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(cursor.last_seq, 2u);

  // Re-reading the unchanged snapshot yields nothing new.
  EXPECT_TRUE(cursor.take_new(load()).empty());

  // The producer emits more and swaps in a bigger whole-file snapshot:
  // the cursor must yield exactly the fresh tail, never the prefix again.
  log.emit(3.0, EventSeverity::kInfo, "migrate", "commit",
           {field("process", 4), field("downtime", 0.5)});
  log.emit(4.0, EventSeverity::kInfo, "soak", "case_done", {});
  write_jsonl_atomically(path, log);

  fresh = cursor.take_new(load());
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].seq, 3u);
  EXPECT_EQ(fresh[0].component, "migrate");
  EXPECT_EQ(fresh[1].seq, 4u);
  EXPECT_EQ(cursor.last_seq, 4u);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace geomap::obs
