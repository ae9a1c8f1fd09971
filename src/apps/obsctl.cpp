// geomap-obsctl: offline analysis of exported observability artifacts.
//
//   analyze <critpath.json>            critical-path summary per run: the
//                                      makespan's alpha / beta / contention /
//                                      fault / local decomposition, per
//                                      site-pair and per-rank attribution,
//                                      top-k slowest path steps. --json emits
//                                      the compact (event-free) form used as
//                                      a checked-in regression baseline.
//   timeline <timeline.json>           renders the windowed per-link series
//                                      as ASCII lanes with the detector's
//                                      episodes overlaid against the
//                                      injected ground-truth fault windows
//                                      (plus a migration lane whenever the
//                                      artifact carries migration.bytes
//                                      flows), the detection/truth tables
//                                      and the precision/recall score block.
//                                      Multi-tenant artifacts ("t<k>:s->d"
//                                      labels) get one lane block per
//                                      (tenant, link) under the shared view.
//   profile <profile.json>             renders the hierarchical phase tree
//                                      (inclusive wall/CPU, exclusive wall,
//                                      calls, work counters), the hot-leaf
//                                      table ranked by exclusive time, the
//                                      memory accounts, and the re-fold
//                                      check (exclusive times summing back
//                                      to the root's measured wall).
//                                      --collapse re-emits the tree as
//                                      collapsed-stack lines (flamegraph.pl
//                                      / speedscope input; the only
//                                      collapsed-stack writer).
//   profile diff <baseline> <current>  diff/check specialized to profile
//                                      artifacts: watches the deterministic
//                                      leaves (counters, calls, peak bytes)
//                                      by default; --gate exits 1 on a
//                                      watched regression.
//   diff <baseline> <current>          regression table over the numeric
//                                      leaves of any two artifacts of the
//                                      same kind (percent deltas; "meta" is
//                                      ignored; one-side-only keys appear
//                                      as added/removed rows).
//   check <baseline> <current>         like diff, but exits 1 when a watched
//                                      leaf regressed past --threshold (or
//                                      vanished). CI's bench-regress gate.
//   events <events.jsonl>              filter and pretty-print the
//                                      structured event stream (component /
//                                      severity / time-range filters;
//                                      --json re-emits matching lines;
//                                      --follow tails a live artifact).
//   slo <events.jsonl>                 evaluate SLO specs (built-in set or
//                                      --spec file) over the event stream:
//                                      per-SLO compliance and error-budget
//                                      burn. --json emits the slo.json
//                                      form; --gate exits 1 when any SLO
//                                      blew its budget.
//   watch <obs-dir>                    periodically re-render a live
//                                      --obs-dir from its events.jsonl
//                                      (event tail, SLO burn),
//                                      timeline.json (lanes) and
//                                      incidents.json (verdicts) —
//                                      artifacts land via tmp+rename so
//                                      a mid-run read is never torn; each
//                                      artifact that is missing or
//                                      mid-checkpoint is reported as
//                                      `pending` while the rest render.
//   incidents <input>                  table of reconstructed incidents
//                                      (id, window, blame verdict, stage
//                                      budget, SLO burn) plus the
//                                      attribution score block when the
//                                      artifact carries one. <input> is an
//                                      obs-dir, an incidents.json, or an
//                                      events.jsonl (incidents are then
//                                      derived on the fly). --json
//                                      re-emits the incidents.json form.
//   explain <input> <slo|inc-id>       causal chain for one incident or
//                                      for every incident implicated in a
//                                      blown SLO: an ASCII stage bar
//                                      (detect / queue / migrate /
//                                      residual, dominant stage
//                                      highlighted) and the per-stage
//                                      latency budget. Exit 1 when the
//                                      named SLO blew its budget, 0 when
//                                      it held.
//
// Exit codes: 0 ok / no regression, 1 regression detected (check,
// slo --gate, and explain on a blown SLO), 2 usage error or
// missing/unreadable artifact (explain: also an unknown SLO/incident id or
// an input with no events to evaluate), 3 artifact found but its JSON is
// malformed. Scripts can tell "the bench never ran" (2) from "the bench
// wrote garbage" (3) without parsing stderr.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/json_reader.h"
#include "common/json_writer.h"
#include "common/table.h"
#include "obs/critpath.h"
#include "obs/eventlog.h"
#include "obs/incident.h"
#include "obs/profile.h"
#include "obs/regress.h"
#include "recover/recovery.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

using namespace geomap;

namespace {

int usage(std::ostream& os, int code) {
  os << "Usage:\n"
        "  geomap-obsctl analyze <critpath.json> [--run N] [--top K] "
        "[--json]\n"
        "  geomap-obsctl timeline <timeline.json> [--series NAME] "
        "[--width N]\n"
        "                [--since T] [--until T]\n"
        "  geomap-obsctl profile <profile.json> [--top K] [--collapse]\n"
        "  geomap-obsctl profile diff <baseline.json> <current.json> "
        "[--gate]\n"
        "  geomap-obsctl diff <baseline.json> <current.json> [--all]\n"
        "  geomap-obsctl check <baseline.json> <current.json>\n"
        "  geomap-obsctl events <events.jsonl> [--component C] [--event E]\n"
        "                [--severity S] [--since T] [--until T] [--json]\n"
        "                [--follow] [--interval SEC] [--iterations N]\n"
        "  geomap-obsctl slo <events.jsonl> [--spec specs.json] [--json] "
        "[--gate]\n"
        "  geomap-obsctl watch <obs-dir> [--interval SEC] [--iterations N]\n"
        "                [--once] [--series NAME] [--width N] [--tail K] "
        "[--severity S]\n"
        "  geomap-obsctl wal <wal-dir> [--verify] [--json] [--tail K]\n"
        "  geomap-obsctl incidents <obs-dir|incidents.json|events.jsonl> "
        "[--json]\n"
        "  geomap-obsctl explain <obs-dir|incidents.json|events.jsonl>\n"
        "                <slo-name|incident-id> [--width N]\n"
        "\n"
        "Flags for profile:\n"
        "  --top K           hot leaves listed (default 10)\n"
        "  --collapse        emit collapsed-stack lines instead of the "
        "report\n"
        "  --gate            (profile diff) exit 1 when a watched leaf\n"
        "                    regressed past --threshold\n"
        "\n"
        "Flags for timeline:\n"
        "  --series NAME     metric whose per-link points feed the value "
        "lane\n"
        "                    (default link.latency_ratio)\n"
        "  --width N         columns in the rendered lanes (default 64)\n"
        "  --since/--until T render only [T_since, T_until] (virtual "
        "seconds)\n"
        "\n"
        "Flags for events:\n"
        "  --component C     only events from component C\n"
        "  --event E         only events named E\n"
        "  --severity S      minimum severity (debug|info|warn|error)\n"
        "  --since/--until T only events with T_since <= t <= T_until\n"
        "  --json            re-emit matching events as JSON lines\n"
        "  --follow          poll the file and print new events as they "
        "land\n"
        "  --interval SEC    follow/watch poll period (default 2)\n"
        "  --iterations N    stop after N polls (0 = forever)\n"
        "\n"
        "Flags for slo:\n"
        "  --spec FILE       JSON spec set ({\"slos\": [...]}; default: "
        "built-in)\n"
        "  --json            emit the slo.json artifact form\n"
        "  --gate            exit 1 when any SLO blew its error budget\n"
        "\n"
        "Flags for watch (reads events.jsonl, timeline.json, "
        "incidents.json;\n"
        "a missing or mid-checkpoint artifact renders as pending):\n"
        "  --once            render one tick and exit (same as "
        "--iterations 1)\n"
        "  --tail K          last K events and incidents shown "
        "(default 8)\n"
        "  --interval, --iterations, --severity, --series and --width "
        "as above\n"
        "\n"
        "Flags for wal:\n"
        "  --verify          run the recovery invariant audit; exit 1 "
        "on any\n"
        "                    violation\n"
        "  --json            emit the summary as JSON instead of text\n"
        "  --tail K          show the last K records (default 0: none)\n"
        "\n"
        "Flags for incidents / explain:\n"
        "  --json            (incidents) re-emit the incidents.json form\n"
        "  --width N         (explain) columns in the stage bar "
        "(default 48)\n"
        "  An obs-dir input prefers its incidents.json and falls back to\n"
        "  deriving incidents from events.jsonl; deriving from a\n"
        "  multi-case stream that was exported after sorting is "
        "best-effort\n"
        "  (the per-case slices are no longer contiguous).\n"
        "\n"
        "Shared flags for diff/check:\n"
        "  --threshold PCT   relative change that fails check "
        "(default 10)\n"
        "  --watch PATTERNS  comma-separated dotted-key globs; only "
        "matching\n"
        "                    leaves can fail (default: "
        "runs.*.analysis.makespan_seconds\n"
        "                    and runs.*.analysis.components.*). Prefix a\n"
        "                    pattern with '-' for higher-is-better leaves\n"
        "                    (detection precision/recall): those fail on a\n"
        "                    decrease past the threshold instead\n"
        "\n"
        "Exit codes:\n"
        "  0   success / no regression\n"
        "  1   check / slo --gate: a watched leaf regressed past the "
        "threshold\n"
        "      (or vanished), an SLO blew its error budget, or explain "
        "was\n"
        "      pointed at a blown SLO, or wal --verify found a "
        "violation\n"
        "  2   usage error, or an artifact is missing / unreadable "
        "(explain:\n"
        "      also an unknown SLO / incident id, or no events to "
        "evaluate)\n"
        "  3   an artifact was found but its JSON is malformed (wal: "
        "the log\n"
        "      is corrupt beyond a torn tail)\n";
  return code;
}

/// Re-emit a parsed JSON value verbatim (used to pass an input artifact's
/// meta header through to derived outputs).
void write_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.as_bool());
      break;
    case JsonValue::Kind::kNumber:
      w.value(v.as_number());
      break;
    case JsonValue::Kind::kString:
      w.value(v.as_string());
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& item : v.items()) write_value(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, child] : v.members()) {
        w.key(key);
        write_value(w, child);
      }
      w.end_object();
      break;
  }
}

struct AnalyzedRun {
  int run = 0;
  std::string label;
  Seconds origin = 0;
  obs::CriticalPath path;
};

std::vector<AnalyzedRun> analyze_runs(const JsonValue& doc, int only_run) {
  GEOMAP_CHECK_ARG(doc.is_object() && doc.find("runs") != nullptr,
                   "not a critpath artifact (no top-level 'runs' array)");
  std::vector<AnalyzedRun> out;
  for (const JsonValue& run : doc.at("runs").items()) {
    AnalyzedRun a;
    a.run = static_cast<int>(run.number_or("run", 0));
    if (only_run >= 0 && a.run != only_run) continue;
    a.label = run.string_or("label", "");
    a.origin = run.number_or("origin", 0);
    const JsonValue* events = run.find("events");
    GEOMAP_CHECK_ARG(events != nullptr,
                     "run " << a.run
                            << " has no 'events' array — this artifact is a "
                               "compact baseline; analyze the full export");
    a.path = obs::extract_critical_path(
        obs::critpath_events_from_json(*events), a.origin);
    out.push_back(std::move(a));
  }
  return out;
}

void print_components_row(Table::RowBuilder&& row, const std::string& name,
                          const obs::ComponentTotals& c, Seconds makespan) {
  const Seconds total = c.total();
  row.cell(name)
      .cell(total, 6)
      .cell(makespan > 0 ? 100.0 * total / makespan : 0.0, 1)
      .cell(c.alpha, 6)
      .cell(c.beta, 6)
      .cell(c.contention_stall, 6)
      .cell(c.fault_stall, 6)
      .cell(c.local, 6);
}

int cmd_analyze(const std::vector<std::string>& args) {
  std::string path;
  int top = 5;
  int only_run = -1;
  bool as_json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      as_json = true;
    } else if (args[i] == "--top" && i + 1 < args.size()) {
      top = std::stoi(args[++i]);
    } else if (args[i] == "--run" && i + 1 < args.size()) {
      only_run = std::stoi(args[++i]);
    } else if (path.empty() && args[i].rfind("--", 0) != 0) {
      path = args[i];
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (path.empty()) return usage(std::cerr, 2);

  const JsonValue doc = parse_json_file(path);
  const std::vector<AnalyzedRun> runs = analyze_runs(doc, only_run);

  if (as_json) {
    JsonWriter w(std::cout);
    w.begin_object();
    if (const JsonValue* meta = doc.find("meta")) {
      w.key("meta");
      write_value(w, *meta);
    }
    w.key("runs").begin_array();
    for (const AnalyzedRun& a : runs) {
      w.begin_object();
      w.field("run", a.run);
      w.field("label", a.label);
      w.field("origin", a.origin);
      obs::write_analysis_member(w, a.path);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::cout << "\n";
    return 0;
  }

  for (const AnalyzedRun& a : runs) {
    print_banner(std::cout,
                 "run " + std::to_string(a.run) + " (" + a.label + ")");
    std::cout << "makespan: " << format_double(a.path.makespan, 6)
              << " s   critical path: "
              << format_double(a.path.path_seconds, 6) << " s over "
              << a.path.steps.size() << " steps\n\n";

    Table components({"scope", "seconds", "% of makespan", "alpha", "beta",
                      "contention", "fault", "local"});
    print_components_row(components.row(), "total", a.path.totals,
                         a.path.makespan);
    for (const obs::PairAttribution& pa : a.path.by_pair) {
      const std::string name =
          pa.src_site < 0 ? "(local)"
                          : "site " + std::to_string(pa.src_site) + " -> " +
                                std::to_string(pa.dst_site);
      print_components_row(components.row(), name, pa.components,
                           a.path.makespan);
    }
    components.print(std::cout);
    std::cout << "\n";

    Table ranks({"rank", "seconds", "% of makespan", "alpha", "beta",
                 "contention", "fault", "local"});
    for (const obs::RankAttribution& ra : a.path.by_rank) {
      print_components_row(ranks.row(), "rank " + std::to_string(ra.rank),
                           ra.components, a.path.makespan);
    }
    ranks.print(std::cout);
    std::cout << "\n";

    if (top > 0 && !a.path.steps.empty()) {
      std::vector<const obs::CritPathStep*> slowest;
      for (const obs::CritPathStep& s : a.path.steps) slowest.push_back(&s);
      std::stable_sort(slowest.begin(), slowest.end(),
                       [](const obs::CritPathStep* x,
                          const obs::CritPathStep* y) {
                         return x->duration() > y->duration();
                       });
      if (slowest.size() > static_cast<std::size_t>(top))
        slowest.resize(static_cast<std::size_t>(top));
      Table steps({"kind", "rank", "peer", "link", "start", "end",
                   "seconds", "dominant"});
      for (const obs::CritPathStep* s : slowest) {
        const obs::ComponentTotals c = s->components();
        const char* dominant = "local";
        Seconds best = c.local;
        if (c.alpha > best) { best = c.alpha; dominant = "alpha"; }
        if (c.beta > best) { best = c.beta; dominant = "beta"; }
        if (c.contention_stall > best) {
          best = c.contention_stall;
          dominant = "contention";
        }
        if (c.fault_stall > best) { best = c.fault_stall; dominant = "fault"; }
        steps.row()
            .cell(s->event.kind)
            .cell(s->event.rank)
            .cell(s->event.peer)
            .cell(s->event.src_site < 0
                      ? std::string("-")
                      : std::to_string(s->event.src_site) + "->" +
                            std::to_string(s->event.dst_site))
            .cell(s->event.start, 6)
            .cell(s->event.end, 6)
            .cell(s->duration(), 6)
            .cell(dominant);
      }
      print_banner(std::cout, "slowest path steps");
      steps.print(std::cout);
      std::cout << "\n";
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// timeline

struct TimelineEpisode {
  int src = -1, dst = -1;
  std::string kind;  // "latency" | "down"
  Seconds onset = 0, detect = 0;
  Seconds end = std::numeric_limits<double>::infinity();  // inf = still open
  double severity = 0, confidence = 0;
};

struct TimelineTruth {
  int src = -1, dst = -1;
  Seconds start = 0;
  Seconds end = std::numeric_limits<double>::infinity();
  bool down = false;
};

/// "end": null in the artifact means the episode/window never closed.
Seconds end_or_inf(const JsonValue& v) {
  const JsonValue* end = v.find("end");
  return end != nullptr && end->is_number()
             ? end->as_number()
             : std::numeric_limits<double>::infinity();
}

/// Split a registry key "name{label}" into its parts; a bare key has an
/// empty label.
void split_series_key(const std::string& key, std::string* name,
                      std::string* label) {
  const std::size_t brace = key.find('{');
  if (brace == std::string::npos || key.empty() || key.back() != '}') {
    *name = key;
    label->clear();
    return;
  }
  *name = key.substr(0, brace);
  *label = key.substr(brace + 1, key.size() - brace - 2);
}

std::string format_end(Seconds end) {
  return std::isfinite(end) ? format_double(end, 3) : std::string("open");
}

/// Render options shared by `timeline` and each `watch` tick. The
/// [since, until] range is an obs::TimeWindow so `timeline` and `events`
/// share one definition of the boundary semantics (inclusive on both
/// ends; since > until is the empty window).
struct TimelineOptions {
  std::string series_name = "link.latency_ratio";
  int width = 64;
  obs::TimeWindow window;
};

int render_timeline(const JsonValue& doc, const TimelineOptions& opt) {
  const std::string& series_name = opt.series_name;
  const int width = opt.width;
  const JsonValue* series = doc.find("series");
  GEOMAP_CHECK_ARG(series != nullptr && series->is_object(),
                   "not a timeline artifact (no top-level 'series' object)");

  // Per-link data for the lanes, keyed (tenant, src, dst). Links are the
  // union of what the chosen metric observed, what the detector flagged
  // and what the plan injected — a lane renders even when one side is
  // empty, which is exactly the false-negative / false-positive picture.
  // Tenant -1 is the shared substrate view (unprefixed labels); a
  // multi-tenant run's "t<k>:src->dst" series get their own lanes, so a
  // remap storm reads as per-tenant migrate lanes stacked under the
  // shared link telemetry.
  using Link = std::tuple<int, int, int>;
  std::map<Link, std::vector<obs::TimePoint>> points;
  std::map<Link, std::vector<obs::TimePoint>> migration_points;
  // Mapper progress heartbeats ("mapper.progress" series, any label) get
  // their own lane under the link blocks — completed fraction over time.
  std::map<std::string, std::vector<obs::TimePoint>> progress_points;
  std::map<Link, std::vector<const TimelineEpisode*>> lane_events;
  std::map<Link, std::vector<const TimelineTruth*>> lane_truth;

  Seconds t_min = std::numeric_limits<double>::infinity();
  Seconds t_max = -std::numeric_limits<double>::infinity();
  const auto widen = [&](Seconds t) {
    if (!std::isfinite(t)) return;
    t_min = std::min(t_min, t);
    t_max = std::max(t_max, t);
  };

  Table summary({"series", "points", "total", "dropped", "w.count", "w.mean",
                 "w.max", "w.rate", "w.ewma"});
  for (const auto& [key, s] : series->members()) {
    std::string name, label;
    split_series_key(key, &name, &label);
    int tenant = -1, src = -1, dst = -1;
    bool is_link = obs::parse_tenant_link_label(label, &tenant, &src, &dst);
    if (!is_link) {
      tenant = -1;
      is_link = obs::parse_link_label(label, &src, &dst);
    }
    const JsonValue* pts = s.find("points");
    std::size_t retained = 0;
    if (pts != nullptr && pts->is_array()) {
      retained = pts->items().size();
      for (const JsonValue& p : pts->items()) {
        if (!p.is_array() || p.items().size() != 2) continue;
        const Seconds t = p.items()[0].as_number();
        const double v = p.items()[1].as_number();
        if (!opt.window.contains(t)) continue;
        if (is_link && name == series_name)
          points[{tenant, src, dst}].push_back({t, v});
        if (is_link && name == "migration.bytes")
          migration_points[{tenant, src, dst}].push_back({t, v});
        if (name == "mapper.progress") progress_points[key].push_back({t, v});
        widen(t);
      }
    }
    auto row = summary.row();
    row.cell(key).cell(retained).cell(s.number_or("total", 0), 0)
        .cell(s.number_or("dropped", 0), 0);
    if (const JsonValue* w = s.find("last_window")) {
      row.cell(w->number_or("count", 0), 0)
          .cell(w->number_or("mean", 0), 4)
          .cell(w->number_or("max", 0), 4)
          .cell(w->number_or("rate", 0), 3)
          .cell(w->number_or("ewma", 0), 4);
    } else {
      row.cell("-").cell("-").cell("-").cell("-").cell("-");
    }
  }

  // Episodes and truth windows keep their true extents but only render
  // when they intersect [since, until]; widen() sees the clamped values
  // so the axis never stretches past the requested range.
  const auto clamp = [&](Seconds t) { return opt.window.clamp(t); };
  std::vector<TimelineEpisode> detections;
  if (const JsonValue* dets = doc.find("detections")) {
    for (const JsonValue& d : dets->items()) {
      TimelineEpisode e;
      e.src = static_cast<int>(d.number_or("src", -1));
      e.dst = static_cast<int>(d.number_or("dst", -1));
      e.kind = d.string_or("kind", "latency");
      e.onset = d.number_or("onset", 0);
      e.detect = d.number_or("detect", 0);
      e.end = end_or_inf(d);
      e.severity = d.number_or("severity", 0);
      e.confidence = d.number_or("confidence", 0);
      if (!opt.window.intersects(e.onset, e.end)) continue;
      widen(clamp(e.onset));
      widen(clamp(e.detect));
      widen(clamp(e.end));
      detections.push_back(e);
    }
  }
  std::vector<TimelineTruth> truth;
  if (const JsonValue* tw = doc.find("truth")) {
    for (const JsonValue& t : tw->items()) {
      TimelineTruth w;
      w.src = static_cast<int>(t.number_or("src", -1));
      w.dst = static_cast<int>(t.number_or("dst", -1));
      w.start = t.number_or("start", 0);
      w.end = end_or_inf(t);
      const JsonValue* down = t.find("down");
      w.down = down != nullptr && down->is_bool() && down->as_bool();
      if (!opt.window.intersects(w.start, w.end)) continue;
      widen(clamp(w.start));
      widen(clamp(w.end));
      truth.push_back(w);
    }
  }
  for (const TimelineEpisode& e : detections)
    lane_events[{-1, e.src, e.dst}].push_back(&e);
  for (const TimelineTruth& w : truth)
    lane_truth[{-1, w.src, w.dst}].push_back(&w);

  print_banner(std::cout, "series (window over trailing " +
                              format_double(doc.number_or("window_seconds", 0),
                                            1) +
                              " s)");
  summary.print(std::cout);
  std::cout << "\n";

  if (std::isfinite(t_min) && t_max > t_min) {
    // One lane block per link on a shared time axis. The value lane is a
    // per-bucket-mean sparkline of the chosen metric; the detect lane
    // paints open episodes ('~' latency, 'X' down); the truth lane paints
    // the injected windows ('=' degradation, '#' outage). A detect lane
    // that lags or overhangs its truth lane *is* the detector's latency
    // and false-alarm picture.
    std::map<Link, bool> links;
    for (const auto& [link, unused] : points) links[link] = true;
    for (const auto& [link, unused] : migration_points) links[link] = true;
    for (const auto& [link, unused] : lane_events) links[link] = true;
    for (const auto& [link, unused] : lane_truth) links[link] = true;

    const Seconds span = t_max - t_min;
    const auto column = [&](Seconds t) {
      const int c = static_cast<int>((t - t_min) / span * width);
      return std::min(width - 1, std::max(0, c));
    };
    // Nine levels, none of them a space: a bucket with data is always
    // visibly distinct from a bucket with none.
    static const char kLevels[] = ".:-=+*#%@";

    print_banner(std::cout, "lanes  t in [" + format_double(t_min, 3) + ", " +
                                format_double(t_max, 3) + "] s  (" +
                                series_name +
                                " | detect: ~ latency, X down | truth: = "
                                "degraded, # outage | migrate: state bytes)");
    for (const auto& [link, unused] : links) {
      const auto& [lane_tenant, lane_src, lane_dst] = link;
      if (lane_tenant >= 0) std::cout << "t" << lane_tenant << " ";
      std::cout << "link " << lane_src << "->" << lane_dst << "\n";

      const auto pit = points.find(link);
      if (pit != points.end() && !pit->second.empty()) {
        std::vector<double> sum(static_cast<std::size_t>(width), 0);
        std::vector<int> count(static_cast<std::size_t>(width), 0);
        double vmin = std::numeric_limits<double>::infinity();
        double vmax = -std::numeric_limits<double>::infinity();
        for (const obs::TimePoint& p : pit->second) {
          const auto c = static_cast<std::size_t>(column(p.t));
          sum[c] += p.value;
          count[c] += 1;
          vmin = std::min(vmin, p.value);
          vmax = std::max(vmax, p.value);
        }
        std::string lane(static_cast<std::size_t>(width), ' ');
        for (std::size_t c = 0; c < lane.size(); ++c) {
          if (count[c] == 0) continue;
          const double mean = sum[c] / count[c];
          const double norm =
              vmax > vmin ? (mean - vmin) / (vmax - vmin) : 0.5;
          const auto level = static_cast<std::size_t>(norm * 8.0 + 0.5);
          lane[c] = kLevels[std::min<std::size_t>(8, level)];
        }
        std::cout << "  value  |" << lane << "|  min "
                  << format_double(vmin, 3) << "  max "
                  << format_double(vmax, 3) << "\n";
      }

      const auto eit = lane_events.find(link);
      std::string detect_lane(static_cast<std::size_t>(width), ' ');
      if (eit != lane_events.end()) {
        for (const TimelineEpisode* e : eit->second) {
          const int from = column(e->onset);
          const int to = column(std::isfinite(e->end) ? e->end : t_max);
          const char mark = e->kind == "down" ? 'X' : '~';
          for (int c = from; c <= to; ++c)
            detect_lane[static_cast<std::size_t>(c)] = mark;
        }
      }
      std::cout << "  detect |" << detect_lane << "|\n";

      const auto tit = lane_truth.find(link);
      std::string truth_lane(static_cast<std::size_t>(width), ' ');
      if (tit != lane_truth.end()) {
        for (const TimelineTruth* w : tit->second) {
          const int from = column(w->start);
          const int to = column(std::isfinite(w->end) ? w->end : t_max);
          const char mark = w->down ? '#' : '=';
          for (int c = from; c <= to; ++c)
            truth_lane[static_cast<std::size_t>(c)] = mark;
        }
      }
      std::cout << "  truth  |" << truth_lane << "|\n";

      // Migration lane: per-bucket *sum* of migration.bytes chunk
      // completions (bytes are additive, unlike the mean-bucketed metric
      // lane), scaled to the busiest bucket. Read against the truth lane
      // above it, this shows whether state copies dodged the injected
      // fault windows or ploughed straight through them.
      const auto mit = migration_points.find(link);
      if (mit != migration_points.end() && !mit->second.empty()) {
        std::vector<double> bytes(static_cast<std::size_t>(width), 0);
        double total = 0;
        for (const obs::TimePoint& p : mit->second) {
          bytes[static_cast<std::size_t>(column(p.t))] += p.value;
          total += p.value;
        }
        const double peak = *std::max_element(bytes.begin(), bytes.end());
        std::string lane(static_cast<std::size_t>(width), ' ');
        for (std::size_t c = 0; c < lane.size(); ++c) {
          if (bytes[c] <= 0) continue;
          const double norm = peak > 0 ? bytes[c] / peak : 0.0;
          const auto level = static_cast<std::size_t>(norm * 8.0 + 0.5);
          lane[c] = kLevels[std::min<std::size_t>(8, level)];
        }
        std::cout << "  migrate|" << lane << "|  total "
                  << format_double(total / (1024.0 * 1024.0), 2) << " MiB in "
                  << mit->second.size() << " chunks\n";
      }
    }

    // Mapper progress lanes: completed fraction (0..1) per bucket, the
    // bucket's latest point winning (progress is monotone). A long order
    // search reads as the ramp from '.' to '@'.
    for (const auto& [key, pts] : progress_points) {
      std::vector<double> latest_t(static_cast<std::size_t>(width), -1);
      std::vector<double> value(static_cast<std::size_t>(width), 0);
      for (const obs::TimePoint& p : pts) {
        const auto c = static_cast<std::size_t>(column(p.t));
        if (p.t >= latest_t[c]) {
          latest_t[c] = p.t;
          value[c] = p.value;
        }
      }
      std::string lane(static_cast<std::size_t>(width), ' ');
      for (std::size_t c = 0; c < lane.size(); ++c) {
        if (latest_t[c] < 0) continue;
        const double norm = std::min(1.0, std::max(0.0, value[c]));
        const auto level = static_cast<std::size_t>(norm * 8.0 + 0.5);
        lane[c] = kLevels[std::min<std::size_t>(8, level)];
      }
      const double last = pts.empty() ? 0.0 : pts.back().value;
      std::cout << key << "\n  progres|" << lane << "|  "
                << pts.size() << " heartbeats, last "
                << format_double(100.0 * last, 1) << " %\n";
    }
    std::cout << "\n";
  }

  if (!detections.empty()) {
    Table table({"link", "kind", "onset", "detect", "end", "severity",
                 "confidence"});
    for (const TimelineEpisode& e : detections) {
      table.row()
          .cell(std::to_string(e.src) + "->" + std::to_string(e.dst))
          .cell(e.kind)
          .cell(e.onset, 3)
          .cell(e.detect, 3)
          .cell(format_end(e.end))
          .cell(e.severity, 2)
          .cell(e.confidence, 2);
    }
    print_banner(std::cout, "detections");
    table.print(std::cout);
    std::cout << "\n";
  }
  if (!truth.empty()) {
    Table table({"link", "start", "end", "kind"});
    for (const TimelineTruth& w : truth) {
      table.row()
          .cell(std::to_string(w.src) + "->" + std::to_string(w.dst))
          .cell(w.start, 3)
          .cell(format_end(w.end))
          .cell(w.down ? "outage" : "degraded");
    }
    print_banner(std::cout, "ground-truth fault windows");
    table.print(std::cout);
    std::cout << "\n";
  }
  if (const JsonValue* score = doc.find("score")) {
    print_banner(std::cout, "detection score");
    std::cout << "precision: " << format_double(score->number_or("precision", 0), 3)
              << "  recall: " << format_double(score->number_or("recall", 0), 3)
              << "  mean detection latency: "
              << format_double(score->number_or("mean_detection_latency", 0), 3)
              << " s\n"
              << "events: " << score->number_or("true_positive_events", 0)
              << " true positive, "
              << score->number_or("false_positive_events", 0)
              << " false positive; windows: "
              << score->number_or("detected_windows", 0) << " detected, "
              << score->number_or("missed_windows", 0) << " missed\n";
  }
  return 0;
}

int cmd_timeline(const std::vector<std::string>& args) {
  std::string path;
  TimelineOptions opt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--series" && i + 1 < args.size()) {
      opt.series_name = args[++i];
    } else if (args[i] == "--width" && i + 1 < args.size()) {
      opt.width = std::stoi(args[++i]);
    } else if (args[i] == "--since" && i + 1 < args.size()) {
      opt.window.since = std::stod(args[++i]);
    } else if (args[i] == "--until" && i + 1 < args.size()) {
      opt.window.until = std::stod(args[++i]);
    } else if (path.empty() && args[i].rfind("--", 0) != 0) {
      path = args[i];
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (path.empty() || opt.width < 8 || opt.window.empty())
    return usage(std::cerr, 2);
  return render_timeline(parse_json_file(path), opt);
}

// ---------------------------------------------------------------------------
// events / slo / watch

std::vector<obs::Event> load_events(const std::string& path) {
  std::ifstream is(path);
  GEOMAP_CHECK_MSG(is.good(), "cannot open " << path);
  return obs::read_events_jsonl(is);
}

struct EventFilter {
  std::string component;  // empty = any
  std::string name;       // empty = any
  obs::EventSeverity min_severity = obs::EventSeverity::kDebug;
  // Shares obs::TimeWindow with `timeline`: inclusive on both ends.
  obs::TimeWindow window;

  bool matches(const obs::Event& e) const {
    if (!component.empty() && e.component != component) return false;
    if (!name.empty() && e.name != name) return false;
    if (static_cast<int>(e.severity) < static_cast<int>(min_severity))
      return false;
    return window.contains(e.t);
  }
};

std::string format_event_fields(const obs::Event& e) {
  std::string out;
  for (const obs::EventField& f : e.fields) {
    if (!out.empty()) out += "  ";
    out += f.key + "=";
    switch (f.kind) {
      case obs::EventField::Kind::kInt:
        out += std::to_string(f.int_value);
        break;
      case obs::EventField::Kind::kDouble:
        out += format_double(f.double_value, 6);
        break;
      case obs::EventField::Kind::kString:
        out += f.string_value;
        break;
      case obs::EventField::Kind::kBool:
        out += f.bool_value ? "true" : "false";
        break;
    }
  }
  return out;
}

void print_event_line(const obs::Event& e) {
  std::cout << "#" << e.seq << "  t=" << format_double(e.t, 3) << "  ["
            << obs::to_string(e.severity) << "]  " << e.component << "/"
            << e.name << "  " << format_event_fields(e) << "\n";
}

int cmd_events(const std::vector<std::string>& args) {
  std::string path;
  EventFilter filter;
  bool as_json = false;
  bool follow = false;
  double interval = 2.0;
  int iterations = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--component" && i + 1 < args.size()) {
      filter.component = args[++i];
    } else if (args[i] == "--event" && i + 1 < args.size()) {
      filter.name = args[++i];
    } else if (args[i] == "--severity" && i + 1 < args.size()) {
      filter.min_severity = obs::parse_event_severity(args[++i]);
    } else if (args[i] == "--since" && i + 1 < args.size()) {
      filter.window.since = std::stod(args[++i]);
    } else if (args[i] == "--until" && i + 1 < args.size()) {
      filter.window.until = std::stod(args[++i]);
    } else if (args[i] == "--json") {
      as_json = true;
    } else if (args[i] == "--follow") {
      follow = true;
    } else if (args[i] == "--interval" && i + 1 < args.size()) {
      interval = std::stod(args[++i]);
    } else if (args[i] == "--iterations" && i + 1 < args.size()) {
      iterations = std::stoi(args[++i]);
    } else if (path.empty() && args[i].rfind("--", 0) != 0) {
      path = args[i];
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (path.empty() || filter.window.empty() || interval <= 0)
    return usage(std::cerr, 2);

  if (!follow) {
    const std::vector<obs::Event> events = load_events(path);
    std::size_t matched = 0;
    for (const obs::Event& e : events) {
      if (!filter.matches(e)) continue;
      ++matched;
      if (as_json) {
        std::cout << obs::event_to_json(e) << "\n";
      } else {
        print_event_line(e);
      }
    }
    if (!as_json) {
      std::cout << matched << " / " << events.size() << " events matched\n";
    }
    return 0;
  }

  // Follow mode: the exporter republishes the whole artifact atomically
  // (tmp + rename), so each poll re-reads it and the cursor keeps only
  // events past the last sequence number seen. A missing or half-born
  // file just means "nothing yet".
  obs::FollowCursor cursor;
  for (int tick = 1;; ++tick) {
    try {
      for (const obs::Event& e : cursor.take_new(load_events(path))) {
        if (!filter.matches(e)) continue;
        if (as_json) {
          std::cout << obs::event_to_json(e) << "\n";
        } else {
          print_event_line(e);
        }
      }
      std::cout.flush();
    } catch (const std::exception&) {
      // Not written yet (or mid-rename): keep polling.
    }
    if (iterations > 0 && tick >= iterations) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long long>(interval * 1000)));
  }
  return 0;
}

int cmd_slo(const std::vector<std::string>& args) {
  std::string path;
  std::string spec_path;
  bool as_json = false;
  bool gate = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--spec" && i + 1 < args.size()) {
      spec_path = args[++i];
    } else if (args[i] == "--json") {
      as_json = true;
    } else if (args[i] == "--gate") {
      gate = true;
    } else if (path.empty() && args[i].rfind("--", 0) != 0) {
      path = args[i];
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (path.empty()) return usage(std::cerr, 2);

  const std::vector<obs::Event> events = load_events(path);
  const std::vector<obs::SloSpec> specs =
      spec_path.empty() ? obs::default_slo_specs()
                        : obs::slo_specs_from_json(parse_json_file(spec_path));
  const obs::SloReport report = obs::evaluate_slos(events, specs);

  if (as_json) {
    obs::write_slo_json(std::cout, report);
    std::cout << "\n";
  } else {
    Table table({"slo", "objective", "threshold", "events", "good", "bad",
                 "compliance", "burn", "worst", "status"});
    for (const obs::SloResult& r : report.slos) {
      table.row()
          .cell(r.spec.name)
          .cell(r.spec.objective, 3)
          .cell(r.spec.threshold, 3)
          .cell(static_cast<long long>(r.events))
          .cell(static_cast<long long>(r.good))
          .cell(static_cast<long long>(r.bad))
          .cell(r.compliance, 4)
          .cell(r.burn, 3)
          .cell(r.worst, 3)
          .cell(r.ok ? "ok" : "BUDGET BLOWN");
    }
    table.print(std::cout);
    std::cout << (report.ok ? "all SLOs within budget"
                            : "error budget exceeded")
              << " (" << events.size() << " events evaluated)\n";
  }
  if (gate) return report.ok ? 0 : 1;
  return 0;
}

// ---------------------------------------------------------------------------
// incidents / explain

/// Resolved input for incidents/explain. The incident set always loads;
/// the event stream rides along when the input carries one (an SLO
/// target needs events to evaluate compliance).
struct IncidentInput {
  obs::IncidentsArtifact artifact;
  std::vector<obs::Event> events;
  bool has_events = false;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// An obs-dir prefers its exported incidents.json (which carries the
/// attribution score) and falls back to deriving incidents from
/// events.jsonl; a bare .jsonl always derives. Deriving re-runs
/// build_incidents, so a multi-case stream whose per-case slices are no
/// longer contiguous is best-effort — the export is authoritative.
IncidentInput load_incident_input(const std::string& path) {
  IncidentInput in;
  if (std::filesystem::is_directory(path)) {
    const std::string ev = path + "/events.jsonl";
    if (std::filesystem::exists(ev)) {
      in.events = load_events(ev);
      in.has_events = true;
    }
    const std::string inc = path + "/incidents.json";
    if (std::filesystem::exists(inc)) {
      in.artifact = obs::incidents_from_json(parse_json_file(inc));
    } else if (in.has_events) {
      in.artifact.incidents = obs::build_incidents(in.events);
    } else {
      GEOMAP_CHECK_MSG(false, "no incidents.json or events.jsonl in "
                                  << path);
    }
    return in;
  }
  if (ends_with(path, ".jsonl")) {
    in.events = load_events(path);
    in.has_events = true;
    in.artifact.incidents = obs::build_incidents(in.events);
    return in;
  }
  in.artifact = obs::incidents_from_json(parse_json_file(path));
  return in;
}

std::string format_blame_site(const obs::BlameVerdict& b) {
  return b.site < 0 ? std::string("-") : "site " + std::to_string(b.site);
}

std::string format_blame_link(const obs::BlameVerdict& b) {
  return b.link_src < 0 ? std::string("-")
                        : std::to_string(b.link_src) + "->" +
                              std::to_string(b.link_dst);
}

void print_attribution(const obs::AttributionTotals& t) {
  print_banner(std::cout, "attribution vs seeded truth");
  std::cout << "precision: " << format_double(t.precision(), 3)
            << " (" << t.correctly_blamed << "/" << t.blamed
            << " verdicts corroborated)  recall: "
            << format_double(t.recall(), 3) << " (" << t.attributed << "/"
            << t.episodes << " episodes attributed)\n"
            << "mean onset error: "
            << format_double(t.mean_onset_error(), 3) << " s over "
            << t.onset_error_samples << " samples; " << t.cases
            << " cases, " << t.incidents << " incidents\n";
}

int cmd_incidents(const std::vector<std::string>& args) {
  std::string path;
  bool as_json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      as_json = true;
    } else if (path.empty() && args[i].rfind("--", 0) != 0) {
      path = args[i];
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (path.empty()) return usage(std::cerr, 2);

  const IncidentInput in = load_incident_input(path);
  if (as_json) {
    obs::write_incidents_json(
        std::cout, in.artifact.incidents,
        in.artifact.has_totals ? &in.artifact.totals : nullptr);
    std::cout << "\n";
    return 0;
  }

  Table table({"id", "seed", "start", "end", "dur s", "blame", "link",
               "tenant", "conf", "dominant", "slo burn", "violated"});
  for (const obs::Incident& inc : in.artifact.incidents) {
    std::string violated;
    for (const std::string& s : inc.violated_slos) {
      if (!violated.empty()) violated += ",";
      violated += s;
    }
    table.row()
        .cell(inc.id)
        .cell(inc.has_case_seed ? std::to_string(inc.case_seed)
                                : std::string("-"))
        .cell(inc.start, 3)
        .cell(inc.end, 3)
        .cell(inc.duration(), 3)
        .cell(format_blame_site(inc.blame))
        .cell(format_blame_link(inc.blame))
        .cell(inc.blame.tenant < 0 ? std::string("-")
                                   : std::to_string(inc.blame.tenant))
        .cell(inc.blame.confidence, 2)
        .cell(inc.blame.dominant_stage)
        .cell(inc.slo_burn, 3)
        .cell(violated);
  }
  print_banner(std::cout, std::to_string(in.artifact.incidents.size()) +
                              " incidents");
  table.print(std::cout);
  std::cout << "\n";
  if (in.artifact.has_totals) print_attribution(in.artifact.totals);
  return 0;
}

/// One incident's causal chain: a proportional stage bar (detect 'd',
/// queue 'q', migrate 'm', residual 'r'; the dominant stage upper-cased)
/// over the incident's [start, end], then the per-stage latency budget.
/// The stages telescope, so the budget rows re-fold to the duration.
void render_incident_chain(const obs::Incident& inc, int width) {
  std::cout << inc.id;
  if (inc.has_case_seed) std::cout << "  seed " << inc.case_seed;
  std::cout << "  t in [" << format_double(inc.start, 3) << ", "
            << format_double(inc.end, 3) << "]  ("
            << format_double(inc.duration(), 3) << " s)\n";
  std::cout << "  blame: " << format_blame_site(inc.blame);
  if (inc.blame.link_src >= 0)
    std::cout << "  link " << format_blame_link(inc.blame);
  if (inc.blame.tenant >= 0) std::cout << "  tenant " << inc.blame.tenant;
  std::cout << "  confidence " << format_double(inc.blame.confidence, 2)
            << "  dominant " << inc.blame.dominant_stage << "\n";

  const Seconds dur = inc.duration();
  if (dur > 0) {
    std::string bar(static_cast<std::size_t>(width), ' ');
    for (std::size_t c = 0; c < bar.size(); ++c) {
      const Seconds t =
          inc.start + (static_cast<double>(c) + 0.5) / width * dur;
      for (const obs::StageBudget& s : inc.stages) {
        if (t < s.start || t > s.end || s.seconds() <= 0) continue;
        char mark = s.name.empty() ? '?' : s.name[0];
        if (s.name == inc.blame.dominant_stage)
          mark = static_cast<char>(std::toupper(mark));
        bar[c] = mark;
        break;
      }
    }
    std::cout << "  |" << bar << "|\n";
  } else {
    std::cout << "  (zero-length incident: every stage collapsed onto "
                 "one instant)\n";
  }

  Table stages({"stage", "start", "end", "seconds", "share %", "metric",
                "events"});
  for (const obs::StageBudget& s : inc.stages) {
    const bool dominant = s.name == inc.blame.dominant_stage;
    stages.row()
        .cell(dominant ? s.name + " *" : s.name)
        .cell(s.start, 3)
        .cell(s.end, 3)
        .cell(s.seconds(), 3)
        .cell(dur > 0 ? 100.0 * s.seconds() / dur : 0.0, 1)
        .cell(s.metric, 3)
        .cell(static_cast<long long>(s.events));
  }
  stages.print(std::cout);
  std::cout << "  counts: " << inc.counts.onsets << " onsets, "
            << inc.counts.grants << " grants, " << inc.counts.requeues
            << " requeues, " << inc.counts.give_ups << " give-ups, "
            << inc.counts.commits << " commits, " << inc.counts.rollbacks
            << " rollbacks;  slo burn "
            << format_double(inc.slo_burn, 3) << "\n\n";
}

int cmd_explain(const std::vector<std::string>& args) {
  std::string path;
  std::string target;
  int width = 48;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--width" && i + 1 < args.size()) {
      width = std::stoi(args[++i]);
    } else if (args[i].rfind("--", 0) != 0) {
      if (path.empty()) {
        path = args[i];
      } else if (target.empty()) {
        target = args[i];
      } else {
        return usage(std::cerr, 2);
      }
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (path.empty() || target.empty() || width < 8)
    return usage(std::cerr, 2);

  const IncidentInput in = load_incident_input(path);

  // An incident id names exactly one chain.
  if (target.rfind("inc-", 0) == 0) {
    for (const obs::Incident& inc : in.artifact.incidents) {
      if (inc.id != target) continue;
      render_incident_chain(inc, width);
      return 0;
    }
    std::cerr << "geomap-obsctl: no incident '" << target << "' among "
              << in.artifact.incidents.size() << " incidents\n";
    return 2;
  }

  // An SLO name renders the chain of every incident implicated in it.
  // Compliance is evaluated over the event stream, so an incidents.json
  // alone cannot answer "did it blow?".
  if (!in.has_events) {
    std::cerr << "geomap-obsctl: explaining SLO '" << target
              << "' needs an event stream (pass an obs-dir or "
                 "events.jsonl)\n";
    return 2;
  }
  const obs::SloReport report =
      obs::evaluate_slos(in.events, obs::default_slo_specs());
  const obs::SloResult* result = nullptr;
  for (const obs::SloResult& r : report.slos) {
    if (r.spec.name == target) result = &r;
  }
  if (result == nullptr) {
    std::cerr << "geomap-obsctl: unknown SLO '" << target << "' (have:";
    for (const obs::SloResult& r : report.slos)
      std::cerr << " " << r.spec.name;
    std::cerr << ")\n";
    return 2;
  }

  print_banner(std::cout, "slo " + target);
  std::cout << "compliance " << format_double(result->compliance, 4)
            << " vs objective " << format_double(result->spec.objective, 3)
            << "  burn " << format_double(result->burn, 3) << "  "
            << (result->ok ? "ok" : "BUDGET BLOWN") << "\n\n";

  std::size_t implicated = 0;
  for (const obs::Incident& inc : in.artifact.incidents) {
    if (std::find(inc.violated_slos.begin(), inc.violated_slos.end(),
                  target) == inc.violated_slos.end())
      continue;
    ++implicated;
    render_incident_chain(inc, width);
  }
  if (implicated == 0) {
    std::cout << (result->ok
                      ? "no incident implicates this SLO (it held)\n"
                      : "no incident implicates this SLO — the incident "
                        "set may be stale relative to the events\n");
  }
  return result->ok ? 0 : 1;
}

int cmd_watch(const std::vector<std::string>& args) {
  std::string dir;
  double interval = 2.0;
  int iterations = 0;
  int tail = 8;
  // Same severity vocabulary and parser as `events --severity`.
  obs::EventSeverity min_severity = obs::EventSeverity::kDebug;
  TimelineOptions tl;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--interval" && i + 1 < args.size()) {
      interval = std::stod(args[++i]);
    } else if (args[i] == "--iterations" && i + 1 < args.size()) {
      iterations = std::stoi(args[++i]);
    } else if (args[i] == "--once") {
      // One render, no sleep — the form CI and the recovery quickstart
      // use to snapshot a directory without tailing it.
      iterations = 1;
    } else if (args[i] == "--series" && i + 1 < args.size()) {
      tl.series_name = args[++i];
    } else if (args[i] == "--width" && i + 1 < args.size()) {
      tl.width = std::stoi(args[++i]);
    } else if (args[i] == "--tail" && i + 1 < args.size()) {
      tail = std::stoi(args[++i]);
    } else if (args[i] == "--severity" && i + 1 < args.size()) {
      min_severity = obs::parse_event_severity(args[++i]);
    } else if (dir.empty() && args[i].rfind("--", 0) != 0) {
      dir = args[i];
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (dir.empty() || interval <= 0 || tl.width < 8 || tail < 0)
    return usage(std::cerr, 2);

  // Every tick re-reads whatever artifacts exist right now. The bench
  // side publishes via tmp + rename, so a read is all-or-nothing; each
  // artifact that is missing (or mid-checkpoint) renders as `pending`
  // on its own — one absent file never blanks the sections the other
  // artifacts can still fill.
  for (int tick = 1;; ++tick) {
    print_banner(std::cout, "watch " + dir + "  tick " +
                                std::to_string(tick));
    try {
      const std::vector<obs::Event> events =
          load_events(dir + "/events.jsonl");
      int by_severity[4] = {0, 0, 0, 0};
      for (const obs::Event& e : events)
        by_severity[static_cast<int>(e.severity)] += 1;
      std::cout << "events: " << events.size() << " retained ("
                << by_severity[3] << " error, " << by_severity[2]
                << " warn, " << by_severity[1] << " info, " << by_severity[0]
                << " debug)\n";
      std::vector<const obs::Event*> shown;
      for (const obs::Event& e : events) {
        if (static_cast<int>(e.severity) >= static_cast<int>(min_severity))
          shown.push_back(&e);
      }
      const std::size_t from =
          shown.size() > static_cast<std::size_t>(tail)
              ? shown.size() - static_cast<std::size_t>(tail)
              : 0;
      for (std::size_t i = from; i < shown.size(); ++i)
        print_event_line(*shown[i]);

      const obs::SloReport slo =
          obs::evaluate_slos(events, obs::default_slo_specs());
      std::cout << "slo:";
      for (const obs::SloResult& r : slo.slos) {
        std::cout << "  " << r.spec.name << " burn="
                  << format_double(r.burn, 2) << (r.ok ? "" : " BLOWN");
      }
      std::cout << "\n";
    } catch (const std::exception& e) {
      std::cout << "events.jsonl: pending (" << e.what() << ")\n";
    }
    try {
      render_timeline(parse_json_file(dir + "/timeline.json"), tl);
    } catch (const std::exception&) {
      std::cout << "timeline.json: pending\n";
    }
    try {
      const obs::IncidentsArtifact inc =
          obs::incidents_from_json(parse_json_file(dir + "/incidents.json"));
      std::cout << "incidents: " << inc.incidents.size();
      if (inc.has_totals) {
        std::cout << "  (precision "
                  << format_double(inc.totals.precision(), 3) << ", recall "
                  << format_double(inc.totals.recall(), 3) << ")";
      }
      std::cout << "\n";
      const std::size_t from =
          inc.incidents.size() > static_cast<std::size_t>(tail)
              ? inc.incidents.size() - static_cast<std::size_t>(tail)
              : 0;
      for (std::size_t i = from; i < inc.incidents.size(); ++i) {
        const obs::Incident& x = inc.incidents[i];
        std::cout << "  " << x.id << "  [" << format_double(x.start, 3)
                  << ", " << format_double(x.end, 3) << "]  "
                  << format_blame_site(x.blame) << "  dominant "
                  << x.blame.dominant_stage << "\n";
      }
    } catch (const std::exception&) {
      std::cout << "incidents.json: pending\n";
    }
    std::cout.flush();
    if (iterations > 0 && tick >= iterations) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long long>(interval * 1000)));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// wal

int cmd_wal(const std::vector<std::string>& args) {
  std::string dir;
  bool verify = false;
  bool json = false;
  int tail = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--verify") {
      verify = true;
    } else if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--tail" && i + 1 < args.size()) {
      tail = std::stoi(args[++i]);
    } else if (dir.empty() && args[i].rfind("--", 0) != 0) {
      dir = args[i];
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (dir.empty() || tail < 0) return usage(std::cerr, 2);

  recover::WalRecovery rec;
  recover::RecoveredControlPlane rcp;
  try {
    rec = recover::read_wal(dir);
    rcp = recover::replay_wal(rec.records);
  } catch (const recover::WalCorrupt& e) {
    // Same meaning as malformed JSON elsewhere: the artifact exists but
    // cannot be trusted.
    std::cerr << "geomap-obsctl: " << e.what() << "\n";
    return 3;
  }

  std::map<std::string, int> counts;
  for (const recover::WalRecord& r : rec.records)
    counts[recover::to_string(r.type)] += 1;
  const std::vector<std::string> violations =
      verify ? recover::check_recovery_invariants(rec.records)
             : std::vector<std::string>{};

  if (json) {
    JsonWriter w(std::cout);
    w.begin_object();
    w.field("dir", dir);
    w.field("records", static_cast<double>(rec.records.size()));
    w.field("segments_read", rec.segments_read);
    w.field("dropped_torn", rec.dropped_torn);
    w.field("next_lsn", static_cast<double>(rec.next_lsn));
    w.field("has_run", rcp.has_run);
    if (rcp.has_run) {
      w.key("run").begin_object();
      w.field("seed", static_cast<double>(rcp.run.seed));
      w.field("tenants", rcp.run.tenants);
      w.field("sites", rcp.run.sites);
      w.field("policy", rcp.run.policy);
      w.end_object();
    }
    w.field("run_complete", rcp.run_complete);
    w.field("recoveries", rcp.recoveries);
    w.field("grants", static_cast<double>(rcp.grants.size()));
    w.field("has_interrupted", rcp.has_interrupted);
    w.field("interrupted_prefix_records",
            static_cast<double>(rcp.interrupted_prefix.size()));
    w.key("counts").begin_object();
    for (const auto& [name, n] : counts) w.field(name, n);
    w.end_object();
    if (verify) {
      w.key("violations").begin_array();
      for (const std::string& v : violations) w.value(v);
      w.end_array();
    }
    w.end_object();
    std::cout << "\n";
  } else {
    std::cout << "wal " << dir << ": " << rec.records.size()
              << " records in " << rec.segments_read << " segment(s), "
              << rec.dropped_torn << " torn line(s) dropped, next lsn "
              << rec.next_lsn << "\n";
    if (rcp.has_run) {
      std::cout << "run: seed " << rcp.run.seed << ", " << rcp.run.tenants
                << " tenants, " << rcp.run.sites << " sites, policy "
                << rcp.run.policy << " — "
                << (rcp.run_complete ? "complete" : "incomplete") << ", "
                << rcp.recoveries << " prior recover"
                << (rcp.recoveries == 1 ? "y" : "ies") << ", "
                << rcp.grants.size() << " durable grant(s)\n";
    } else {
      std::cout << "run: none (empty or pre-run_begin log)\n";
    }
    if (rcp.has_interrupted) {
      std::cout << "interrupted: tenant "
                << rcp.grants.back().grant.tenant << " mid-grant with "
                << rcp.interrupted_prefix.size()
                << " durable journal record(s)\n";
    }
    std::cout << "records by type:\n";
    for (const auto& [name, n] : counts)
      std::cout << "  " << name << " " << n << "\n";
    if (tail > 0) {
      const std::size_t from =
          rec.records.size() > static_cast<std::size_t>(tail)
              ? rec.records.size() - static_cast<std::size_t>(tail)
              : 0;
      std::cout << "tail:\n";
      for (std::size_t i = from; i < rec.records.size(); ++i) {
        const recover::WalRecord& r = rec.records[i];
        std::string payload = r.payload;
        if (payload.size() > 96) payload = payload.substr(0, 93) + "...";
        std::cout << "  " << r.lsn << " " << recover::to_string(r.type)
                  << " t=" << format_double(r.t, 3) << " " << payload
                  << "\n";
      }
    }
    if (verify) {
      if (violations.empty()) {
        std::cout << "verify: clean\n";
      } else {
        std::cout << "verify: " << violations.size() << " violation(s)\n";
        for (const std::string& v : violations)
          std::cout << "  " << v << "\n";
      }
    }
  }
  return verify && !violations.empty() ? 1 : 0;
}

// ---------------------------------------------------------------------------
// diff / check

std::vector<std::string> split_patterns(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t from = 0;
  while (from <= csv.size()) {
    const std::size_t comma = csv.find(',', from);
    const std::string part = csv.substr(
        from, comma == std::string::npos ? std::string::npos : comma - from);
    if (!part.empty()) out.push_back(part);
    if (comma == std::string::npos) break;
    from = comma + 1;
  }
  return out;
}

int cmd_compare(const std::vector<std::string>& args, bool gate,
                std::vector<std::string> default_watch = {
                    "runs.*.analysis.makespan_seconds",
                    "runs.*.analysis.components.*"}) {
  std::vector<std::string> paths;
  obs::RegressOptions options;
  options.watch = std::move(default_watch);
  bool all_rows = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threshold" && i + 1 < args.size()) {
      options.threshold = std::stod(args[++i]) / 100.0;
    } else if (args[i] == "--watch" && i + 1 < args.size()) {
      options.watch = split_patterns(args[++i]);
    } else if (args[i] == "--all") {
      all_rows = true;
    } else if (args[i].rfind("--", 0) != 0) {
      paths.push_back(args[i]);
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (paths.size() != 2) return usage(std::cerr, 2);

  const JsonValue baseline = parse_json_file(paths[0]);
  const JsonValue current = parse_json_file(paths[1]);
  const obs::RegressReport report =
      obs::compare_artifacts(baseline, current, options);

  // One-side-only keys become rows too — with the value they have on the
  // side that knows it, looked up from the flattened leaves.
  const auto base_flat = obs::flatten_numeric(baseline);
  const auto cur_flat = obs::flatten_numeric(current);
  const auto lookup = [](const std::vector<std::pair<std::string, double>>& flat,
                         const std::string& key) {
    const auto it = std::lower_bound(
        flat.begin(), flat.end(), key,
        [](const std::pair<std::string, double>& leaf,
           const std::string& k) { return leaf.first < k; });
    return it != flat.end() && it->first == key ? it->second : 0.0;
  };

  Table table({"key", "baseline", "current", "delta", "delta %", "status"});
  for (const obs::RegressRow& row : report.rows) {
    if (!all_rows && row.delta == 0 && !row.regressed) continue;
    table.row()
        .cell(row.key)
        .cell(row.baseline, 6)
        .cell(row.current, 6)
        .cell(row.delta, 6)
        .cell(row.delta_pct, 2)
        .cell(row.regressed ? "REGRESSED" : (row.watched ? "ok" : "info"));
  }
  for (const std::string& key : report.missing) {
    table.row()
        .cell(key)
        .cell(lookup(base_flat, key), 6)
        .cell("-")
        .cell("-")
        .cell("-")
        .cell("removed");
  }
  for (const std::string& key : report.added) {
    table.row()
        .cell(key)
        .cell("-")
        .cell(lookup(cur_flat, key), 6)
        .cell("-")
        .cell("-")
        .cell("added");
  }
  if (table.num_rows() > 0) {
    table.print(std::cout);
  } else {
    std::cout << "no differences ("
              << report.rows.size() << " keys compared)\n";
  }

  if (gate) {
    if (report.failed) {
      std::cout << "FAIL: regression past "
                << format_double(options.threshold * 100.0, 1)
                << "% threshold\n";
      return 1;
    }
    std::cout << "PASS: no watched leaf regressed past "
              << format_double(options.threshold * 100.0, 1)
              << "% threshold\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// profile

std::string format_bytes(double bytes) {
  if (bytes >= 1024.0 * 1024.0)
    return format_double(bytes / (1024.0 * 1024.0), 2) + " MiB";
  if (bytes >= 1024.0) return format_double(bytes / 1024.0, 1) + " KiB";
  return format_double(bytes, 0) + " B";
}

int cmd_profile(const std::vector<std::string>& args) {
  // `profile diff` is the generic regress engine pointed at profile
  // artifacts: the deterministic leaves (work counters, call counts,
  // instrumented peak bytes) are watched; wall/cpu seconds show as info
  // rows so timing noise never gates.
  if (!args.empty() && args[0] == "diff") {
    std::vector<std::string> rest;
    bool gate = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--gate") gate = true;
      else rest.push_back(args[i]);
    }
    return cmd_compare(rest, gate,
                       {"*.counters.*", "*.calls",
                        "memory.accounts.*.peak_bytes"});
  }

  std::string path;
  int top = 10;
  bool collapse = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top" && i + 1 < args.size()) {
      top = std::stoi(args[++i]);
    } else if (args[i] == "--collapse") {
      collapse = true;
    } else if (path.empty() && args[i].rfind("--", 0) != 0) {
      path = args[i];
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (path.empty()) return usage(std::cerr, 2);

  const JsonValue doc = parse_json_file(path);
  const obs::PhaseSnapshot root = obs::profile_from_json(doc);
  if (collapse) {
    obs::write_collapsed(std::cout, root);
    return 0;
  }
  const bool use_calls = !root.has_time();

  const JsonValue* det = doc.find("deterministic");
  const bool deterministic =
      det != nullptr && det->is_bool() && det->as_bool();
  print_banner(std::cout, "phase tree (inclusive wall/cpu, exclusive wall)");
  if (deterministic)
    std::cout << "deterministic mode: clocks were zeroed; structure, calls "
                 "and counters are the signal\n\n";

  Table phases({"phase", "wall s", "cpu s", "excl s", "excl %", "calls",
                "counters"});
  const double root_wall = root.wall_seconds;
  const auto render = [&](const auto& self, const obs::PhaseSnapshot& n,
                          int depth) -> void {
    std::string counters;
    for (const auto& [key, value] : n.counters) {
      if (!counters.empty()) counters += "  ";
      counters += key + "=" + format_double(static_cast<double>(value), 0);
    }
    phases.row()
        .cell(std::string(static_cast<std::size_t>(depth) * 2, ' ') + n.name)
        .cell(n.wall_seconds, 6)
        .cell(n.cpu_seconds, 6)
        .cell(n.exclusive_seconds(), 6)
        .cell(root_wall > 0 ? 100.0 * n.exclusive_seconds() / root_wall : 0.0,
              1)
        .cell(static_cast<long long>(n.calls))
        .cell(counters);
    for (const obs::PhaseSnapshot& c : n.children) self(self, c, depth + 1);
  };
  render(render, root, 0);
  phases.print(std::cout);

  // The telescoping invariant the profiler promises: per-node exclusive
  // times re-fold exactly to the root's measured wall.
  double refold = 0;
  const auto fold = [&](const auto& self, const obs::PhaseSnapshot& n) -> void {
    refold += n.exclusive_seconds();
    for (const obs::PhaseSnapshot& c : n.children) self(self, c);
  };
  fold(fold, root);
  const double delta_pct =
      root_wall > 0 ? 100.0 * (refold - root_wall) / root_wall : 0.0;
  std::cout << "\nre-fold: sum of exclusive = " << format_double(refold, 6)
            << " s vs run wall " << format_double(root_wall, 6)
            << " s (delta " << format_double(delta_pct, 3) << " %)\n\n";

  if (top > 0) {
    std::vector<std::pair<std::string, const obs::PhaseSnapshot*>> leaves;
    const auto collect = [&](const auto& self, const obs::PhaseSnapshot& n,
                             const std::string& prefix) -> void {
      const std::string p =
          prefix.empty() ? n.name : prefix + ";" + n.name;
      leaves.emplace_back(p, &n);
      for (const obs::PhaseSnapshot& c : n.children) self(self, c, p);
    };
    collect(collect, root, "");
    std::stable_sort(leaves.begin(), leaves.end(),
                     [&](const auto& x, const auto& y) {
                       return use_calls ? x.second->calls > y.second->calls
                                        : x.second->exclusive_seconds() >
                                              y.second->exclusive_seconds();
                     });
    if (leaves.size() > static_cast<std::size_t>(top))
      leaves.resize(static_cast<std::size_t>(top));
    Table hot({"phase", "excl s", "excl %", "calls"});
    for (const auto& [p, n] : leaves) {
      hot.row()
          .cell(p)
          .cell(n->exclusive_seconds(), 6)
          .cell(root_wall > 0 ? 100.0 * n->exclusive_seconds() / root_wall
                              : 0.0,
                1)
          .cell(static_cast<long long>(n->calls));
    }
    print_banner(std::cout,
                 use_calls ? "hot phases (by calls)" : "hot phases");
    hot.print(std::cout);
    std::cout << "\n";
  }

  if (const JsonValue* memory = doc.find("memory")) {
    if (const JsonValue* accounts = memory->find("accounts")) {
      Table mem({"account", "current", "peak"});
      for (const auto& [name, a] : accounts->members()) {
        mem.row()
            .cell(name)
            .cell(format_bytes(a.number_or("current_bytes", 0)))
            .cell(format_bytes(a.number_or("peak_bytes", 0)));
      }
      print_banner(std::cout, "memory accounts");
      mem.print(std::cout);
    }
    const JsonValue* rss = memory->find("rss_peak_bytes");
    if (rss != nullptr && rss->is_number())
      std::cout << "process peak RSS: " << format_bytes(rss->as_number())
                << "\n";
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "timeline") return cmd_timeline(args);
    if (cmd == "events") return cmd_events(args);
    if (cmd == "slo") return cmd_slo(args);
    if (cmd == "watch") return cmd_watch(args);
    if (cmd == "wal") return cmd_wal(args);
    if (cmd == "incidents") return cmd_incidents(args);
    if (cmd == "explain") return cmd_explain(args);
    if (cmd == "profile") return cmd_profile(args);
    if (cmd == "diff") return cmd_compare(args, /*gate=*/false);
    if (cmd == "check") return cmd_compare(args, /*gate=*/true);
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
      return usage(std::cout, 0);
  } catch (const JsonParseError& e) {
    // The artifact exists but is not JSON — a half-written or corrupted
    // export. Distinct from "missing" (2) so CI can tell the two failure
    // modes apart without scraping stderr.
    std::cerr << "geomap-obsctl: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "geomap-obsctl: " << e.what() << "\n";
    return 2;
  }
  return usage(std::cerr, 2);
}
