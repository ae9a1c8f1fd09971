// geomap_perfbench: runs one benchmark workload as a closed loop (one
// harness thread, one job at a time) and prints one JSON record.
//
//   geomap_perfbench --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] [--smoke]
//
// Untraced (--trace 0): the set-up runs kSetups times (setup_s is their
// median), then jobs run for --seconds, in whole cycles and at least
// kMinVisits of them. An instance's time is its fastest visit in the run;
// job_p50_s and job_tail_s are percentiles over the instances.
// Traced (--trace 1): the same jobs run untraced for half the time and
// traced for the other half; spans are written to kOutDir at exit.
// Every file the harness writes is under kOutDir, relative to the
// working directory.
//
// Exit status: 0 when every job passed its output checks, 1 when a check
// failed or set-up threw, 2 on a usage error.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "common/parallel.h"
#include "harness.h"

namespace perfbench {

double now_s() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int Tracer::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.job = job_;
  s.start = now_s();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  open_.pop_back();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

constexpr int kSetups = 5;
/// Visits per instance, at least, in a timed run and in each traced half.
constexpr std::size_t kMinVisits = 5;
constexpr std::size_t kMinTracedVisits = 2;
constexpr const char* kOutDir = ".bench_build/perfbench";

struct Args {
  std::string workload;
  std::uint64_t seed = 2017;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "geomap_perfbench: " << why
            << "\nusage: geomap_perfbench --workload "
               "map_scale|outage_storm --seed N "
               "--seconds S [--trace 0|1] [--smoke]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

using Factory = std::unique_ptr<Workload> (*)(const Config&);

/// A workload and the parallel_for worker count pinned for it.
/// parallel_for spawns its workers on every call: map_scale makes few,
/// long calls and gains from a second worker; outage_storm makes
/// thousands of tiny mapper calls, where each spawn waits for a second
/// vCPU to wake, which a busy host delays. On a shared 4-vCPU VM one
/// outage_storm seed ran at 0.12 s per job with 1 worker in every run and
/// at 0.26-0.30 s with 2 workers in the same minutes.
struct Spec {
  Factory make;
  std::size_t workers;
};

Spec spec_of(const std::string& name) {
  if (name == "map_scale") return {make_map_scale, 2};
  if (name == "outage_storm") return {make_outage_storm, 1};
  usage("unknown workload " + name);
}

/// Each instance's fastest visit, from the job times of whole cycles
/// (job j ran instance j % cycle). The host's speed drifts by up to 1.5x
/// in bursts that last seconds to minutes; some visit of an instance
/// usually lands in a quiet spell, so the fastest one measures the
/// program more than the host. An instance with a failed visit reads
/// +inf, beyond every pass.
std::vector<double> best_per_instance(const std::vector<double>& times,
                                      std::size_t cycle) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> best(cycle, inf);
  std::vector<bool> failed(cycle, false);
  for (std::size_t j = 0; j < times.size(); ++j) {
    const std::size_t i = j % cycle;
    failed[i] = failed[i] || std::isinf(times[j]);
    best[i] = std::min(best[i], times[j]);
  }
  for (std::size_t i = 0; i < cycle; ++i) {
    if (failed[i]) best[i] = inf;
  }
  return best;
}

/// Nearest rank of job_tail_s among n instances: the 90th percentile.
/// outage_storm's cases are bimodal (about a fifth take 1.4x the rest),
/// and how many fall in the slow mode varies by seed; a rank leaving ten
/// of its 64 instances beyond sits on that boundary and moved 0.11 (IQR
/// over median) across seeds, the 90th percentile 0.04.
std::size_t tail_rank(std::size_t n) {
  return static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
}

/// Value of nearest rank `rank` (1-based) of `v`.
double at_rank(std::vector<double> v, std::size_t rank) {
  std::sort(v.begin(), v.end());
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t median_rank(std::size_t n) { return (n + 1) / 2; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct JobLog {
  int attempted = 0;
  int failed = 0;
  std::string first_failure;

  void record(const std::string& failure) {
    attempted += 1;
    if (failure.empty()) return;
    failed += 1;
    if (first_failure.empty()) first_failure = failure;
  }
};

/// Closed loop over whole cycles for at least `seconds` and `min_visits`
/// cycles. Returns every job's time, +inf for a failed job.
std::vector<double> run_jobs(Workload& w, double seconds,
                             std::size_t min_visits, Tracer* tracer,
                             JobLog& log, int& next_job) {
  w.set_tracer(tracer);
  const std::size_t cycle = w.cycle();
  std::vector<double> times;
  const double deadline = now_s() + seconds;
  while (now_s() < deadline || times.size() < min_visits * cycle ||
         times.size() % cycle != 0) {
    if (tracer != nullptr) tracer->set_job(next_job);
    next_job += 1;
    std::string failure;
    const double t0 = now_s();
    {
      Scope job(tracer, "job");
      failure = w.run_job(times.size() % cycle);
    }
    const double dt = now_s() - t0;
    log.record(failure);
    times.push_back(failure.empty() ? dt
                                    : std::numeric_limits<double>::infinity());
  }
  w.set_tracer(nullptr);
  return times;
}

/// Per-layer numbers from the spans: the median duration of every span
/// name, and how much of each job its direct children cover.
void span_metrics(const Tracer& tracer, Metrics& out) {
  std::map<std::string, std::vector<double>> durations;
  std::map<int, double> child_time;
  const auto& spans = tracer.spans();
  for (const Tracer::Span& s : spans) {
    if (s.name != "job") durations[s.name].push_back(s.end - s.start);
    if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].name == "job")
      child_time[s.parent] += s.end - s.start;
  }
  for (auto& [name, d] : durations) out[name + "_s"] = {median(d), "s"};
  std::vector<double> coverage;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "job") continue;
    const auto it = child_time.find(static_cast<int>(i));
    const double covered = it == child_time.end() ? 0 : it->second;
    coverage.push_back(100.0 * covered / (spans[i].end - spans[i].start));
  }
  out["trace.span_coverage_pct"] = {median(coverage), "%"};
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream f(path);
  f << "[\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    f << "{\"id\":" << i << ",\"name\":" << json_string(s.name)
      << ",\"start\":" << json_number(s.start)
      << ",\"end\":" << json_number(s.end) << ",\"parent\":" << s.parent
      << ",\"job\":" << s.job << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]\n";
}

int run(const Args& args) {
  const Spec spec = spec_of(args.workload);
  geomap::set_parallel_workers(spec.workers);
  const std::string out_dir = kOutDir;
  std::filesystem::create_directories(out_dir);

  Tracer tracer;
  Config config;
  config.seed = args.seed;
  config.smoke = args.smoke;
  config.work_dir = out_dir + "/work-" + args.workload;
  config.tracer = args.trace ? &tracer : nullptr;

  // Set-up, repeated: each pass builds the workload from scratch and
  // discards one warm-up job.
  JobLog log;
  std::vector<double> setup_times;
  std::unique_ptr<Workload> w;
  for (int r = 0; r < kSetups; ++r) {
    w.reset();
    tracer.set_job(-1);
    const double t0 = now_s();
    w = spec.make(config);
    w->set_tracer(config.tracer);
    log.record(w->run_job(0));
    w->set_tracer(nullptr);
    setup_times.push_back(now_s() - t0);
  }

  const std::size_t cycle = w->cycle();
  const std::size_t p50 = median_rank(cycle);
  const std::size_t tail = tail_rank(cycle);

  Metrics metrics;
  int next_job = 0;
  std::size_t jobs = 0;
  if (!args.trace) {
    const std::vector<double> times =
        run_jobs(*w, args.seconds, kMinVisits, nullptr, log, next_job);
    jobs = times.size();
    const std::vector<double> best = best_per_instance(times, cycle);
    metrics["setup_s"] = {median(setup_times), "s"};
    metrics["job_p50_s"] = {at_rank(best, p50), "s"};
    metrics["job_tail_s"] = {at_rank(best, tail), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["improvement_pct"] = {w->improvement_pct(), "%"};
  } else {
    const std::vector<double> bare = run_jobs(
        *w, args.seconds / 2, kMinTracedVisits, nullptr, log, next_job);
    const std::vector<double> traced = run_jobs(
        *w, args.seconds / 2, kMinTracedVisits, &tracer, log, next_job);
    jobs = bare.size() + traced.size();
    metrics["trace.overhead_s"] = {
        at_rank(best_per_instance(traced, cycle), p50) -
            at_rank(best_per_instance(bare, cycle), p50),
        "s"};
    tracer.set_job(-2);
    w->set_tracer(&tracer);
    log.record(w->layer_metrics(metrics));
    span_metrics(tracer, metrics);
    write_spans(tracer, out_dir + "/spans-" + args.workload + "-" +
                            std::to_string(args.seed) + ".json");
  }

  const bool correct = log.failed == 0;
  std::ostringstream line;
  line << "{\"workload\":" << json_string(args.workload)
       << ",\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << log.attempted << ",\"failed\":" << log.failed
       << ",\"first_failure\":" << json_string(log.first_failure)
       << ",\"workers\":" << spec.workers << ",\"jobs\":" << jobs
       << ",\"instances\":" << cycle << ",\"tail_percentile\":"
       << json_number(static_cast<double>(tail) / static_cast<double>(cycle))
       << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    line << (first ? "" : ",") << json_string(name) << ":{\"value\":"
         << json_number(m.value) << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "geomap_perfbench: " << e.what() << "\n";
    return 1;
  }
}
