// outage_storm: the multi-tenant control loop (detect, schedule, migrate,
// certify) on 1000 tenants over 16 sites. One job is one
// tenancy::run_multitenant_soak_case over a fixed list of 64 case seeds;
// it passes when the case has zero invariant violations and repeats the
// outcome of earlier runs of its seed. The WAL is bypassed by the jobs.
//
// The traced run re-runs the case's stages by their public functions,
// and probes the recover layer (WalProbe): the same storm through
// recover::run_recoverable_case with a WAL in the checkout's work
// directory, killed at a spread of crash points and resumed, each resume
// checked against the uninterrupted digest. No timed workload crashes and
// resumes: on a shared 4-vCPU VM, ten runs of such jobs (which also
// create, write and delete WAL files on disk) reached an IQR/median of
// 0.27, beyond the largest usable bound.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <system_error>

#include "common/rng.h"
#include "fault/chaos.h"
#include "fault/crash.h"
#include "fault/degraded_network.h"
#include "harness.h"
#include "mapping/cost.h"
#include "mapping/metrics.h"
#include "mapping/random_mapper.h"
#include "obs/collector.h"
#include "recover/driver.h"
#include "recover/recovery.h"
#include "recover/wal.h"
#include "sim/netsim.h"
#include "tenancy/soak.h"

namespace perfbench {
namespace {

using namespace geomap;

/// Case seeds scored for improvement_pct and re-run by the probes.
constexpr std::size_t kProbeSeeds = 4;

tenancy::MultiTenantSoakOptions storm_options(bool smoke) {
  tenancy::MultiTenantSoakOptions o;
  o.substrate.num_sites = smoke ? 6 : 16;
  o.substrate.num_tenants = smoke ? 24 : 1000;
  return o;
}

/// The recover-layer probes: kill the recoverable case at a spread of
/// crash points, read and fold the WAL each crash leaves, resume, and
/// check the resumed digest against the uninterrupted one.
class WalProbe {
 public:
  WalProbe(const tenancy::MultiTenantSoakOptions& soak, std::string dir,
           Tracer* tracer)
      : tracer_(tracer) {
    options_.soak = soak;
    options_.wal_dir = std::move(dir);
    // The WAL sits in the checkout, on disk: fsync would time the device.
    options_.wal.fsync = false;
  }
  ~WalProbe() { wipe(); }
  WalProbe(const WalProbe&) = delete;
  WalProbe& operator=(const WalProbe&) = delete;

  std::string run(std::uint64_t seed, Metrics& out) {
    wipe();
    recover::RecoverableCaseResult base;
    {
      Scope s(tracer_, "recover.case");
      base = attempt(seed);
    }
    if (!base.recovery_violations.empty() || !base.soak_case.violations.empty())
      return "uninterrupted recoverable case " + std::to_string(seed) +
             " is not clean";

    const std::vector<std::string> points = recover::crash_point_catalog();
    fault::CrashInjector& inj = fault::CrashInjector::instance();
    double records = 0, bytes = 0, probed = 0;
    for (std::size_t i = 0; i < points.size(); i += 4) {
      // recovery_begin boundaries exist only inside a recovery.
      if (points[i].rfind("wal.append.recovery_begin", 0) == 0) continue;
      wipe();
      inj.arm(points[i]);
      recover::RecoverableCaseResult r;
      bool crashed = false;
      try {
        Scope s(tracer_, "recover.crash_run");
        r = attempt(seed);
      } catch (const fault::CrashTriggered&) {
        crashed = true;
      }
      inj.disarm();
      recover::WalRecovery wal;
      {
        Scope s(tracer_, "recover.read_wal");
        wal = recover::read_wal(options_.wal_dir);
      }
      {
        Scope s(tracer_, "recover.replay_wal");
        (void)recover::replay_wal(wal.records);
      }
      records += static_cast<double>(wal.records.size());
      bytes += wal_bytes();
      probed += 1;
      if (crashed) {
        Scope s(tracer_, "recover.resume");
        r = attempt(seed);
      }
      if (r.digest != base.digest)
        return points[i] + ": resumed digest differs from the uninterrupted one";
      if (!r.recovery_violations.empty())
        return points[i] + ": " + r.recovery_violations.front();
    }
    out["recover.records"] = {records / probed, "count"};
    out["recover.wal_bytes"] = {bytes / probed, "B"};

    // The WAL case against the plain case, same seed.
    std::vector<double> plain, logged;
    for (int r = 0; r < 3; ++r) {
      double t0 = now_s();
      (void)tenancy::run_multitenant_soak_case(seed, options_.soak);
      plain.push_back(now_s() - t0);
      wipe();
      t0 = now_s();
      (void)attempt(seed);
      logged.push_back(now_s() - t0);
    }
    out["recover.wal_overhead_pct"] = {
        100.0 * (median(logged) - median(plain)) / median(plain), "%"};
    return {};
  }

 private:
  /// One process generation: run_recoverable_case requires a collector,
  /// and a restarted process starts with an empty one.
  recover::RecoverableCaseResult attempt(std::uint64_t seed) {
    obs::Collector fresh;
    recover::RecoverableSoakOptions o = options_;
    o.soak.collector = &fresh;
    return recover::run_recoverable_case(seed, o);
  }

  void wipe() const {
    std::error_code ec;
    std::filesystem::remove_all(options_.wal_dir, ec);
  }

  double wal_bytes() const {
    double total = 0;
    std::error_code ec;
    for (const auto& e :
         std::filesystem::directory_iterator(options_.wal_dir, ec)) {
      if (e.is_regular_file()) total += static_cast<double>(e.file_size());
    }
    return total;
  }

  Tracer* tracer_;
  recover::RecoverableSoakOptions options_;
};

/// What one finished case reports, kept per case seed so every revisit
/// can be checked against the first.
struct CaseOutcome {
  bool seen = false;
  Seconds detect_time = 0;
  Seconds storm_drain = 0;
  int requests = 0;
  int requeues = 0;
  int invariants_checked = 0;
  double processes_moved = 0;
  double bytes_moved = 0;
};

CaseOutcome outcome_of(const tenancy::MultiTenantSoakCase& c) {
  CaseOutcome o;
  o.seen = true;
  o.detect_time = c.detect_time;
  o.storm_drain = c.storm.storm_drain_seconds;
  o.requests = c.requests;
  o.requeues = c.storm.requeues;
  o.invariants_checked = c.invariants_checked;
  for (const tenancy::TenantRecovery& r : c.storm.recoveries) {
    o.processes_moved += r.report.processes_committed;
    o.bytes_moved += r.report.bytes_sent;
  }
  return o;
}

class OutageStorm : public Workload {
 public:
  explicit OutageStorm(const Config& config)
      : options_(storm_options(config.smoke)),
        work_dir_(config.work_dir) {
    tracer_ = config.tracer;
    // 32-bit case seeds: the WAL's run_begin record decodes its seed
    // through a double, so a resume refuses seeds above 2^53.
    const std::size_t num_seeds = config.smoke ? 2 : 64;
    for (std::size_t k = 0; k < num_seeds; ++k)
      seeds_.push_back(mix_seed(config.seed, 100 + k) & 0xffffffffULL);
    // One random draw per tenant: the mean runs over every tenant of the
    // first kProbeSeeds case seeds.
    double sum = 0;
    int scored = 0;
    for (std::size_t k = 0; k < probe_seeds(); ++k) {
      tenancy::Substrate sub;
      {
        Scope s(tracer_, "tenancy.make_substrate");
        sub = tenancy::make_substrate(seeds_[k], options_.substrate);
      }
      Rng rng(mix_seed(seeds_[k], 1));
      for (const tenancy::Tenant& t : sub.tenants) {
        const mapping::CostEvaluator eval(t.problem);
        double base = 0;
        {
          Scope s(tracer_, "mapping.random_baseline");
          base = eval.total_cost(mapping::RandomMapper::draw(t.problem, rng));
        }
        sum += mapping::improvement_percent(base, eval.total_cost(t.mapping));
        scored += 1;
      }
    }
    improvement_ = sum / scored;
    outcomes_.resize(num_seeds);
  }

  std::size_t cycle() const override { return seeds_.size(); }
  double improvement_pct() const override { return improvement_; }

  std::string run_job(std::size_t i) override {
    tenancy::MultiTenantSoakCase c;
    {
      Scope s(tracer_, "tenancy.soak_case");
      c = tenancy::run_multitenant_soak_case(seeds_[i], options_);
    }
    return check_case(i, c);
  }

  std::string layer_metrics(Metrics& out) override {
    outcome_metrics(out);
    std::vector<double> unexplained;
    for (std::size_t k = 0; k < probe_seeds(); ++k) {
      const double t0 = now_s();
      (void)tenancy::run_multitenant_soak_case(seeds_[k], options_);
      const double whole = now_s() - t0;
      unexplained.push_back(whole - probe_stages(k));
    }
    out["tenancy.case_unexplained_s"] = {median(unexplained), "s"};
    if (!probe_failure_.empty()) return probe_failure_;
    return WalProbe(options_, work_dir_ + "/wal", tracer_).run(seeds_[0], out);
  }

 private:
  std::size_t probe_seeds() const {
    return std::min<std::size_t>(kProbeSeeds, seeds_.size());
  }

  /// Record a finished case; fails when it has invariant violations or
  /// differs from an earlier run of the same seed.
  std::string check_case(std::size_t k, const tenancy::MultiTenantSoakCase& c) {
    if (!c.violations.empty())
      return "case " + std::to_string(seeds_[k]) + ": " +
             std::to_string(c.violations.size()) + " invariant violations";
    const CaseOutcome o = outcome_of(c);
    CaseOutcome& prev = outcomes_[k];
    if (!std::isfinite(o.storm_drain)) return "storm drain not finite";
    if (prev.seen && (o.storm_drain != prev.storm_drain ||
                      o.requests != prev.requests ||
                      o.requeues != prev.requeues))
      return "case " + std::to_string(seeds_[k]) + " changed between jobs";
    prev = o;
    return {};
  }

  /// Storm outcome counts, averaged over the case seeds.
  void outcome_metrics(Metrics& out) const {
    CaseOutcome sum;
    for (const CaseOutcome& o : outcomes_) {
      sum.storm_drain += o.storm_drain;
      sum.requests += o.requests;
      sum.requeues += o.requeues;
      sum.invariants_checked += o.invariants_checked;
      sum.processes_moved += o.processes_moved;
      sum.bytes_moved += o.bytes_moved;
    }
    const double k = static_cast<double>(outcomes_.size());
    out["tenancy.storm_drain_s"] = {sum.storm_drain / k, "virtual_s"};
    out["tenancy.requests"] = {sum.requests / k, "count"};
    out["tenancy.requeues"] = {sum.requeues / k, "count"};
    out["fault.invariants_checked"] = {sum.invariants_checked / k, "count"};
    out["migrate.processes_moved"] = {sum.processes_moved / k, "count"};
    out["migrate.bytes"] = {sum.bytes_moved / k, "B"};
  }

  /// Re-run the case's stages by their public functions on seed k's
  /// inputs; returns the seconds they account for. The soak case also
  /// runs two more shared replays, the detector and the per-tenant
  /// checks, which stay unexplained.
  double probe_stages(std::size_t k) {
    const std::uint64_t seed = seeds_[k];
    const double t0 = now_s();
    tenancy::Substrate sub;
    {
      Scope s(tracer_, "tenancy.make_substrate");
      sub = tenancy::make_substrate(seed, options_.substrate);
    }
    const double t1 = now_s();
    const net::NetworkModel& network = sub.tenants.front().problem.network;
    {
      const tenancy::Tenant& t = sub.tenants.front();
      Scope s(tracer_, "sim.replay_contention");
      (void)sim::replay_with_contention(t.problem.comm, network, t.mapping);
    }
    std::vector<sim::TenantFlow> flows;
    for (const tenancy::Tenant& t : sub.tenants)
      flows.push_back({&t.problem.comm, &t.mapping});
    const fault::FaultPlan no_faults;
    const fault::DegradedNetworkModel healthy(network, no_faults);
    sim::MultiTenantReplayOptions calibrate;
    calibrate.rounds = options_.app_rounds;
    const double t2 = now_s();
    Seconds horizon = 0;
    {
      Scope s(tracer_, "sim.replay_multitenant");
      horizon = sim::replay_multitenant(flows, healthy, calibrate).makespan;
    }
    const double t3 = now_s();

    fault::ChaosOptions chaos = options_.chaos;
    chaos.num_sites = sub.num_sites();
    chaos.horizon = horizon;
    if (chaos.migration_window_length <= 0) {
      chaos.migration_window_length = 1.5 * horizon;
      if (chaos.migration_window_faults == 0) chaos.migration_window_faults = 2;
    }
    const fault::ChaosPlan plan = fault::make_chaos_plan(seed, chaos);

    std::vector<tenancy::RemapRequest> requests;
    for (const tenancy::Tenant& t : sub.tenants) {
      int stranded = 0;
      for (const SiteId s : t.mapping) stranded += s == plan.primary_site;
      if (stranded == 0) continue;
      requests.push_back({t.id, outcomes_[k].detect_time,
                          static_cast<double>(stranded) /
                              static_cast<double>(t.mapping.size())});
    }
    tenancy::SchedulerOptions sched = options_.scheduler;
    sched.migrate.bytes_per_process = options_.bytes_per_process;
    sched.migrate.chunk_bytes = options_.chunk_bytes;
    sched.remap.bytes_per_process = options_.bytes_per_process;
    fault::MigrationInvariantOptions inv;
    inv.planned_bytes_per_process = options_.bytes_per_process;
    inv.chunk_bytes = options_.chunk_bytes;
    inv.max_retries = sched.migrate.retry.max_retries;
    inv.max_copy_attempts = sched.migrate.max_copy_attempts +
                            sched.migrate.max_replans +
                            sched.migrate.max_emergency_attempts;
    std::vector<fault::TenantJournal> journals(sub.tenants.size());
    for (std::size_t t = 0; t < sub.tenants.size(); ++t) {
      journals[t].initial_mapping = sub.tenants[t].mapping;
      journals[t].options = inv;
    }
    const double t4 = now_s();
    tenancy::StormReport storm;
    {
      Scope s(tracer_, "tenancy.run_remap_storm");
      storm = tenancy::run_remap_storm(sub, plan.plan, plan.primary_site,
                                       requests, sched);
    }
    const double t5 = now_s();
    for (const tenancy::TenantRecovery& r : storm.recoveries) {
      if (r.granted)
        journals[static_cast<std::size_t>(r.tenant)].events = r.report.events;
    }
    {
      Scope s(tracer_, "fault.check_cross_tenant");
      (void)fault::check_cross_tenant_invariants(journals, sub.site_capacities,
                                                 plan.plan);
    }
    const double t6 = now_s();
    if (storm.storm_drain_seconds != outcomes_[k].storm_drain)
      probe_failure_ = "stage probe's storm differs from case " +
                       std::to_string(seed) + "'s storm";
    return (t1 - t0) + (t3 - t2) + (t5 - t4) + (t6 - t5);
  }

  tenancy::MultiTenantSoakOptions options_;
  std::string work_dir_;
  std::vector<std::uint64_t> seeds_;
  std::vector<CaseOutcome> outcomes_;
  double improvement_ = 0;
  std::string probe_failure_;
};

}  // namespace

std::unique_ptr<Workload> make_outage_storm(const Config& config) {
  return std::make_unique<OutageStorm>(config);
}

}  // namespace perfbench
