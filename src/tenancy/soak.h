#pragma once
// Multi-tenant chaos soak: observe → detect → remap-storm → migrate for
// 100+ tenants sharing one substrate, under fire, with every journal
// certified.
//
// One case is one complete story, and run_soak_case is its only body:
//
//   1. make_substrate synthesizes K tenants on a shared cloud and maps
//      them capacity-aware; solo replays anchor the fairness baseline;
//   2. a healthy shared replay (sim::replay_multitenant) calibrates the
//      virtual horizon; a chaos plan (fault/chaos.h) is drawn for it;
//   3. the shared replay reruns under the plan with telemetry on —
//      force-through delivery records the link.timeout points a
//      permanently dead region produces;
//   4. the degradation detector is fed the *shared* timeline's link
//      samples once, in time order (obs::collect_link_samples);
//      core::vote_suspected_site names the suspect (falling back to the
//      oracle when detection saw nothing or accused the wrong site —
//      recorded honestly, the soak's subject is the scheduler);
//   5. every tenant homed on the dead site files a RemapRequest
//      (severity = fraction of its ranks stranded) and the scheduler
//      drains the storm under the configured policy;
//   6. every granted journal replays through
//      fault::check_migration_invariants, and the merged journals (plus
//      bystander tenants' static placements) through
//      check_cross_tenant_invariants; the post-recovery shared replay
//      yields per-tenant stretch and Jain's index.
//
// The body has two WAL hooks, both nullable. With a recover::Wal it
// writes every control-plane decision ahead (detector episodes and
// snapshots at the sample watermark, the durable detection decision
// before anyone acts on it, the scheduler's queue / grant / journal
// records). With the replayed control plane of a crashed predecessor it
// resumes: the announced history is re-emitted after case_start, the
// detector is restored from its snapshot and re-fed from the watermark
// (or skipped in favour of the durable decision), and the storm
// continues via build_storm_resume. run_multitenant_soak_case passes
// null for both and takes no checkpoints and writes no records;
// recover::run_recoverable_case owns the WAL itself around the body.
//
// Deterministic end to end: every stage is seeded or discrete-event, so
// one (seed, options) pair always produces byte-identical journals —
// which is what makes the scheduler-determinism tests meaningful, and
// what lets a resumed case recompute everything the WAL did not record.

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "fault/chaos.h"
#include "obs/incident.h"
#include "tenancy/scheduler.h"
#include "tenancy/substrate.h"

namespace geomap::recover {
class Wal;
struct RecoveredControlPlane;
}  // namespace geomap::recover

namespace geomap::tenancy {

struct MultiTenantSoakOptions {
  SubstrateOptions substrate;
  /// Chaos shape; num_sites and horizon are filled in per case. The
  /// primary outage is the storm trigger.
  fault::ChaosOptions chaos;
  SchedulerOptions scheduler;
  /// Rounds each tenant's app body re-issues its communication pattern
  /// in the calibration and observation replays. One pass often drains
  /// before a mid-horizon outage even starts; several rounds keep
  /// traffic flowing past it so the detector gets post-outage timeouts.
  /// The stretch replays stay single-pass (both sides of the ratio).
  int app_rounds = 6;
  /// Migrated state per process — kept small so a 100-tenant storm
  /// drains within a few horizons.
  Bytes bytes_per_process = 2.0 * kMiB;
  Bytes chunk_bytes = 512.0 * 1024;

  /// Opt-in external observability. With a collector attached the case
  /// streams lifecycle events (soak/case_start, soak/detect,
  /// soak/case_done), hooks the detector's onset/clear emissions into
  /// the same event log, and routes the scheduler's telemetry there
  /// (instead of the case-internal registry that is otherwise discarded).
  /// nullptr — the default — keeps the historical, fully self-contained
  /// behavior bit-identical.
  obs::Collector* collector = nullptr;

  void validate() const;
};

struct MultiTenantSoakCase {
  std::uint64_t seed = 0;
  int tenants = 0;
  SiteId primary_site = -1;
  Seconds outage_time = 0;

  /// Detection outcome (honest: the oracle fallback still runs the storm).
  bool detected = false;
  bool suspected_correct = false;
  Seconds detect_time = 0;

  int requests = 0;
  StormReport storm;
  /// Post-recovery stretch vs solo baselines, all tenants.
  FairnessReport fairness;

  /// Journals replayed through a checker (granted tenants + 1 cross-
  /// tenant pass).
  int invariants_checked = 0;
  /// Per-tenant and cross-tenant violations, merged ("tenant k: ..."-
  /// prefixed for the per-tenant ones).
  std::vector<fault::InvariantViolation> violations;

  /// Incident reconstruction over the case's event slice (empty without
  /// a collector) and its truth-scored attribution (cases == 1 when
  /// scored).
  std::vector<obs::Incident> incidents;
  obs::AttributionTotals attribution;
  bool attribution_scored = false;
};

struct MultiTenantSoakReport {
  std::vector<MultiTenantSoakCase> cases;
  int seeds_run = 0;
  int total_violations = 0;
  int total_invariants_checked = 0;
  int total_requeues = 0;
  int total_gave_up = 0;
  int detected_cases = 0;
  /// Attribution totals merged over every scored case (zeros when the
  /// soak ran without a collector).
  obs::AttributionTotals attribution;
};

/// One soak case without a WAL: run_soak_case(seed, options, nullptr,
/// nullptr).
MultiTenantSoakCase run_multitenant_soak_case(
    std::uint64_t seed, const MultiTenantSoakOptions& options);

/// The soak case body (see the header comment). `wal` receives the
/// case's control-plane records, with a compacting detector snapshot
/// every `snapshot_every_samples` samples (0: only the post-decision
/// snapshot). `resume`, the replayed WAL of a crashed predecessor,
/// continues that run instead of starting afresh; it requires `wal` and
/// `options.collector`. The caller owns the run's framing records
/// (run_begin / recovery_begin before, run_end after).
MultiTenantSoakCase run_soak_case(std::uint64_t seed,
                                  const MultiTenantSoakOptions& options,
                                  recover::Wal* wal,
                                  const recover::RecoveredControlPlane* resume,
                                  int snapshot_every_samples = 0);

/// When the case's recovery ended: the last granted migration's finish,
/// or the detection time when nothing was granted.
Seconds storm_end_time(const MultiTenantSoakCase& c);

/// Shape a replayed control plane into run_remap_storm's resume input:
/// per-request queue state (attempts consumed, pending backoff timers —
/// a timer pending at the crash fires exactly once after recovery),
/// finished grants in WAL order with rebuilt reports, and the
/// interrupted grant's recorded decision inputs. `requests` must be the
/// deterministically recomputed request list; run_soak_case validates
/// the WAL's durable sched_request records to be a prefix of it.
StormResume build_storm_resume(const recover::RecoveredControlPlane& rcp,
                               const std::vector<RemapRequest>& requests);

MultiTenantSoakReport run_multitenant_soak(
    const std::vector<std::uint64_t>& seeds,
    const MultiTenantSoakOptions& options);

}  // namespace geomap::tenancy
