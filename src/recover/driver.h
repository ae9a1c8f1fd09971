#pragma once
// Crash-consistent soak driver: one multi-tenant soak case run behind a
// control-plane WAL, plus the exhaustive crash-matrix soak.
//
// run_recoverable_case runs tenancy::run_soak_case — the one soak case
// body — with its WAL hooks set, and adds only the work a WAL run needs
// around the case. When `wal_dir` already holds a crashed run's log the
// case *resumes* instead of restarting:
//
//   * before the case: the WAL is read and replayed
//     (recover::replay_wal) and checked to belong to this (seed,
//     tenants, sites, policy); a new WAL generation opens, seeded with
//     the sanitized history behind a recovery_begin marker (run_begin
//     for a fresh run), durable before the case announces case_start;
//   * during the case (run_soak_case's hooks): the history is re-emitted
//     into the fresh event log, the detector is restored from the latest
//     snapshot and re-fed from its sample watermark or skipped in favour
//     of the durable decision record, and the storm continues via
//     tenancy::StormResume — finished grants replayed into the ledgers,
//     an interrupted grant redone from its recorded decision inputs;
//   * after the case: the redone interrupted journal is checked to
//     extend the durable prefix field-for-field (no double commit, no
//     lost grant), run_end seals the log, the whole surviving WAL is
//     audited (check_recovery_invariants), and the outcome digest is
//     taken.
//
// Everything deterministic (substrate, calibration, chaos plan,
// telemetry) is recomputed from the seed, so the resumed case's final
// events / incidents / fairness match the uninterrupted run's — and an
// uninterrupted run's match run_multitenant_soak_case's.
//
// The caller supplies a *fresh* collector per process generation (a real
// restart starts with an empty event log); re-emission fills it.
//
// run_crash_matrix is the acceptance harness: for every registered crash
// point it arms the injector, runs the case until the point kills it,
// recovers in a fresh "process" (new collector, same WAL dir), and
// asserts the recovered digest — detection outcome, request outcomes,
// grant order, final mappings, violations, fairness, and the canonical
// event stream — equals the uninterrupted baseline's.

#include <cstdint>
#include <string>
#include <vector>

#include "recover/recovery.h"
#include "tenancy/soak.h"

namespace geomap::recover {

struct RecoverableSoakOptions {
  /// The underlying soak shape. `soak.collector` must be non-null — the
  /// driver streams and re-emits through it.
  tenancy::MultiTenantSoakOptions soak;
  /// WAL directory; created if missing, resumed if it holds records.
  std::string wal_dir;
  /// Forwarded to the Wal (tests that hammer hundreds of tiny WALs turn
  /// fsync off; the in-process crash model is unchanged either way).
  WalOptions wal;
  /// Detector-phase snapshot cadence (samples between compacting
  /// snapshots). 0 disables mid-feed snapshots; the post-decision
  /// snapshot is always taken.
  int snapshot_every_samples = 64;

  void validate() const;
};

struct RecoverableCaseResult {
  tenancy::MultiTenantSoakCase soak_case;

  /// This generation continued a crashed predecessor's WAL.
  bool resumed = false;
  /// Recoveries performed so far including this one (0 for a fresh run).
  int recoveries = 0;
  std::size_t wal_records_replayed = 0;
  double wal_replay_seconds = 0;
  /// Opening this generation's WAL: seeding the sanitized history and
  /// making run_begin / recovery_begin durable.
  double recovery_seconds = 0;

  /// Prefix-consistency and post-run WAL audit failures
  /// (check_recovery_invariants). Empty = crash-consistent.
  std::vector<std::string> recovery_violations;

  /// CRC32 of the case's canonical outcome (decision, request outcomes,
  /// grant order, final mappings, violations, fairness, incident count,
  /// canonically-sorted events without sequence numbers). Identical for
  /// an uninterrupted run and any crash+recover execution of the same
  /// (seed, options).
  std::uint32_t digest = 0;
};

RecoverableCaseResult run_recoverable_case(std::uint64_t seed,
                                           const RecoverableSoakOptions& options);

struct CrashMatrixOptions {
  /// Per-attempt `soak.collector` is overridden with a fresh collector;
  /// `wal_dir` is wiped between points.
  RecoverableSoakOptions base;
  std::uint64_t seed = 1;
  /// Crash points to exercise; empty = the full registered catalog.
  std::vector<std::string> points;
  /// Kill → recover attempts per point before giving up.
  int max_attempts = 4;

  void validate() const;
};

struct CrashMatrixCase {
  std::string point;
  /// The armed point actually fired (a point a given workload never
  /// reaches completes on the first attempt and is reported honestly).
  bool fired = false;
  bool completed = false;
  int recoveries = 0;
  bool digest_match = false;
  std::uint32_t digest = 0;
  std::size_t wal_records_replayed = 0;
  double wal_replay_seconds = 0;
  double recovery_seconds = 0;
  std::vector<std::string> recovery_violations;

  bool clean() const {
    return completed && digest_match && recovery_violations.empty();
  }
};

struct CrashMatrixReport {
  std::uint32_t baseline_digest = 0;
  std::vector<CrashMatrixCase> cases;
  int points_fired = 0;
  int points_clean = 0;
  bool all_clean = true;
};

CrashMatrixReport run_crash_matrix(const CrashMatrixOptions& options);

}  // namespace geomap::recover
