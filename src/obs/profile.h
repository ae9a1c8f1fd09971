#pragma once
// Hierarchical phase profiler + memory accounting: the instrument that
// adjudicates mapper hot-path work.
//
// The metrics registry answers "how much, in total"; the span tracer
// answers "when, on which thread". Neither answers the question the
// scale arc needs: *where inside the mapper* the time goes — grouping vs
// order search vs fill — with the work counters (group orders
// enumerated, cost evaluations, k-means iterations) attached to the
// phase that did the work, and the bytes held by the big structures
// (CSR comm graphs, dense site matrices, migration journals, tenant
// substrates) accounted next to them.
//
// A PhaseProfiler owns a tree of named phases. Phases are RAII handles
// (obs::Phase) that nest on the opening thread: the tree location of a
// phase is its name under the calling thread's innermost open phase, so
// repeated and concurrent entries into the same (parent-path, name)
// merge into one node. Each node accumulates inclusive wall seconds,
// the opening thread's CPU seconds, a call count, and named counters.
// Exclusive time is derived at export: inclusive minus the children's
// inclusive sum — the telescoping makes per-node exclusive times re-fold
// exactly to the root's measured wall time.
//
// Instrumentation contract (same as the whole obs layer): phases are
// coarse — wrap a mapper run, a grouping pass, an order search, never a
// per-edge loop body — and parallel regions are wrapped by ONE phase on
// the orchestrating thread (worker threads don't open phases), so the
// tree shape is independent of thread scheduling. With no collector in
// reach, instrumented code never touches any of this.
//
// Determinism: the tree shape, call counts, counters and byte accounts
// are pure functions of the workload. Times and RSS are not — so the
// profiler has a deterministic mode (GEOMAP_PROFILE_DETERMINISTIC=1 in
// the environment, or set_deterministic(true)) in which every clock
// read returns zero and RSS sampling is skipped; profile.json is then
// byte-identical across reruns of a seeded workload (asserted by tests,
// used by the baseline-blessing workflow when stability matters more
// than seconds).
//
// All entry points are thread-safe.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace geomap {
class JsonValue;
class JsonWriter;
}  // namespace geomap

namespace geomap::obs {

struct RunMeta;
class PhaseProfiler;

/// Deep copy of one profile-tree node (export/test view).
struct PhaseSnapshot {
  std::string name;
  double wall_seconds = 0;  // inclusive
  double cpu_seconds = 0;   // inclusive, opening thread's CPU time
  std::uint64_t calls = 0;
  std::map<std::string, std::uint64_t> counters;
  std::vector<PhaseSnapshot> children;  // sorted by name

  /// Inclusive minus the children's inclusive sum (not clamped: phases
  /// opened off the orchestrating thread would surface as negative
  /// exclusive time, which the invariant tests treat as a bug).
  double exclusive_seconds() const;

  /// True when this node or any descendant carries wall time (false for
  /// every tree exported in deterministic mode).
  bool has_time() const;
};

/// Collapsed-stack lines ("run;mapper:X;fill 1234") consumable by
/// flamegraph.pl / speedscope. Weights are exclusive microseconds; when
/// the whole tree carries zero time (deterministic mode) call counts
/// stand in so the structure still renders.
void write_collapsed(std::ostream& os, const PhaseSnapshot& root);

/// Parse the phase tree back from a profile.json document (inverse of
/// PhaseProfiler::write_json's "tree" member; the root is named "run").
/// Throws InvalidArgument when the document has no "tree" object or a
/// call count or counter is not an unsigned integer.
PhaseSnapshot profile_from_json(const JsonValue& root);

/// Movable RAII handle; the disengaged (default-constructed) phase is a
/// no-op, which lets instrumented code write
/// `obs::Phase p; if (collector) p = collector->profile().phase(...);`.
class Phase {
 public:
  Phase() = default;
  Phase(Phase&& other) noexcept { *this = std::move(other); }
  Phase& operator=(Phase&& other) noexcept;
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  ~Phase() { end(); }

  /// Add `n` to this phase's named work counter (no-op when disengaged).
  /// Safe from any thread holding the handle — this is how a phase
  /// wrapping a parallel region attributes its workers' counts.
  void count(const std::string& name, std::uint64_t n = 1);

  /// Close early (accumulates into the tree; further calls are no-ops).
  void end();

  bool active() const { return profiler_ != nullptr; }

 private:
  friend class PhaseProfiler;
  struct Node;

  PhaseProfiler* profiler_ = nullptr;
  Node* node_ = nullptr;
  double wall_start_ = 0;
  double cpu_start_ = 0;
  std::thread::id thread_;
};

/// Byte accounting for the big structures. Two styles:
///
///  * charge()/release() — a true allocation ledger for structures that
///    grow and shrink (journals, queues); peak tracks the high-water
///    current.
///  * note() — an observed-size snapshot for long-lived structures the
///    instrumented site does not own (the CSR comm graph it was handed,
///    the dense site matrices): current becomes the observed size, peak
///    the largest size ever observed. Idempotent across repeated
///    observations of the same structure.
///
/// sample_rss() folds the OS view (VmHWM) into the export so the
/// accounts can be sanity-checked against reality; it is skipped in
/// deterministic mode because RSS is not reproducible.
class MemTracker {
 public:
  MemTracker();  // deterministic mode from GEOMAP_PROFILE_DETERMINISTIC

  void charge(const std::string& account, std::uint64_t bytes);
  void release(const std::string& account, std::uint64_t bytes);
  void note(const std::string& account, std::uint64_t bytes);

  std::uint64_t current_bytes(const std::string& account) const;
  std::uint64_t peak_bytes(const std::string& account) const;

  /// Fold the process peak RSS into the export (no-op when
  /// deterministic). Call before exporting.
  void sample_rss();
  std::uint64_t rss_peak_bytes() const;

  /// Current / peak resident set of this process in bytes (Linux
  /// /proc/self/status; 0 when unavailable).
  static std::uint64_t process_rss_bytes();
  static std::uint64_t process_peak_rss_bytes();

  void set_deterministic(bool deterministic);
  bool deterministic() const;

  /// Emit `"memory": {"accounts": {...}, "rss_peak_bytes": N}` as the
  /// next member of the currently open JSON object (rss omitted when
  /// never sampled).
  void write_json_member(JsonWriter& w) const;

 private:
  struct Account {
    std::uint64_t current = 0;
    std::uint64_t peak = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Account> accounts_;
  std::uint64_t rss_peak_ = 0;
  bool deterministic_ = false;
};

class PhaseProfiler {
 public:
  PhaseProfiler();  // deterministic mode from GEOMAP_PROFILE_DETERMINISTIC
  ~PhaseProfiler();  // out of line: Node is incomplete here

  /// Open a phase named `name` under the calling thread's innermost open
  /// phase (the root when none is open).
  Phase phase(std::string name);

  /// Add `n` to a counter on the calling thread's innermost open phase
  /// (the root when none is open).
  void count(const std::string& name, std::uint64_t n = 1);

  void set_deterministic(bool deterministic);
  bool deterministic() const;

  /// True when no phase has ever been recorded and no counter touched.
  bool empty() const;

  /// The full tree under a synthetic "run" root whose inclusive times
  /// are the top-level children's sums (copy, for tests and exporters).
  PhaseSnapshot snapshot() const;

  /// One JSON document: {"meta": {...}, "deterministic": bool, "tree":
  /// {...}, "memory": {...}}. Tree children are objects keyed by phase
  /// name (std::map order), so the layout is deterministic; `memory` is
  /// emitted when `memory` is non-null. In deterministic mode every
  /// *_seconds leaf is 0 and the file is byte-identical across reruns
  /// of a seeded workload.
  void write_json(std::ostream& os, const MemTracker* memory = nullptr,
                  const RunMeta* meta = nullptr) const;

  /// Wall seconds since profiler construction (0 when deterministic).
  /// The mapper heartbeat uses this as its timeline timestamp.
  double now_seconds() const;

 private:
  friend class Phase;
  using Node = Phase::Node;

  Node* open(const std::string& name);
  void close(Node* node, double wall_delta, double cpu_delta,
             std::thread::id tid);
  double thread_cpu_seconds() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::unique_ptr<Node> root_;
  std::unordered_map<std::thread::id, std::vector<Node*>> stacks_;
  bool deterministic_ = false;
  bool touched_ = false;
};

}  // namespace geomap::obs
