#pragma once
// minimpi: an in-process message-passing runtime with virtual time.
//
// This substrate replaces "MPI on EC2" in the paper's real-cloud
// experiments. Ranks are threads; every point-to-point operation advances
// virtual clocks by the alpha-beta transfer time of the mapped site pair:
//
//   completion = max(sender_ready, receiver_clock) + LT(s,d) + n/BT(s,d)
//
// (synchronous-send rendezvous semantics; both clocks jump to
// completion). Collectives are built from point-to-point with standard
// algorithms (binomial trees, dissemination, ring, pairwise), so their
// cost reacts to the process mapping exactly as real MPI trees would.
// Executions are deterministic: matching is FIFO per (src, tag) and
// virtual time depends only on program order, never on host scheduling.
//
// Inter-site transfers contend: each ordered site pair is a serializing
// WAN link (its calibrated BT is a pair bandwidth, and the regions'
// cross-section is shared), so a mapping that pushes many flows onto one
// pair pays queueing delay — the effect that makes volume-minimizing
// mappings fast in practice. Intra-site transfers never queue (full
// bisection LAN). Executions whose concurrent transfers share an
// inter-site link acquire it in host scheduling order, so their virtual
// times are reproducible only up to queueing order; single-site (or
// contention-free) executions are exactly deterministic.
//
// An optional tracer (trace::ApplicationProfile) records every
// point-to-point send — the dynamic trace CYPRESS would capture — from
// which CG/AG are profiled.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.h"
#include "fault/fault_plan.h"
#include "net/link_schedule.h"
#include "net/network_model.h"
#include "runtime/mailbox.h"
#include "trace/optrace.h"
#include "trace/profile.h"

namespace geomap::obs {
class Collector;
class Counter;
class Histogram;
class TimeSeries;
}  // namespace geomap::obs

namespace geomap::runtime {

/// Reduction operators for reduce/allreduce.
enum class ReduceOp { kSum, kMax, kMin };

/// Per-rank accounting reported after a run.
struct RankStats {
  Seconds finish_time = 0;   // final virtual clock
  Seconds comm_seconds = 0;  // clock advanced inside communication calls
  Seconds compute_seconds = 0;
  std::uint64_t messages_sent = 0;
  Bytes bytes_sent = 0;
  /// Fault accounting (receiver side; zero when no FaultPlan is attached):
  /// reattempts after deterministic message loss, transfers that exhausted
  /// the retry budget, and virtual seconds lost to faults (loss detection
  /// + backoff delays plus degraded-minus-healthy wire time).
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  Seconds fault_seconds = 0;
};

class Runtime;

/// The per-rank communicator handed to application bodies.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Current virtual time of this rank.
  Seconds now() const { return now_; }

  /// Blocking synchronous send (completes when the receiver matched).
  void send(int dst, int tag, std::span<const double> data);

  /// Post a send and return immediately; wait() on the Request completes
  /// it. Required for deadlock-free symmetric exchanges.
  Request isend(int dst, int tag, std::span<const double> data);

  /// Blocking receive from a specific source and tag.
  std::vector<double> recv(int src, int tag);

  /// Complete an isend, advancing this rank's clock.
  void wait(Request& request);

  /// Simultaneous exchange (deadlock-free): send `data` to dst, receive
  /// from src.
  std::vector<double> sendrecv(int dst, int send_tag,
                               std::span<const double> data, int src,
                               int recv_tag);

  /// Model `flops` floating-point operations of local work: advances the
  /// clock by flops / instance compute rate.
  void compute(double flops);

  /// Advance the clock by raw seconds (I/O or fixed-cost phases).
  void advance(Seconds seconds);

  // -- Collectives (all ranks must call in the same program order) --
  void barrier();
  void bcast(std::vector<double>& data, int root);
  void reduce(std::vector<double>& data, ReduceOp op, int root);
  void allreduce(std::vector<double>& data, ReduceOp op);
  std::vector<double> allgather(std::span<const double> mine);
  /// Scatter from root: root's `sendbuf` holds size() blocks of
  /// `block_elems` doubles; every rank returns its own block. Binomial
  /// tree, halving payloads down the levels.
  std::vector<double> scatter(std::span<const double> sendbuf,
                              std::size_t block_elems, int root);

  /// Gather to root: every rank contributes `mine`; root returns the
  /// rank-ordered concatenation (others return empty). Binomial tree.
  std::vector<double> gather(std::span<const double> mine, int root);

  /// Reduce-scatter: element-wise reduction of `data` (size() blocks of
  /// `block_elems`); each rank returns its own reduced block.
  std::vector<double> reduce_scatter(std::span<const double> data,
                                     std::size_t block_elems, ReduceOp op);

  /// Inclusive prefix scan over ranks (linear chain).
  void scan(std::vector<double>& data, ReduceOp op);

  /// Personalized all-to-all: `sendbuf` holds size() blocks of
  /// `block_elems` doubles; returns the same layout gathered from peers.
  /// Uses pairwise exchange (p-1 rounds), switching to Bruck's algorithm
  /// (ceil(log2 p) rounds, blocks re-forwarded) for small blocks at
  /// p >= 8 where latency dominates.
  std::vector<double> alltoall(std::span<const double> sendbuf,
                               std::size_t block_elems);

  /// Block size at or below which alltoall uses Bruck's algorithm.
  static constexpr std::size_t kBruckThresholdBytes = 1024;

  RankStats stats() const { return stats_; }

  /// Maximum tag usable by applications; larger tags are reserved for
  /// collectives.
  static constexpr int kMaxUserTag = (1 << 20) - 1;

 private:
  friend class Runtime;
  Comm(Runtime* runtime, int rank, int size)
      : runtime_(runtime),
        rank_(rank),
        size_(size),
        recv_seq_(static_cast<std::size_t>(size), 0) {}

  int collective_tag() { return (1 << 20) + collective_seq_++; }

  std::vector<double> alltoall_bruck(std::span<const double> sendbuf,
                                     std::size_t block_elems);

  Runtime* runtime_;
  int rank_;
  int size_;
  Seconds now_ = 0;
  int collective_seq_ = 0;
  std::int64_t sends_posted_ = 0;
  /// Critical-path recording state (used only with a collector attached):
  /// the id of the last event this rank's clock depends on — its own
  /// previous recv, or the remote recv a wait() jumped the clock to — and
  /// the per-rank program-order sequence for canonical export.
  std::int64_t crit_last_ = -1;
  std::int64_t crit_seq_ = 0;
  /// Per-source receive sequence numbers: the deterministic stream key for
  /// fault-plan loss decisions (program order, independent of host
  /// scheduling).
  std::vector<std::uint64_t> recv_seq_;
  RankStats stats_;
};

/// Result of one application run.
struct RunResult {
  std::vector<RankStats> ranks;
  /// Maximum finish time over ranks — the modeled job execution time.
  Seconds makespan = 0;
  /// Maximum per-rank communication time — the paper's simulated
  /// communication-only metric (Figure 6).
  Seconds max_comm_seconds = 0;
  Seconds total_comm_seconds = 0;
  /// Fault accounting summed over ranks (all zero without a FaultPlan).
  std::uint64_t total_retries = 0;
  std::uint64_t total_timeouts = 0;
  Seconds total_fault_seconds = 0;
};

class Runtime {
 public:
  /// `rank_to_site` maps each rank to its hosting site under the chosen
  /// process mapping; `model` provides LT/BT (copied — the runtime owns
  /// its network view). `gflops` is the per-node compute rate for
  /// Comm::compute. `profile`, when given, receives every p2p send for
  /// CG/AG profiling and must outlive the runtime.
  Runtime(net::NetworkModel model, Mapping rank_to_site, double gflops = 50.0,
          trace::ApplicationProfile* profile = nullptr);

  /// Capture an operation-level trace of the next run() into `ops`
  /// (pre-sized to the rank count); replayable under any mapping with
  /// sim::replay_ops. Pass nullptr to stop capturing.
  void capture_ops(trace::OpTraceLog* ops) { ops_ = ops; }

  /// Inject faults: inter-site transfers consult `plan` at their virtual
  /// issue time — degraded links pay the inflated alpha-beta cost, lost
  /// messages are retried with exponential backoff in virtual time per
  /// `policy` (down links behave as lossy until the outage ends). The
  /// plan must outlive the runtime; pass nullptr to detach. An empty plan
  /// reproduces the fault-free execution exactly.
  void set_fault_plan(const fault::FaultPlan* plan,
                      fault::RetryPolicy policy = {}) {
    fault_plan_ = (plan != nullptr && plan->empty()) ? nullptr : plan;
    retry_policy_ = policy;
  }

  /// Observability (opt-in, not owned; pass nullptr to detach): transfers
  /// bump comm/fault counters, retry backoffs and outage stalls become
  /// virtual-time spans on the receiving rank's timeline, and run() wraps
  /// itself in a wall span and exports per-rank finish/comm histograms.
  /// Metric handles are resolved here, once — the per-message hot path
  /// only dereferences cached pointers. Without a collector the runtime
  /// executes the exact uninstrumented path (virtual times and RunResult
  /// are bit-identical).
  void set_collector(obs::Collector* collector);

  /// Execute `body` on `num_ranks` rank threads. Rank count must match
  /// the mapping size. If any rank body throws, the run is aborted —
  /// peers blocked in recv/wait/collectives are released, never left
  /// hanging — and the lowest-ranked failure is rethrown as a
  /// geomap::Error prefixed with its rank id.
  RunResult run(const std::function<void(Comm&)>& body);

  int num_ranks() const { return static_cast<int>(rank_to_site_.size()); }

 private:
  friend class Comm;

  SiteId site_of(int rank) const {
    return rank_to_site_[static_cast<std::size_t>(rank)];
  }

  Seconds transfer_time(int src, int dst, Bytes bytes) const {
    return model_.transfer_time(site_of(src), site_of(dst), bytes);
  }

  /// Serialize an inter-site transfer of `wire_seconds` on link
  /// (src_site, dst_site), earliest start `ready`: returns completion.
  /// `event_id` labels the reserved interval for critical-path recording
  /// (-1 when off); when the transfer had to queue, `*pred_out` receives
  /// the id of the transfer it queued behind.
  Seconds acquire_link(SiteId src_site, SiteId dst_site, Seconds ready,
                       Seconds wire_seconds, std::int64_t event_id = -1,
                       std::int64_t* pred_out = nullptr);

  net::NetworkModel model_;
  Mapping rank_to_site_;
  double gflops_;
  trace::ApplicationProfile* profile_;
  trace::OpTraceLog* ops_ = nullptr;
  const fault::FaultPlan* fault_plan_ = nullptr;
  fault::RetryPolicy retry_policy_;
  std::vector<Mailbox> mailboxes_;

  obs::Collector* collector_ = nullptr;
  /// CritGraph run id of the in-progress run() (-1 outside a collected
  /// run; one begin_run per Runtime::run call).
  int crit_run_ = -1;
  /// Metric handles cached by set_collector (valid while collector_ set).
  struct ObsHandles {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* losses = nullptr;
    obs::Counter* outage_blocks = nullptr;
    obs::Histogram* backoff_seconds = nullptr;
    obs::Histogram* degraded_extra_seconds = nullptr;
    obs::Histogram* rank_finish_seconds = nullptr;
    obs::Histogram* rank_comm_seconds = nullptr;
  };
  ObsHandles obs_;

  /// Per-link timeline series ("link.latency_ratio" / "link.retry" /
  /// "link.timeout" labeled "src->dst"), resolved lazily on first traffic
  /// so untouched links do not export empty series. The caches are m*m
  /// atomic pointer slots; racing first-touchers resolve the same
  /// registry reference, so the benign double-store is idempotent.
  using TimelineCache = std::vector<std::atomic<obs::TimeSeries*>>;
  obs::TimeSeries& timeline_series(TimelineCache& cache, const char* name,
                                   SiteId src_site, SiteId dst_site);
  TimelineCache tl_latency_;
  TimelineCache tl_retry_;
  TimelineCache tl_timeout_;

  /// One inter-site link's first-fit schedule, tagged with each
  /// transfer's critical-path event id. First fit keys on *virtual*
  /// ready time, so a transfer is never queued behind one that merely
  /// executed earlier in *host* time (threads reach the link in
  /// arbitrary real order when their virtual clocks diverge).
  struct LinkState {
    std::mutex mutex;
    net::LinkSchedule schedule;
  };
  std::vector<std::unique_ptr<LinkState>> links_;  // m*m ordered pairs
};

}  // namespace geomap::runtime
