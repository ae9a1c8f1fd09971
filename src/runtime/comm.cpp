#include "runtime/comm.h"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

#include "common/error.h"
#include "obs/collector.h"

namespace geomap::runtime {

namespace {
void apply_op(std::vector<double>& acc, const std::vector<double>& in,
              ReduceOp op) {
  GEOMAP_CHECK_MSG(acc.size() == in.size(), "reduce size mismatch");
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::max(acc[i], in[i]);
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::min(acc[i], in[i]);
      break;
  }
}
}  // namespace

Request Comm::isend(int dst, int tag, std::span<const double> data) {
  GEOMAP_CHECK_MSG(dst >= 0 && dst < size_, "bad destination " << dst);
  GEOMAP_CHECK_MSG(dst != rank_, "self-send not supported");
  const Bytes bytes = static_cast<Bytes>(data.size() * sizeof(double));
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.payload.assign(data.begin(), data.end());
  m.sender_ready = now_;
  m.sender_event = crit_last_;
  m.rendezvous = std::make_shared<RendezvousState>();
  Request request(m.rendezvous, sends_posted_++);

  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  if (runtime_->collector_ != nullptr) {
    runtime_->obs_.messages->add();
    runtime_->obs_.bytes->add(static_cast<std::uint64_t>(bytes));
  }
  if (runtime_->profile_ != nullptr) {
    runtime_->profile_->recorder(rank_).record_send(dst, bytes);
  }
  if (runtime_->ops_ != nullptr) {
    runtime_->ops_->rank(rank_).push_back(trace::Op::send(dst, tag, bytes));
  }
  runtime_->mailboxes_[static_cast<std::size_t>(dst)].deposit(std::move(m));
  return request;
}

void Comm::wait(Request& request) {
  GEOMAP_CHECK_MSG(request.valid(), "wait on invalid request");
  if (runtime_->ops_ != nullptr) {
    runtime_->ops_->rank(rank_).push_back(
        trace::Op::wait(request.send_index()));
  }
  const Seconds completion = request.wait();
  const Seconds before = now_;
  now_ = std::max(now_, completion);
  stats_.comm_seconds += now_ - before;
  // The clock now depends on the remote recv that completed the
  // rendezvous; chain it so later events on this rank point at it.
  if (request.completion_event() >= 0) crit_last_ = request.completion_event();
}

void Comm::send(int dst, int tag, std::span<const double> data) {
  Request r = isend(dst, tag, data);
  wait(r);
}

std::vector<double> Comm::recv(int src, int tag) {
  GEOMAP_CHECK_MSG(src >= 0 && src < size_, "bad source " << src);
  if (runtime_->ops_ != nullptr) {
    runtime_->ops_->rank(rank_).push_back(trace::Op::recv(src, tag));
  }
  Message m = runtime_->mailboxes_[static_cast<std::size_t>(rank_)].match(src, tag);
  const Bytes bytes = static_cast<Bytes>(m.payload.size() * sizeof(double));
  const Seconds ready = std::max(m.sender_ready, now_);
  const SiteId src_site = runtime_->site_of(src);
  const SiteId dst_site = runtime_->site_of(rank_);
  Seconds start = ready;
  Seconds wire = runtime_->transfer_time(src, rank_, bytes);
  const Seconds healthy_wire = wire;
  const bool crit =
      runtime_->collector_ != nullptr && runtime_->crit_run_ >= 0;
  const std::int64_t crit_id =
      crit ? runtime_->collector_->critpath().next_id() : -1;
  std::int64_t link_pred = -1;
  if (runtime_->fault_plan_ != nullptr && src_site != dst_site) {
    // Inter-site transfers consult the fault plan at their virtual issue
    // time. A lost (or outage-blocked) attempt costs detect_timeout plus
    // exponential backoff; the decision is a pure hash of (plan seed,
    // link, receive stream, attempt), so reruns are bit-identical. After
    // max_retries the transfer is forced through — runs always terminate;
    // surviving a permanent outage is the remap policy's job, not the
    // transport's — and accounted as a timeout.
    const fault::FaultPlan& plan = *runtime_->fault_plan_;
    const fault::RetryPolicy& policy = runtime_->retry_policy_;
    const std::uint64_t seq = recv_seq_[static_cast<std::size_t>(src)]++;
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 42) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank_)) << 21) ^
        seq;
    for (int attempt = 0;; ++attempt) {
      const bool down =
          plan.site_down(src_site, start) || plan.site_down(dst_site, start);
      const bool lost =
          down || plan.message_lost(src_site, dst_site, start, stream,
                                    static_cast<std::uint64_t>(attempt));
      if (!lost) break;
      if (attempt >= policy.max_retries) {
        stats_.timeouts += 1;
        if (runtime_->collector_ != nullptr) {
          runtime_->obs_.timeouts->add();
          runtime_
              ->timeline_series(runtime_->tl_timeout_, "link.timeout",
                                src_site, dst_site)
              .record(start, 1.0);
          runtime_->collector_->events().emit(
              start, obs::EventSeverity::kError, "runtime", "timeout",
              {obs::field("src_site", src_site),
               obs::field("dst_site", dst_site), obs::field("rank", rank_),
               obs::field("peer", src),
               obs::field("attempts", attempt)});
        }
        break;
      }
      const Seconds delay = policy.detect_timeout + policy.backoff(attempt);
      if (runtime_->collector_ != nullptr) {
        runtime_->obs_.retries->add();
        if (down)
          runtime_->obs_.outage_blocks->add();
        else
          runtime_->obs_.losses->add();
        runtime_->obs_.backoff_seconds->record(delay);
        runtime_
            ->timeline_series(runtime_->tl_retry_, "link.retry", src_site,
                              dst_site)
            .record(start, 1.0);
        runtime_->collector_->tracer().record_virtual(
            rank_, down ? "outage-stall" : "retry", "fault", start,
            start + delay,
            "{\"src\":" + std::to_string(src) +
                ",\"attempt\":" + std::to_string(attempt) + "}");
        runtime_->collector_->events().emit(
            start, obs::EventSeverity::kWarn, "runtime", "retry",
            {obs::field("src_site", src_site), obs::field("dst_site", dst_site),
             obs::field("rank", rank_), obs::field("peer", src),
             obs::field("attempt", attempt),
             obs::field("cause", down ? "outage" : "loss"),
             obs::field("delay", delay)});
      }
      start += delay;
      stats_.retries += 1;
      stats_.fault_seconds += delay;
    }
    const fault::LinkCondition cond =
        plan.link_condition(src_site, dst_site, start);
    if (cond.latency_factor != 1.0 || cond.bandwidth_factor != 1.0) {
      const Seconds degraded =
          runtime_->model_.latency(src_site, dst_site) * cond.latency_factor +
          bytes / (runtime_->model_.bandwidth(src_site, dst_site) *
                   cond.bandwidth_factor);
      stats_.fault_seconds += degraded - wire;
      if (runtime_->collector_ != nullptr)
        runtime_->obs_.degraded_extra_seconds->record(degraded - wire);
      wire = degraded;
    }
  }
  if (runtime_->collector_ != nullptr && src_site != dst_site) {
    // Observed-vs-calibrated wire inflation at the transfer's issue time:
    // exactly 1.0 on a healthy link, so the degradation detector needs no
    // oracle baseline.
    runtime_
        ->timeline_series(runtime_->tl_latency_, "link.latency_ratio",
                          src_site, dst_site)
        .record(start, wire / healthy_wire);
  }
  const Seconds completion =
      src_site == dst_site
          ? start + wire  // intra-site LAN: full bisection, no queueing
          : runtime_->acquire_link(src_site, dst_site, start, wire, crit_id,
                                   crit ? &link_pred : nullptr);
  const Seconds before = now_;
  now_ = completion;
  stats_.comm_seconds += now_ - before;
  if (crit) {
    // Happened-before node for this delivery with the exact decomposition
    // of end − ready: retry/backoff delays and degraded wire extra are
    // fault stall, link queueing is contention stall, the healthy wire
    // time splits into its latency (alpha) and volume (beta) terms.
    obs::CritEvent e;
    e.id = crit_id;
    e.run = runtime_->crit_run_;
    e.seq = crit_seq_++;
    e.kind = "recv";
    e.rank = rank_;
    e.peer = src;
    e.src_site = src_site;
    e.dst_site = dst_site;
    e.messages = 1;
    e.bytes = bytes;
    e.ready = ready;
    e.start = completion - wire;
    e.end = completion;
    e.alpha_seconds = runtime_->model_.latency(src_site, dst_site);
    e.beta_seconds = healthy_wire - e.alpha_seconds;
    e.fault_stall_seconds = (start - ready) + (wire - healthy_wire);
    e.contention_stall_seconds = completion - start - wire;
    e.pred_program = crit_last_;
    e.pred_message = m.sender_event;
    e.pred_link = link_pred;
    runtime_->collector_->critpath().add(std::move(e));
    crit_last_ = crit_id;
  }
  if (runtime_->collector_ != nullptr && src_site != dst_site) {
    // One WAN transfer on the receiver's virtual timeline; retry and
    // outage-stall spans recorded above nest inside [before, completion].
    runtime_->collector_->tracer().record_virtual(
        rank_, "recv", "comm", before, completion,
        "{\"src\":" + std::to_string(src) +
            ",\"bytes\":" + std::to_string(static_cast<long long>(bytes)) +
            "}");
  }
  m.rendezvous->complete(completion, crit_id);
  return std::move(m.payload);
}

std::vector<double> Comm::sendrecv(int dst, int send_tag,
                                   std::span<const double> data, int src,
                                   int recv_tag) {
  Request r = isend(dst, send_tag, data);
  std::vector<double> in = recv(src, recv_tag);
  wait(r);
  return in;
}

void Comm::compute(double flops) {
  GEOMAP_CHECK_MSG(flops >= 0, "negative flops");
  const Seconds t = flops / (runtime_->gflops_ * 1e9);
  if (runtime_->ops_ != nullptr && t > 0) {
    runtime_->ops_->rank(rank_).push_back(trace::Op::compute(t));
  }
  now_ += t;
  stats_.compute_seconds += t;
}

void Comm::advance(Seconds seconds) {
  GEOMAP_CHECK_MSG(seconds >= 0, "negative advance");
  now_ += seconds;
}

void Comm::barrier() {
  // Dissemination barrier: ceil(log2 p) rounds of symmetric exchange.
  const int tag = collective_tag();
  for (int stride = 1; stride < size_; stride <<= 1) {
    const int to = (rank_ + stride) % size_;
    const int from = (rank_ - stride % size_ + size_) % size_;
    (void)sendrecv(to, tag, {}, from, tag);
  }
}

void Comm::bcast(std::vector<double>& data, int root) {
  GEOMAP_CHECK_MSG(root >= 0 && root < size_, "bad root " << root);
  const int tag = collective_tag();
  // Binomial tree on ranks relative to root.
  const int vrank = (rank_ - root + size_) % size_;
  int mask = 1;
  while (mask < size_) mask <<= 1;
  mask >>= 1;
  // Receive once from the parent, then forward down the tree.
  bool received = (vrank == 0);
  for (int stride = mask; stride >= 1; stride >>= 1) {
    if (received) {
      if (vrank + stride < size_ && vrank % (stride << 1) == 0) {
        const int dst = (vrank + stride + root) % size_;
        send(dst, tag, data);
      }
    } else if (vrank % (stride << 1) == stride) {
      const int src = (vrank - stride + root) % size_;
      data = recv(src, tag);
      received = true;
    }
  }
}

void Comm::reduce(std::vector<double>& data, ReduceOp op, int root) {
  GEOMAP_CHECK_MSG(root >= 0 && root < size_, "bad root " << root);
  const int tag = collective_tag();
  const int vrank = (rank_ - root + size_) % size_;
  // Binomial tree, leaves inward.
  for (int stride = 1; stride < size_; stride <<= 1) {
    if (vrank % (stride << 1) == 0) {
      if (vrank + stride < size_) {
        const int src = (vrank + stride + root) % size_;
        const std::vector<double> in = recv(src, tag);
        apply_op(data, in, op);
      }
    } else if (vrank % (stride << 1) == stride) {
      const int dst = (vrank - stride + root) % size_;
      send(dst, tag, data);
      break;  // contributed; done with this reduction
    }
  }
}

void Comm::allreduce(std::vector<double>& data, ReduceOp op) {
  // Recursive doubling with the standard non-power-of-two fold: extra
  // ranks fold into partners below the largest power of two, the doubling
  // runs there, and results are returned. log2(p)+2 rounds; low strides
  // stay intra-site under block-style mappings, which is exactly the
  // structure mapping optimization exploits.
  const int tag = collective_tag();
  int p2 = 1;
  while (p2 * 2 <= size_) p2 *= 2;
  const int rem = size_ - p2;

  if (rank_ >= p2) {
    send(rank_ - p2, tag, data);
    data = recv(rank_ - p2, tag);  // result arrives after the doubling
    return;
  }
  if (rank_ < rem) {
    const std::vector<double> in = recv(rank_ + p2, tag);
    apply_op(data, in, op);
  }
  for (int mask = 1; mask < p2; mask <<= 1) {
    const int partner = rank_ ^ mask;
    const std::vector<double> in = sendrecv(partner, tag, data, partner, tag);
    apply_op(data, in, op);
  }
  if (rank_ < rem) send(rank_ + p2, tag, data);
}

std::vector<double> Comm::scatter(std::span<const double> sendbuf,
                                  std::size_t block_elems, int root) {
  GEOMAP_CHECK_MSG(root >= 0 && root < size_, "bad root " << root);
  const int tag = collective_tag();
  const int p = size_;
  const int vrank = (rank_ - root + p) % p;

  // `held` carries the blocks for vranks [vrank, vrank + count).
  std::vector<double> held;
  int count = 0;
  if (vrank == 0) {
    GEOMAP_CHECK_MSG(sendbuf.size() ==
                         static_cast<std::size_t>(p) * block_elems,
                     "scatter buffer size mismatch");
    held.resize(sendbuf.size());
    for (int v = 0; v < p; ++v) {
      const auto r = static_cast<std::size_t>((v + root) % p);
      std::copy(sendbuf.begin() + static_cast<std::ptrdiff_t>(r * block_elems),
                sendbuf.begin() +
                    static_cast<std::ptrdiff_t>((r + 1) * block_elems),
                held.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(v) * block_elems));
    }
    count = p;
  }

  int mask = 1;
  while (mask < p) mask <<= 1;
  for (int stride = mask; stride >= 1; stride >>= 1) {
    if (count > 0) {
      if (vrank % (stride << 1) == 0 && vrank + stride < p &&
          count > stride) {
        const int nsend = count - stride;
        const std::span<const double> out(
            held.data() + static_cast<std::size_t>(stride) * block_elems,
            static_cast<std::size_t>(nsend) * block_elems);
        send((vrank + stride + root) % p, tag, out);
        count = stride;
      }
    } else if (vrank % (stride << 1) == stride) {
      held = recv((vrank - stride + root) % p, tag);
      count = static_cast<int>(held.size() / block_elems);
    }
  }
  return std::vector<double>(held.begin(),
                             held.begin() + static_cast<std::ptrdiff_t>(
                                                block_elems));
}

std::vector<double> Comm::gather(std::span<const double> mine, int root) {
  GEOMAP_CHECK_MSG(root >= 0 && root < size_, "bad root " << root);
  const int tag = collective_tag();
  const int p = size_;
  const int vrank = (rank_ - root + p) % p;
  const std::size_t block = mine.size();

  // Blocks for vranks [vrank, vrank + count) accumulate bottom-up.
  std::vector<double> held(mine.begin(), mine.end());
  for (int stride = 1; stride < p; stride <<= 1) {
    if (vrank % (stride << 1) == stride) {
      send((vrank - stride + root) % p, tag, held);
      break;
    }
    if (vrank % (stride << 1) == 0 && vrank + stride < p) {
      const std::vector<double> in = recv((vrank + stride + root) % p, tag);
      held.insert(held.end(), in.begin(), in.end());
    }
  }
  if (vrank != 0) return {};

  // Rotate vrank order back to rank order.
  std::vector<double> out(static_cast<std::size_t>(p) * block);
  for (int v = 0; v < p; ++v) {
    const auto r = static_cast<std::size_t>((v + root) % p);
    std::copy(held.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(v) * block),
              held.begin() + static_cast<std::ptrdiff_t>(
                                 (static_cast<std::size_t>(v) + 1) * block),
              out.begin() + static_cast<std::ptrdiff_t>(r * block));
  }
  return out;
}

std::vector<double> Comm::reduce_scatter(std::span<const double> data,
                                         std::size_t block_elems,
                                         ReduceOp op) {
  GEOMAP_CHECK_MSG(data.size() == static_cast<std::size_t>(size_) * block_elems,
                   "reduce_scatter buffer size mismatch");
  // reduce-to-0 + scatter: correct for any rank count; a recursive-
  // halving variant would halve bandwidth for power-of-two sizes.
  std::vector<double> acc(data.begin(), data.end());
  reduce(acc, op, 0);
  return scatter(acc, block_elems, 0);
}

void Comm::scan(std::vector<double>& data, ReduceOp op) {
  // Inclusive prefix over the rank chain.
  const int tag = collective_tag();
  if (rank_ > 0) {
    const std::vector<double> in = recv(rank_ - 1, tag);
    apply_op(data, in, op);
  }
  if (rank_ + 1 < size_) send(rank_ + 1, tag, data);
}

std::vector<double> Comm::allgather(std::span<const double> mine) {
  // Ring algorithm: p-1 steps, each forwarding the block received last.
  const int tag = collective_tag();
  const std::size_t block = mine.size();
  std::vector<double> all(static_cast<std::size_t>(size_) * block);
  std::copy(mine.begin(), mine.end(),
            all.begin() + static_cast<std::ptrdiff_t>(
                              static_cast<std::size_t>(rank_) * block));
  const int right = (rank_ + 1) % size_;
  const int left = (rank_ - 1 + size_) % size_;
  int have = rank_;  // index of the block forwarded next
  for (int step = 0; step < size_ - 1; ++step) {
    const std::span<const double> out(
        all.data() + static_cast<std::size_t>(have) * block, block);
    const std::vector<double> in = sendrecv(right, tag, out, left, tag);
    have = (have - 1 + size_) % size_;
    std::copy(in.begin(), in.end(),
              all.begin() + static_cast<std::ptrdiff_t>(
                                static_cast<std::size_t>(have) * block));
  }
  return all;
}

std::vector<double> Comm::alltoall(std::span<const double> sendbuf,
                                   std::size_t block_elems) {
  GEOMAP_CHECK_MSG(sendbuf.size() ==
                       static_cast<std::size_t>(size_) * block_elems,
                   "alltoall buffer size mismatch");
  // Small blocks at scale: Bruck's algorithm (ceil(log2 p) rounds) —
  // p-1 pairwise rounds of tiny messages would be pure latency.
  if (block_elems * sizeof(double) <= kBruckThresholdBytes && size_ >= 8)
    return alltoall_bruck(sendbuf, block_elems);
  const int tag = collective_tag();
  std::vector<double> recvbuf(sendbuf.size());
  // Own block copies locally.
  std::copy(sendbuf.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(rank_) * block_elems),
            sendbuf.begin() + static_cast<std::ptrdiff_t>(
                                  (static_cast<std::size_t>(rank_) + 1) *
                                  block_elems),
            recvbuf.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(rank_) * block_elems));
  // Pairwise exchange: at step s, swap blocks with (rank + s) mod p /
  // (rank - s) mod p.
  for (int step = 1; step < size_; ++step) {
    const int to = (rank_ + step) % size_;
    const int from = (rank_ - step + size_) % size_;
    const std::vector<double> in = sendrecv(
        to, tag,
        sendbuf.subspan(static_cast<std::size_t>(to) * block_elems,
                        block_elems),
        from, tag);
    std::copy(in.begin(), in.end(),
              recvbuf.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(from) *
                                    block_elems));
  }
  return recvbuf;
}

std::vector<double> Comm::alltoall_bruck(std::span<const double> sendbuf,
                                         std::size_t block_elems) {
  const int tag = collective_tag();
  const int p = size_;
  const std::size_t block = block_elems;

  // Phase 1: local rotation — temp[i] holds my block for (rank + i) % p.
  std::vector<double> temp(sendbuf.size());
  for (int i = 0; i < p; ++i) {
    const auto src = static_cast<std::size_t>((rank_ + i) % p);
    std::copy(sendbuf.begin() + static_cast<std::ptrdiff_t>(src * block),
              sendbuf.begin() + static_cast<std::ptrdiff_t>((src + 1) * block),
              temp.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(i) * block));
  }

  // Phase 2: log rounds — forward every block whose index has bit k set.
  for (int pof2 = 1; pof2 < p; pof2 <<= 1) {
    std::vector<std::size_t> indices;
    for (int i = 0; i < p; ++i) {
      if (i & pof2) indices.push_back(static_cast<std::size_t>(i));
    }
    std::vector<double> out;
    out.reserve(indices.size() * block);
    for (const std::size_t i : indices) {
      out.insert(out.end(),
                 temp.begin() + static_cast<std::ptrdiff_t>(i * block),
                 temp.begin() + static_cast<std::ptrdiff_t>((i + 1) * block));
    }
    const int to = (rank_ + pof2) % p;
    const int from = (rank_ - pof2 + p) % p;
    const std::vector<double> in = sendrecv(to, tag, out, from, tag);
    for (std::size_t n = 0; n < indices.size(); ++n) {
      std::copy(in.begin() + static_cast<std::ptrdiff_t>(n * block),
                in.begin() + static_cast<std::ptrdiff_t>((n + 1) * block),
                temp.begin() + static_cast<std::ptrdiff_t>(indices[n] * block));
    }
  }

  // Phase 3: inverse rotation — the block received from rank j sits at
  // temp[(rank - j + p) % p].
  std::vector<double> recvbuf(sendbuf.size());
  for (int j = 0; j < p; ++j) {
    const auto i = static_cast<std::size_t>((rank_ - j + p) % p);
    std::copy(temp.begin() + static_cast<std::ptrdiff_t>(i * block),
              temp.begin() + static_cast<std::ptrdiff_t>((i + 1) * block),
              recvbuf.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(j) * block));
  }
  return recvbuf;
}

Runtime::Runtime(net::NetworkModel model, Mapping rank_to_site, double gflops,
                 trace::ApplicationProfile* profile)
    : model_(std::move(model)),
      rank_to_site_(std::move(rank_to_site)),
      gflops_(gflops),
      profile_(profile),
      mailboxes_(rank_to_site_.size()) {
  GEOMAP_CHECK_MSG(!rank_to_site_.empty(), "empty rank mapping");
  for (const SiteId s : rank_to_site_) {
    GEOMAP_CHECK_MSG(s >= 0 && s < model_.num_sites(),
                     "rank mapped to invalid site " << s);
  }
  GEOMAP_CHECK_MSG(profile_ == nullptr ||
                       profile_->num_ranks() == num_ranks(),
                   "profile rank count mismatch");
  const auto m = static_cast<std::size_t>(model_.num_sites());
  links_.reserve(m * m);
  for (std::size_t i = 0; i < m * m; ++i)
    links_.push_back(std::make_unique<LinkState>());
}

void Runtime::set_collector(obs::Collector* collector) {
  collector_ = collector;
  if (collector_ == nullptr) {
    obs_ = ObsHandles{};
    tl_latency_.clear();
    tl_retry_.clear();
    tl_timeout_.clear();
    return;
  }
  const std::size_t pairs =
      static_cast<std::size_t>(model_.num_sites()) *
      static_cast<std::size_t>(model_.num_sites());
  tl_latency_ = TimelineCache(pairs);
  tl_retry_ = TimelineCache(pairs);
  tl_timeout_ = TimelineCache(pairs);
  obs::MetricsRegistry& m = collector_->metrics();
  obs_.messages = &m.counter("comm.messages_sent");
  obs_.bytes = &m.counter("comm.bytes_sent");
  obs_.retries = &m.counter("comm.retries");
  obs_.timeouts = &m.counter("comm.timeouts");
  obs_.losses = &m.counter("fault.losses");
  obs_.outage_blocks = &m.counter("fault.outage_blocks");
  obs_.backoff_seconds = &m.histogram("comm.backoff_seconds");
  obs_.degraded_extra_seconds = &m.histogram("fault.degraded_extra_seconds");
  obs_.rank_finish_seconds = &m.histogram("runtime.rank_finish_seconds");
  obs_.rank_comm_seconds = &m.histogram("runtime.rank_comm_seconds");
}

obs::TimeSeries& Runtime::timeline_series(TimelineCache& cache,
                                          const char* name, SiteId src_site,
                                          SiteId dst_site) {
  const std::size_t idx =
      static_cast<std::size_t>(src_site) *
          static_cast<std::size_t>(model_.num_sites()) +
      static_cast<std::size_t>(dst_site);
  obs::TimeSeries* s = cache[idx].load(std::memory_order_acquire);
  if (s == nullptr) {
    s = &collector_->timeline().series(name,
                                       obs::link_label(src_site, dst_site));
    cache[idx].store(s, std::memory_order_release);
  }
  return *s;
}

Seconds Runtime::acquire_link(SiteId src_site, SiteId dst_site, Seconds ready,
                              Seconds wire_seconds, std::int64_t event_id,
                              std::int64_t* pred_out) {
  LinkState& link =
      *links_[static_cast<std::size_t>(src_site) *
                  static_cast<std::size_t>(model_.num_sites()) +
              static_cast<std::size_t>(dst_site)];
  std::lock_guard<std::mutex> lock(link.mutex);
  return link.schedule.reserve(ready, wire_seconds, event_id, pred_out);
}

RunResult Runtime::run(const std::function<void(Comm&)>& body) {
  const int p = num_ranks();
  obs::Span run_span;
  if (collector_ != nullptr) {
    run_span = collector_->tracer().span("runtime/run", "runtime");
    run_span.set_args_json("{\"ranks\":" + std::to_string(p) + "}");
    // Per-message event recording is a forensic recorder; a disabled
    // critpath leaves crit_run_ at -1, which every record site checks.
    crit_run_ = collector_->critpath_enabled()
                    ? collector_->critpath().begin_run("runtime/run")
                    : -1;
  } else {
    crit_run_ = -1;
  }
  // Each run starts at virtual time zero with idle links and mailboxes.
  for (auto& link : links_) link->schedule.clear();
  for (auto& mailbox : mailboxes_) mailbox.reset();
  std::vector<RankStats> stats(static_cast<std::size_t>(p));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(this, r, p);
      try {
        body(comm);
        comm.stats_.finish_time = comm.now_;
        stats[static_cast<std::size_t>(r)] = comm.stats();
        if (collector_ != nullptr && crit_run_ >= 0) {
          // Zero-length terminal marker: trailing compute after the last
          // message lands in the path's local component, and the latest
          // finish event's end is exactly the run's makespan.
          obs::CritEvent e;
          e.id = collector_->critpath().next_id();
          e.run = crit_run_;
          e.seq = comm.crit_seq_++;
          e.kind = "finish";
          e.rank = r;
          e.ready = e.start = e.end = comm.now_;
          e.pred_program = comm.crit_last_;
          collector_->critpath().add(std::move(e));
        }
      } catch (const RankAborted&) {
        // Teardown signal from a peer's failure: nothing to record.
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Release every peer blocked in recv/wait/collectives so the run
        // terminates instead of hanging on the dead rank.
        for (auto& mailbox : mailboxes_) mailbox.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < p; ++r) {
    const auto& e = errors[static_cast<std::size_t>(r)];
    if (!e) continue;
    const std::string prefix = "rank " + std::to_string(r) + ": ";
    try {
      std::rethrow_exception(e);
    } catch (const InvalidArgument& ex) {
      throw InvalidArgument(prefix + ex.what());
    } catch (const ConstraintViolation& ex) {
      throw ConstraintViolation(prefix + ex.what());
    } catch (const Error& ex) {
      throw Error(prefix + ex.what());
    } catch (const std::exception& ex) {
      // Foreign exception type: keep the original reachable via the nested
      // pointer while still reporting which rank failed.
      std::throw_with_nested(Error(prefix + ex.what()));
    } catch (...) {
      throw Error(prefix + "unknown exception");
    }
  }

  RunResult result;
  result.ranks = std::move(stats);
  for (const RankStats& rs : result.ranks) {
    result.makespan = std::max(result.makespan, rs.finish_time);
    result.max_comm_seconds = std::max(result.max_comm_seconds, rs.comm_seconds);
    result.total_comm_seconds += rs.comm_seconds;
    result.total_retries += rs.retries;
    result.total_timeouts += rs.timeouts;
    result.total_fault_seconds += rs.fault_seconds;
  }
  if (collector_ != nullptr) {
    collector_->metrics().counter("runtime.runs").add();
    for (int r = 0; r < p; ++r) {
      const RankStats& rs = result.ranks[static_cast<std::size_t>(r)];
      obs_.rank_finish_seconds->record(rs.finish_time);
      obs_.rank_comm_seconds->record(rs.comm_seconds);
      // Per-rank envelope on the virtual timeline: every transfer/retry
      // span recorded during the run nests inside it.
      collector_->tracer().record_virtual(r, "rank", "runtime", 0,
                                          rs.finish_time);
    }
  }
  return result;
}

}  // namespace geomap::runtime
