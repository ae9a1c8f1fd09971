#include "sim/replay.h"

#include <deque>
#include <map>
#include <vector>

#include "common/error.h"
#include "net/link_schedule.h"

namespace geomap::sim {

namespace {

using trace::Op;

struct PostedSend {
  std::int64_t send_index;  // sender's posting order
  Bytes bytes;
  Seconds sender_ready;
};

struct RankState {
  std::size_t pc = 0;          // next op
  Seconds now = 0;
  Seconds comm_seconds = 0;
  std::int64_t sends_posted = 0;
  /// Completion time per posted send, filled when the receiver matches;
  /// kUnmatched until then.
  std::vector<Seconds> send_completion;
  bool blocked = false;
};

constexpr Seconds kUnmatched = -1.0;

}  // namespace

ReplayResult replay_ops(const trace::OpTraceLog& ops,
                        const net::NetworkModel& model,
                        const Mapping& mapping) {
  const int p = ops.num_ranks();
  GEOMAP_CHECK_MSG(static_cast<int>(mapping.size()) == p,
                   "mapping size != trace rank count");
  const int m = model.num_sites();
  for (const SiteId s : mapping)
    GEOMAP_CHECK_MSG(s >= 0 && s < m, "mapping names invalid site " << s);

  std::vector<RankState> ranks(static_cast<std::size_t>(p));
  // Pending sends per (src, dst, tag), FIFO — the runtime's matching
  // discipline.
  std::map<std::tuple<int, int, int>, std::deque<PostedSend>> posted;
  std::vector<net::LinkSchedule> links(static_cast<std::size_t>(m) * m);

  // Round-robin: run each rank until it blocks; repeat until done.
  bool progressed = true;
  std::size_t remaining_ops = ops.total_ops();
  while (remaining_ops > 0) {
    GEOMAP_CHECK_MSG(progressed,
                     "replay deadlock: no rank can make progress "
                     "(malformed or truncated trace)");
    progressed = false;
    for (ProcessId r = 0; r < p; ++r) {
      RankState& state = ranks[static_cast<std::size_t>(r)];
      const std::vector<Op>& prog = ops.rank(r);
      while (state.pc < prog.size()) {
        const Op& op = prog[state.pc];
        bool executed = false;
        switch (op.kind) {
          case Op::Kind::kCompute:
            state.now += op.seconds;
            executed = true;
            break;
          case Op::Kind::kSend: {
            posted[{r, op.peer, op.tag}].push_back(
                PostedSend{state.sends_posted, op.bytes, state.now});
            ++state.sends_posted;
            state.send_completion.push_back(kUnmatched);
            executed = true;
            break;
          }
          case Op::Kind::kRecv: {
            auto it = posted.find({op.peer, r, op.tag});
            if (it == posted.end() || it->second.empty()) break;  // blocked
            const PostedSend send = it->second.front();
            it->second.pop_front();
            const SiteId src_site = mapping[static_cast<std::size_t>(op.peer)];
            const SiteId dst_site = mapping[static_cast<std::size_t>(r)];
            const Seconds ready = std::max(send.sender_ready, state.now);
            const Seconds wire =
                model.transfer_time(src_site, dst_site, send.bytes);
            const Seconds completion =
                src_site == dst_site
                    ? ready + wire
                    : links[static_cast<std::size_t>(src_site) * m + dst_site]
                          .reserve(ready, wire);
            state.comm_seconds += completion - state.now;
            state.now = completion;
            ranks[static_cast<std::size_t>(op.peer)]
                .send_completion[static_cast<std::size_t>(send.send_index)] =
                completion;
            executed = true;
            break;
          }
          case Op::Kind::kWait: {
            GEOMAP_CHECK_MSG(
                op.send_index >= 0 &&
                    op.send_index <
                        static_cast<std::int64_t>(state.send_completion.size()),
                "wait references unknown send #" << op.send_index);
            const Seconds completion =
                state.send_completion[static_cast<std::size_t>(op.send_index)];
            if (completion == kUnmatched) break;  // blocked on the receiver
            if (completion > state.now) {
              state.comm_seconds += completion - state.now;
              state.now = completion;
            }
            executed = true;
            break;
          }
        }
        if (!executed) break;  // rank is blocked; move to the next rank
        ++state.pc;
        --remaining_ops;
        progressed = true;
      }
    }
  }

  // Every posted send must have been matched.
  for (const auto& [key, queue] : posted) {
    GEOMAP_CHECK_MSG(queue.empty(), "trace left unmatched sends");
  }

  ReplayResult result;
  result.finish_times.reserve(static_cast<std::size_t>(p));
  for (const RankState& state : ranks) {
    result.finish_times.push_back(state.now);
    result.makespan = std::max(result.makespan, state.now);
    result.max_comm_seconds =
        std::max(result.max_comm_seconds, state.comm_seconds);
  }
  return result;
}

}  // namespace geomap::sim
