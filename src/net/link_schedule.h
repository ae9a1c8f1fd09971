#pragma once
// Virtual-time schedule of one serializing inter-site link: the busy
// intervals already reserved on it, kept sorted by start time. A
// transfer reserves the first gap that fits at or after its ready time
// (busy-interval first fit), so a transfer that is early in *virtual*
// time is never queued behind one that was merely reserved earlier.
//
// Shared by the threaded runtime (Runtime::acquire_link, which guards
// each link with its own mutex) and the op-trace replay (sim::replay_ops).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace geomap::net {

class LinkSchedule {
 public:
  /// Reserve `wire` seconds at the earliest start >= `ready` that does
  /// not overlap a reserved interval; returns the completion time. `tag`
  /// labels the new interval (a critical-path event id, or -1). When the
  /// transfer had to wait, `*pred_out` (if non-null) receives the tag of
  /// the last interval that pushed its start back; otherwise -1.
  Seconds reserve(Seconds ready, Seconds wire, std::int64_t tag = -1,
                  std::int64_t* pred_out = nullptr) {
    Seconds start = ready;
    std::int64_t pred = -1;
    std::size_t insert_at = 0;
    for (; insert_at < busy_.size(); ++insert_at) {
      const Interval& b = busy_[insert_at];
      if (start + wire <= b.start) break;  // fits before this one
      if (b.end > start) pred = b.tag;     // this occupancy pushed us back
      start = std::max(start, b.end);
    }
    const Seconds completion = start + wire;
    busy_.insert(busy_.begin() + static_cast<std::ptrdiff_t>(insert_at),
                 Interval{start, completion, tag});
    if (pred_out != nullptr) *pred_out = start > ready ? pred : -1;
    return completion;
  }

  /// Forget every reservation (the link is idle again).
  void clear() { busy_.clear(); }

 private:
  struct Interval {
    Seconds start = 0;
    Seconds end = 0;
    std::int64_t tag = -1;
  };
  std::vector<Interval> busy_;
};

}  // namespace geomap::net
