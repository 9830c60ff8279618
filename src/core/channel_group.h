// Shared machinery behind the per-blade ChannelGroup implementations (contract in
// src/core/access_channel.h).
//
// Every in-tree system commits a group the same way: k-way merge the member lanes'
// uncommitted runs in (clock, thread) order — the exact order serial per-op replay
// interleaves same-blade threads — and walk the merged stream once, applying per-op side
// effects and finalizing latencies as the walk goes. Only two steps differ per system:
// how an op's latency is produced (read back from the submitted completions when Submit
// was exact, or re-simulated against live blade state — GAM's library lock — when it
// could only bound them) and what the per-op apply does. GroupMergeCommit factors the
// merge so those two steps are inlined lambdas: no per-op virtual dispatch anywhere in a
// group commit.
#ifndef MIND_SRC_CORE_CHANNEL_GROUP_H_
#define MIND_SRC_CORE_CHANNEL_GROUP_H_

#include <cstddef>
#include <cstdint>

#include "src/blade/dram_cache.h"
#include "src/common/histogram.h"
#include "src/core/access_channel.h"

namespace mind {

// The per-op apply shared by every in-tree group commit: untag the frame-pointer token
// (bit 0 = write), bump LRU recency, set the dirty bit, and classify a first touch of a
// prefetched page through `on_prefetched_touch(page)`. Keeping this in ONE place is what
// keeps the three systems' commit sites bit-identical to their serial Access hit paths
// (the conformance suite's core guarantee).
template <typename OnPrefetchedTouch>
inline void ApplyCommitToken(DramCache& cache, const Completion& completion,
                             OnPrefetchedTouch&& on_prefetched_touch) {
  const uint64_t tagged = completion.token.bits;
  auto* frame = reinterpret_cast<DramCache::Frame*>(tagged & ~uint64_t{1});
  cache.Touch(frame);
  if ((tagged & 1) != 0) {
    frame->dirty = true;
  }
  if (frame->prefetched) [[unlikely]] {  // First touch of a prefetched page: useful.
    frame->prefetched = false;
    on_prefetched_touch(frame->page);
  }
}

// Folds each lane's committed latencies into `hist`: O(1) per uniform lane via RecordN —
// the cross-thread batched accounting MIND's TSO hit runs get — and per-op otherwise
// (non-uniform lanes always carry written completion latencies). The shared tail of every
// CommitMerged.
void RecordLaneLatencies(const GroupLane* lanes, size_t n, Histogram& hist);

// Lane counts at or below this use GroupMergeCommit's branchy linear scan (the whole
// comparison state fits in registers and a blade rarely hosts more threads); larger
// groups pay O(log n) compares per committed op through GroupMergeLoserTree instead of
// O(n). Crossover measured by BM_GroupMerge (bench/microbench_core.cc).
inline constexpr size_t kGroupMergeLinearScanMax = 8;

// k-way merge cursor for GroupMergeCommit at large lane counts: a classic loser tree.
// Internal nodes hold tournament losers, the overall winner sits outside the tree, and
// advancing replays only the winner's leaf-to-root path. Dead lanes (exhausted, or
// frontier at/past the horizon) lose every compare against a live lane, so the winner is
// exactly the linear scan's argmin by (end_clock, thread_index) over live lanes — merge
// order, and therefore replay results, are bit-identical to the linear path.
//
// The caller owns the lanes: commit the winner (advancing its end_clock / committed),
// then Reseat() to restore the tournament for the changed key.
class GroupMergeLoserTree {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  GroupMergeLoserTree(const GroupLane* lanes, size_t n, SimTime horizon);

  // Lane to commit from next, or kNone once every lane is dead.
  [[nodiscard]] size_t Winner() const { return Dead(winner_) ? kNone : winner_; }

  // Re-seats the tournament after the winner lane's key changed; returns the new Winner().
  size_t Reseat();

 private:
  [[nodiscard]] bool Dead(size_t i) const {
    return i >= n_ || lanes_[i].committed >= lanes_[i].count ||
           lanes_[i].end_clock >= horizon_;
  }
  // Strict merge order: live before dead, then (end_clock, thread_index); thread_index is
  // unique per lane, so the order is total over live lanes.
  [[nodiscard]] bool Before(size_t a, size_t b) const;

  const GroupLane* lanes_;
  size_t n_;
  SimTime horizon_;
  size_t pow2_ = 1;    // Leaf slots: n rounded up to a power of two (pad lanes are dead).
  size_t winner_ = 0;
  size_t loser_[ChannelGroup::kMaxGroupLanes];  // Internal nodes 1..pow2_-1; [0] unused.
};

// The shared merge-commit walk. Merges the lanes in (clock, thread_index) order and
// commits every op whose start clock lies strictly below `horizon`:
//
//   latency_of(lane, op_index) -> SimTime   finalized latency of lane.comps[op_index];
//                                           called with lane.end_clock holding the op's
//                                           start clock, and may rewrite the completion
//                                           (systems finalizing against live blade state
//                                           record the exact value there).
//   apply(lane, op_index)                   per-op side effects (LRU recency, dirty bit,
//                                           prefetched-touch), in merged order.
//
// Lane out-fields (committed / end_clock / last_start / latency_sum) are (re)written from
// scratch; accounting goes to `hist` via RecordLaneLatencies. Returns total committed.
//
// The per-op argmin is a linear scan up to kGroupMergeLinearScanMax lanes and a
// GroupMergeLoserTree above it; both yield the same (end_clock, thread_index) winner, so
// the merge order — and every committed result — is identical either way. A one-thread
// blade is a one-lane merge through the same walk.
template <typename LatencyFn, typename ApplyFn>
uint64_t GroupMergeCommit(GroupLane* lanes, size_t n, SimTime horizon, SimTime think,
                          Histogram& hist, LatencyFn&& latency_of, ApplyFn&& apply) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    GroupLane& ln = lanes[i];
    ln.committed = 0;
    ln.end_clock = ln.clock;
    ln.last_start = ln.clock;
    ln.latency_sum = 0;
  }
  auto commit_one = [&](GroupLane& best) {
    const size_t idx = best.committed;
    const SimTime start = best.end_clock;
    const SimTime latency = latency_of(best, idx);
    apply(best, idx);
    best.last_start = start;
    best.latency_sum += latency;
    best.end_clock = start + latency + think;
    ++best.committed;
    ++total;
  };
  if (n <= kGroupMergeLinearScanMax) {
    for (;;) {
      GroupLane* best = nullptr;
      for (size_t i = 0; i < n; ++i) {
        GroupLane& ln = lanes[i];
        if (ln.committed >= ln.count || ln.end_clock >= horizon) {
          continue;
        }
        if (best == nullptr || ln.end_clock < best->end_clock ||
            (ln.end_clock == best->end_clock && ln.thread_index < best->thread_index)) {
          best = &ln;
        }
      }
      if (best == nullptr) {
        break;
      }
      commit_one(*best);
    }
  } else {
    GroupMergeLoserTree tree(lanes, n, horizon);
    for (size_t w = tree.Winner(); w != GroupMergeLoserTree::kNone; w = tree.Reseat()) {
      commit_one(lanes[w]);
    }
  }
  RecordLaneLatencies(lanes, n, hist);
  return total;
}

}  // namespace mind

#endif  // MIND_SRC_CORE_CHANNEL_GROUP_H_
