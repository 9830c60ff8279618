// Pattern-aware far-memory prefetching (the swap-path optimization MIND's miss latency
// motivates; Leap [Al Maruf & Chowdhury, ATC'20] style).
//
// The data plane resolves hits in O(1) and replays them in batched channel runs, so on
// miss-heavy workloads the remote fault is the dominant remaining cost. A PrefetchEngine
// per (thread, blade) watches the thread's *fault stream* — exactly what a kernel swap
// prefetcher sees — and speculatively fetches ahead of it:
//
//   * kNextN          — sequential readahead: on a fault at page p, fetch p+1..p+W.
//   * kMajorityStride — Leap's majority-vote stride detection: the majority delta of the
//                       recent access history (Boyer-Moore vote + verification count)
//                       becomes the prefetch stride; no majority, no speculation. The
//                       prefetch window W grows on useful prefetches and shrinks on
//                       late/stale ones, bounded by [min_window, max_window].
//
// Touches of prefetched pages are fed back into the history (the analog of the minor
// faults Leap observes on pages the prefetcher already brought in), so a fully covered
// sequential stream keeps looking stride-1 to the detector instead of degenerating into
// window-sized jumps.
//
// Prefetches are speculative and asynchronous: they are issued after the triggering
// demand fault completes, traverse the same simulated fabric as demand fetches, and land
// in a bounded per-engine in-flight queue. A blade installs arrived prefetches at its
// next serialized access; an invalidation wave that hits the page's 2 MB cache region
// between issue and arrival makes the fetched copy stale, and the install is discarded
// (DramCache::region_inval_version). Accounting distinguishes issued / useful (demand hit
// after arrival) / late (demand arrived while still in flight) / evicted-unused /
// discarded-stale, from which reports derive coverage and accuracy.
//
// Every system drives this machinery through one pipeline, PrefetchUnit
// (src/prefetch/prefetch_unit.h), which owns the engines and the per-blade tables and
// does the installs, joins and issue windows; a system supplies only its fetch timing.
// State ownership mirrors the AccessChannel phase discipline: all state here is owned by
// one blade (BladePrefetchState) or one (thread, blade) engine, mutated only on the
// serialized drain or in same-blade channel commits.
#ifndef MIND_SRC_PREFETCH_PREFETCH_H_
#define MIND_SRC_PREFETCH_PREFETCH_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/common/types.h"

// detlint: mailbox(stats_)  -- PrefetchEngine::stats_ is per-(thread, blade) engine
// state, folded into the system report only at serialized points (PrefetchUnit::Stats);
// mutations reached from channel/group commits are scratch writes, not global counters.

namespace mind {

enum class PrefetchPolicy : uint8_t {
  kNone = 0,        // No speculation (the default; replay stays bit-identical to pre-PR).
  kNextN,           // Sequential readahead.
  kMajorityStride,  // Leap-style majority-vote stride detection.
};

[[nodiscard]] constexpr const char* ToString(PrefetchPolicy p) {
  switch (p) {
    case PrefetchPolicy::kNone:
      return "none";
    case PrefetchPolicy::kNextN:
      return "nextn";
    case PrefetchPolicy::kMajorityStride:
      return "stride";
  }
  return "?";
}

// Accepts the ToString spellings (used by --prefetch= flags and MIND_PREFETCH).
[[nodiscard]] std::optional<PrefetchPolicy> ParsePrefetchPolicy(std::string_view s);

struct PrefetchConfig {
  PrefetchPolicy policy = PrefetchPolicy::kNone;
  uint32_t history = 32;         // Access-history ring capacity (fault-granularity).
  uint32_t min_window = 4;       // Adaptive prefetch-degree floor...
  uint32_t initial_window = 8;
  uint32_t max_window = 64;      // ...and ceiling.
  uint32_t max_in_flight = 128;  // Bounded in-flight prefetch queue per engine.

  [[nodiscard]] bool enabled() const { return policy != PrefetchPolicy::kNone; }
};

// Monotonic counters; reports take field-wise deltas over a run.
struct PrefetchStats {
  uint64_t issued = 0;           // Prefetch fetches sent to a memory blade.
  uint64_t useful = 0;           // Prefetched pages demand-hit after arrival.
  uint64_t late = 0;             // Demand arrived while the prefetch was in flight.
  uint64_t evicted_unused = 0;   // Installed but evicted/invalidated before any use.
  uint64_t discarded_stale = 0;  // In-flight fetch invalidated before arrival.
  uint64_t rearmed = 0;          // Windows re-armed by touches past the issued midpoint.
  uint64_t throttled = 0;        // Windows skipped by fabric occupancy feedback.

  void Merge(const PrefetchStats& o) {
    issued += o.issued;
    useful += o.useful;
    late += o.late;
    evicted_unused += o.evicted_unused;
    discarded_stale += o.discarded_stale;
    rearmed += o.rearmed;
    throttled += o.throttled;
  }

  [[nodiscard]] PrefetchStats DeltaSince(const PrefetchStats& before) const {
    PrefetchStats d;
    d.issued = issued - before.issued;
    d.useful = useful - before.useful;
    d.late = late - before.late;
    d.evicted_unused = evicted_unused - before.evicted_unused;
    d.discarded_stale = discarded_stale - before.discarded_stale;
    d.rearmed = rearmed - before.rearmed;
    d.throttled = throttled - before.throttled;
    return d;
  }

  // Fraction of issued prefetches that were demand-hit after arrival.
  [[nodiscard]] double Accuracy() const {
    return issued == 0 ? 0.0 : static_cast<double>(useful) / static_cast<double>(issued);
  }

  friend bool operator==(const PrefetchStats&, const PrefetchStats&) = default;
};

// Majority-vote stride detector over a bounded access-history ring (page numbers at fault
// granularity). Public so the unit tests can drive it against a naive reference model.
class StrideDetector {
 public:
  explicit StrideDetector(uint32_t history_capacity)
      : ring_(history_capacity < 2 ? 2 : history_capacity) {}

  void Record(uint64_t page) {
    ring_[head_] = page;
    head_ = (head_ + 1) % ring_.size();
    if (size_ < ring_.size()) {
      ++size_;
    }
  }

  // The majority delta of the recorded history: a nonzero stride S such that strictly
  // more than half of the consecutive deltas in the ring equal S (Boyer-Moore candidate
  // pass + verification count). 0 when the history is too short (warm-up: fewer than
  // kWarmupDeltas deltas) or no delta has a majority — no speculation without a pattern.
  [[nodiscard]] int64_t MajorityStride() const;

  [[nodiscard]] uint32_t size() const { return size_; }
  static constexpr uint32_t kWarmupDeltas = 3;

 private:
  std::vector<uint64_t> ring_;  // Oldest-to-newest order is head_..head_+size_ (mod).
  uint32_t size_ = 0;
  uint32_t head_ = 0;
};

// Per-(thread, blade) prefetcher: history + policy + adaptive window + bounded in-flight
// budget + counters. PrefetchUnit wires it into a system's fetch path: it asks Predict
// for candidate pages after each demand fault, has the system model the fetches, and
// reports the outcome of every issued prefetch back through exactly one of OnInstalled/
// OnLate/OnDiscardedStale (freeing the in-flight slot), then OnUseful/OnEvictedUnused
// once the installed page's fate is known.
class PrefetchEngine {
 public:
  explicit PrefetchEngine(const PrefetchConfig& config)
      : config_(config),
        detector_(config.history),
        window_(std::min(std::max(config.initial_window, config.min_window),
                         config.max_window)) {}

  // One demand fault (including late joins of in-flight prefetches).
  void RecordFault(uint64_t page) { detector_.Record(page); }

  // Appends up to window() candidate pages following a fault at `page` (dedup against the
  // cache/in-flight tables is the caller's job; the engine only predicts).
  void Predict(uint64_t page, std::vector<uint64_t>* out) const;

  // In-flight budget.
  [[nodiscard]] bool HasInFlightRoom() const { return in_flight_ < config_.max_in_flight; }
  void OnIssued() {
    ++in_flight_;
    ++stats_.issued;
  }
  // Arrived and installed into the blade cache (fate still unknown).
  void OnInstalled() { --in_flight_; }
  // A demand miss joined (or collided with) the fetch while still in flight.
  void OnLate() {
    --in_flight_;
    ++stats_.late;
    Shrink();
  }
  // An invalidation wave hit the page's region before arrival; the copy was discarded.
  void OnDiscardedStale() {
    --in_flight_;
    ++stats_.discarded_stale;
    Shrink();
  }

  // First demand touch of an installed prefetched page. Grows the window and feeds the
  // touch into the history — the minor-fault stream Leap observes — so a fully covered
  // stream keeps its true stride visible to the detector. A touch past the midpoint of
  // the last *issued* window re-arms the engine (the readahead-marker analog): the next
  // window should go out at the blade's next serialized opportunity instead of waiting
  // for coverage to run dry and a real fault to restart the pipeline. Touches reach here
  // from the serialized hit paths AND from channel/group commits, which is what lets a
  // fully-covered stream that never faults keep its pipeline full.
  void OnUseful(uint64_t page) {
    ++stats_.useful;
    detector_.Record(page);
    window_ = std::min(window_ * 2, config_.max_window);
    if (issued_window_active_) {
      const auto covered = static_cast<int64_t>(page - issued_anchor_);
      const auto span = static_cast<int64_t>(issued_end_ - issued_anchor_);
      if (2 * std::abs(covered) >= std::abs(span)) {
        issued_window_active_ = false;  // Arm at most once per issued window.
        rearm_pending_ = true;
        rearm_page_ = page;
        ++stats_.rearmed;
      }
    }
  }

  // Records the span of an issued prefetch window: `anchor` is the demand page the
  // predictions grew from, `end` the farthest page actually issued (either direction).
  void NoteIssuedWindow(uint64_t anchor, uint64_t end) {
    issued_anchor_ = anchor;
    issued_end_ = end;
    issued_window_active_ = true;
  }

  // Consumes a pending re-arm request: the page to predict the next window from, if a
  // useful touch crossed the issued window's midpoint since the last call.
  [[nodiscard]] std::optional<uint64_t> TakeRearm() {
    if (!rearm_pending_) {
      return std::nullopt;
    }
    rearm_pending_ = false;
    return rearm_page_;
  }
  // Installed page left the cache without ever being touched.
  void OnEvictedUnused() {
    ++stats_.evicted_unused;
    Shrink();
  }
  // The target blade's fabric port crossed the occupancy threshold: the window was
  // skipped outright (speculation must not deepen a queue demand traffic is stuck in).
  void OnFabricPressure() {
    ++stats_.throttled;
    Shrink();
  }

  [[nodiscard]] uint32_t window() const { return window_; }
  [[nodiscard]] uint32_t in_flight() const { return in_flight_; }
  [[nodiscard]] const PrefetchStats& stats() const { return stats_; }
  [[nodiscard]] const StrideDetector& detector() const { return detector_; }
  [[nodiscard]] const PrefetchConfig& config() const { return config_; }

 private:
  void Shrink() { window_ = std::max(window_ / 2, config_.min_window); }

  PrefetchConfig config_;
  StrideDetector detector_;
  uint32_t window_;
  uint32_t in_flight_ = 0;
  PrefetchStats stats_;
  // Issued-window tracking for the re-arm trigger (see OnUseful).
  bool issued_window_active_ = false;
  bool rearm_pending_ = false;
  uint64_t issued_anchor_ = 0;
  uint64_t issued_end_ = 0;
  uint64_t rearm_page_ = 0;
};

// Per-blade bookkeeping shared by that blade's engines: the in-flight table (page ->
// pending fetch) and the installed-but-unused table that classifies useful vs
// evicted-unused. Mutated only under the serialized drain or same-blade channel commits.
class BladePrefetchState {
 public:
  struct InFlight {
    SimTime ready_at = 0;
    uint64_t inval_stamp = 0;  // DramCache::region_inval_version at issue time.
    PrefetchEngine* owner = nullptr;
    ProtDomainId pdid = 0;
  };

  std::unordered_map<uint64_t, InFlight> in_flight;        // page -> pending fetch.
  std::unordered_map<uint64_t, PrefetchEngine*> unused;    // installed, never touched.

  // Re-arm requests recorded by hit paths and channel/group commits (an engine whose
  // useful touches crossed its issued window's midpoint, with the page to predict from
  // and the toucher's protection domain). The owning system drains these at its next
  // serialized prefetch point — the first place issuing new fetches is safe.
  struct Rearm {
    PrefetchEngine* engine = nullptr;
    uint64_t page = 0;
    ProtDomainId pdid = 0;
  };
  std::vector<Rearm> rearm_requests;

  // Earliest in-flight arrival; lets the per-access install hook skip the table scan
  // while nothing can be ready yet.
  [[nodiscard]] SimTime next_ready() const { return next_ready_; }
  void NoteIssued(SimTime ready_at) {
    next_ready_ = in_flight.empty() ? ready_at : std::min(next_ready_, ready_at);
  }
  void RecomputeNextReady() {
    next_ready_ = ~SimTime{0};
    // detlint: allow(unordered-iteration): pure min-reduce; order-invariant.
    for (const auto& [page, entry] : in_flight) {
      next_ready_ = std::min(next_ready_, entry.ready_at);
    }
  }

  // Removes and returns the entries whose fetch has arrived by `now`, sorted by
  // (ready_at, page): install order decides LRU recency — and therefore eviction
  // choice — so it must be deterministic, never hash-map iteration order.
  MIND_SERIALIZED_PATH [[nodiscard]] std::vector<std::pair<uint64_t, InFlight>> TakeReady(
      SimTime now) {
    std::vector<std::pair<uint64_t, InFlight>> ready;
    if (in_flight.empty() || now < next_ready_) {
      return ready;
    }
    // detlint: allow(unordered-iteration): collected entries are sorted by
    // (ready_at, page) below before anything order-sensitive consumes them.
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->second.ready_at > now) {
        ++it;
      } else {
        ready.emplace_back(it->first, it->second);
        it = in_flight.erase(it);
      }
    }
    std::sort(ready.begin(), ready.end(), [](const auto& a, const auto& b) {
      return a.second.ready_at != b.second.ready_at
                 ? a.second.ready_at < b.second.ready_at
                 : a.first < b.first;
    });
    RecomputeNextReady();
    return ready;
  }

  // Adaptive cold-insertion depth for speculative installs (prefetch-aware eviction
  // priority, DramCache::InsertPrefetched): prefetched pages enter the blade cache this
  // many frames above the LRU tail instead of at MRU, so a mispredicting burst churns
  // its own guesses instead of evicting demand-faulted pages. Useful touches walk the
  // depth up (accurate speculation earns residency ahead of more of the cold tail);
  // every evicted-unused event halves it.
  [[nodiscard]] uint32_t cold_insert_depth() const { return cold_depth_; }
  static constexpr uint32_t kMinColdDepth = 8;
  static constexpr uint32_t kMaxColdDepth = 512;

  // Resolves installed-but-unused entries whose pages already left the cache (waves drop
  // clean pages without reporting them, so evicted-unused classifies lazily here).
  // `still_prefetched(page)` reports whether the page is still cached with its
  // prefetched marking intact.
  template <typename StillPrefetchedFn>
  MIND_SERIALIZED_PATH void ResolveEvictedUnused(StillPrefetchedFn&& still_prefetched) {
    // detlint: allow(unordered-iteration): per-entry counter bumps commute; no
    // order-sensitive state is derived from the visit order.
    for (auto it = unused.begin(); it != unused.end();) {
      if (still_prefetched(it->first)) {
        ++it;
      } else {
        it->second->OnEvictedUnused();
        ShrinkColdDepth();
        it = unused.erase(it);
      }
    }
  }

  // First demand touch of an installed prefetched page (hit paths and channel/group
  // commits call this with frame->prefetched already checked true by the caller; `pdid`
  // is the toucher's domain, threaded through to any re-arm issue it triggers).
  // Reached from channel/group commits as well as serialized hit paths; tagged for the
  // stricter context (all mutations are blade- or engine-confined mailboxes).
  MIND_PARALLEL_PHASE void OnPrefetchedTouch(uint64_t page, ProtDomainId pdid = 0) {
    auto it = unused.find(page);
    if (it != unused.end()) {
      PrefetchEngine* engine = it->second;
      engine->OnUseful(page);
      unused.erase(it);
      cold_depth_ = std::min(cold_depth_ + 8, kMaxColdDepth);
      if (auto rearm = engine->TakeRearm(); rearm.has_value()) {
        rearm_requests.push_back(Rearm{engine, *rearm, pdid});
      }
    }
  }

  // Eviction feedback: a page leaving the cache that was installed-but-unused.
  void OnPageEvicted(uint64_t page) {
    auto it = unused.find(page);
    if (it != unused.end()) {
      it->second->OnEvictedUnused();
      ShrinkColdDepth();
      unused.erase(it);
    }
  }

 private:
  void ShrinkColdDepth() { cold_depth_ = std::max(cold_depth_ / 2, kMinColdDepth); }

  SimTime next_ready_ = ~SimTime{0};
  uint32_t cold_depth_ = 64;
};

}  // namespace mind

#endif  // MIND_SRC_PREFETCH_PREFETCH_H_
