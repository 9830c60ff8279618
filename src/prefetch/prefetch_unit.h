// One prefetch pipeline for every compared system (MIND's rack, GAM, FastSwap).
//
// The three systems run the same speculative-fetch lifecycle over their blade caches, so
// PrefetchUnit owns it: the per-thread engines, the per-blade in-flight and
// installed-unused tables (BladePrefetchState), and the prediction scratch. It does every
// step the systems share:
//
//   * InstallReady — installs the fetches that arrived at a blade. A copy whose 2 MB
//     cache region an invalidation reached since issue is discarded
//     (DramCache::region_inval_version); a page a demand fault re-fetched meanwhile is
//     skipped; the rest insert at the blade's adaptive cold LRU depth with evicted-unused
//     feedback for the victim. Then the engines whose useful touches re-armed them issue
//     their next window.
//   * JoinInFlight — a demand fault whose page is in flight takes the fetch. A good copy
//     is joined when the system allows it; otherwise a stale copy is discarded and a good
//     one the demand cannot use counts late.
//   * AfterFault — records the fault and runs an issue window: predict; skip an empty
//     prediction; skip (and shrink) the window while the trigger page's fabric port is
//     under pressure (kPressureThreshold); then admit candidates while the engine has
//     in-flight room and the page is neither cached nor already in flight.
//   * Stats — resolves evicted-unused pages and sums the engines' counters.
//
// A system supplies only what differs: through Host, how a candidate is admitted and
// timed, the bytes a speculative install copies and how a dirty victim is written back;
// through JoinInFlight's callback, how a served join is timed and charged; and, fixed at
// construction, whether installs are writable.
//
// Everything here runs on serialized paths (Access misses and AdvanceTo). The hit paths
// and channel/group commits only report first touches, through
// blade(b).OnPrefetchedTouch, which is confined to that blade.
#ifndef MIND_SRC_PREFETCH_PREFETCH_UNIT_H_
#define MIND_SRC_PREFETCH_PREFETCH_UNIT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/blade/dram_cache.h"
#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/obs/trace.h"
#include "src/prefetch/prefetch.h"

namespace mind {

class PrefetchUnit {
 public:
  // What the owning system supplies to the shared pipeline.
  class Host {
   public:
    // Admits candidate `page` of a window `blade` issues at `start` for domain `pdid`,
    // and models its fetch: returns when the page is ready to install, or nullopt to skip
    // the candidate. Admission may claim what the fetch uses (fabric ports, a lock, a
    // sharer bit in the directory).
    virtual std::optional<SimTime> AdmitPrefetch(ComputeBladeId blade, ProtDomainId pdid,
                                                 uint64_t page, SimTime start) = 0;
    // Demand utilization, in [0, 1], of the fabric port the fetches of `page` go through.
    [[nodiscard]] virtual double PrefetchPortUtilization(uint64_t page) const = 0;
    // The bytes a speculative install of `page` copies (store_data mode), else null.
    virtual const PageData* PrefetchPayload(uint64_t /*page*/) { return nullptr; }
    // Writes back a dirty `victim` that an install at `blade` evicted at `now`.
    virtual void WriteBackVictim(ComputeBladeId blade, const DramCache::Eviction& victim,
                                 SimTime now) = 0;
  };

  // The demand fault a join or an issue window belongs to.
  struct Fault {
    ThreadId tid = 0;
    ComputeBladeId blade = 0;
    ProtDomainId pdid = 0;
    uint64_t page = 0;
  };

  // A window is skipped while the trigger page's port utilization exceeds this.
  static constexpr double kPressureThreshold = 0.75;

  // `config` is the owner's, which SetPrefetchPolicy edits in place; `host` is the owner.
  PrefetchUnit(const PrefetchConfig& config, Host* host, bool writable_installs)
      : config_(config), host_(host), writable_installs_(writable_installs) {}
  // Holds its owner's address: a copy would drive the wrong system.
  PrefetchUnit(const PrefetchUnit&) = delete;
  PrefetchUnit& operator=(const PrefetchUnit&) = delete;

  // Registers the next compute blade's cache (blade ids are registration order).
  void AddBlade(DramCache& cache) { blades_.push_back(Blade{&cache, {}}); }
  void SetTraceSink(TraceSink* sink) { trace_ = sink; }

  [[nodiscard]] BladePrefetchState& blade(ComputeBladeId b) { return blades_[b].state; }

  // Installs the fetches arrived at `blade` by `now`, then issues re-armed windows.
  MIND_SERIALIZED_PATH void InstallReady(ComputeBladeId blade, SimTime now);
  // InstallReady for every blade, when prefetching is on. A fully covered stream records
  // re-arms from hit paths and channel commits that would otherwise wait for a serialized
  // access the blade may never take again.
  MIND_SERIALIZED_PATH void AdvanceTo(SimTime now);

  // The demand fault `f` at `now` meets its page in flight, if it is. A copy no
  // invalidation reached since issue is joined when `joinable`: the fetch counts late
  // (the demand arrived while it was still in flight), `serve(ready_at)` installs the
  // page, charges the access and returns its completion, the join is traced useful and
  // the next window issues from that completion. Otherwise the fetch is dropped: a stale
  // copy is discarded, a good one the demand cannot use counts late. True when served.
  template <typename ServeFn>
  MIND_SERIALIZED_PATH bool JoinInFlight(const Fault& f, SimTime now, bool joinable,
                                         ServeFn&& serve) {
    const std::optional<SimTime> ready_at = TakeInFlight(f, now, joinable);
    if (!ready_at.has_value()) {
      return false;
    }
    const SimTime done = std::forward<ServeFn>(serve)(*ready_at);
    TraceUseful(f, now, done);
    AfterFault(f, done);
    return true;
  }

  // Records the demand fault `f` and issues its engine's next window at `done`, when the
  // fault completed.
  MIND_SERIALIZED_PATH void AfterFault(const Fault& f, SimTime done);

  // Evicted-unused feedback for a page a demand install evicted from `blade`.
  void OnDemandEviction(ComputeBladeId blade, uint64_t page) {
    if (config_.enabled()) {
      blades_[blade].state.OnPageEvicted(page);
    }
  }

  // Traces a prefetch that served the demand fault `f` at `now`, completing at `done`.
  void TraceUseful(const Fault& f, SimTime now, SimTime done);

  // Resolves installed-but-unused pages that already left their cache, then sums the
  // engines' counters.
  MIND_SERIALIZED_PATH PrefetchStats Stats();

 private:
  struct Blade {
    DramCache* cache = nullptr;
    BladePrefetchState state;
  };

  // Removes `f.page`'s in-flight fetch, if any; returns its arrival time when the demand
  // joins it, after accounting a refused join.
  std::optional<SimTime> TakeInFlight(const Fault& f, SimTime now, bool joinable);
  // Predicts from `page` and issues `engine`'s window at `start`.
  void Issue(PrefetchEngine& engine, ComputeBladeId blade, ProtDomainId pdid, uint64_t page,
             SimTime start);
  void TraceDiscard(ComputeBladeId blade, ThreadId tid, uint64_t page, SimTime now,
                    bool at_join);

  const PrefetchConfig& config_;
  Host* host_;
  bool writable_installs_;
  TraceSink* trace_ = nullptr;  // Serialized-path writes only.
  std::vector<Blade> blades_;
  std::unordered_map<ThreadId, std::unique_ptr<PrefetchEngine>> engines_;
  std::vector<uint64_t> scratch_;  // Predictions of the window being issued.
};

}  // namespace mind

#endif  // MIND_SRC_PREFETCH_PREFETCH_UNIT_H_
