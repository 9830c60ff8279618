#include "src/prefetch/prefetch_unit.h"

namespace mind {

MIND_SERIALIZED_PATH void PrefetchUnit::InstallReady(ComputeBladeId blade_id, SimTime now) {
  Blade& b = blades_[blade_id];
  BladePrefetchState& bp = b.state;
  DramCache& cache = *b.cache;
  for (const auto& [page, entry] : bp.TakeReady(now)) {
    if (cache.region_inval_version(DramCache::RegionOf(page)) != entry.inval_stamp) {
      // An invalidation outran the fetch: the copy is stale, never install it.
      entry.owner->OnDiscardedStale();
      TraceDiscard(blade_id, /*tid=*/0, page, now, /*at_join=*/false);
      continue;
    }
    entry.owner->OnInstalled();
    if (cache.Find(page) != nullptr) {
      continue;  // A demand fault re-fetched it meanwhile; nothing to install.
    }
    // Speculative installs enter at the blade's adaptive cold LRU depth (prefetch-aware
    // eviction priority): a mispredicting burst evicts its own guesses first.
    auto evicted = cache.InsertPrefetched(page, writable_installs_,
                                          host_->PrefetchPayload(page), entry.pdid,
                                          bp.cold_insert_depth());
    if (evicted.has_value()) {
      bp.OnPageEvicted(evicted->page);
      if (evicted->dirty) {
        host_->WriteBackVictim(blade_id, *evicted, entry.ready_at);
      }
    }
    bp.unused[page] = entry.owner;
  }
  // Engines whose useful touches crossed their issued window's midpoint issue the next
  // window here, the blade's first serialized point, so a fully covered stream keeps
  // fetching without waiting for a real fault to restart it.
  for (size_t i = 0; i < bp.rearm_requests.size(); ++i) {
    const BladePrefetchState::Rearm rearm = bp.rearm_requests[i];
    Issue(*rearm.engine, blade_id, rearm.pdid, rearm.page, now);
  }
  bp.rearm_requests.clear();
}

MIND_SERIALIZED_PATH void PrefetchUnit::AdvanceTo(SimTime now) {
  if (!config_.enabled()) {
    return;
  }
  for (size_t b = 0; b < blades_.size(); ++b) {
    InstallReady(static_cast<ComputeBladeId>(b), now);
  }
}

std::optional<SimTime> PrefetchUnit::TakeInFlight(const Fault& f, SimTime now,
                                                  bool joinable) {
  Blade& b = blades_[f.blade];
  const auto it = b.state.in_flight.find(f.page);
  if (it == b.state.in_flight.end()) {
    return std::nullopt;
  }
  const BladePrefetchState::InFlight entry = it->second;
  b.state.in_flight.erase(it);
  b.state.RecomputeNextReady();
  const bool stale =
      b.cache->region_inval_version(DramCache::RegionOf(f.page)) != entry.inval_stamp;
  if (!stale && joinable) {
    entry.owner->OnLate();
    return entry.ready_at;
  }
  if (stale) {
    entry.owner->OnDiscardedStale();
    TraceDiscard(f.blade, f.tid, f.page, now, /*at_join=*/true);
  } else {
    entry.owner->OnLate();
  }
  return std::nullopt;
}

MIND_SERIALIZED_PATH void PrefetchUnit::AfterFault(const Fault& f, SimTime done) {
  auto it = engines_.find(f.tid);
  if (it == engines_.end()) {
    it = engines_.emplace(f.tid, std::make_unique<PrefetchEngine>(config_)).first;
  }
  PrefetchEngine& engine = *it->second;
  engine.RecordFault(f.page);
  Issue(engine, f.blade, f.pdid, f.page, done);
}

void PrefetchUnit::Issue(PrefetchEngine& engine, ComputeBladeId blade_id, ProtDomainId pdid,
                         uint64_t page, SimTime start) {
  scratch_.clear();
  engine.Predict(page, &scratch_);
  if (scratch_.empty()) {
    return;
  }
  // Occupancy feedback: when demand traffic already saturates the trigger page's port,
  // speculative fetches would only deepen the queue the demand stream is stuck in.
  // Shrink the window instead of issuing it (it regrows on useful touches).
  if (host_->PrefetchPortUtilization(page) > kPressureThreshold) {
    engine.OnFabricPressure();
    return;
  }
  Blade& b = blades_[blade_id];
  uint64_t last_issued = page;
  uint64_t issued = 0;
  for (const uint64_t p : scratch_) {
    if (!engine.HasInFlightRoom()) {
      break;  // Bounded in-flight queue.
    }
    if (b.cache->Find(p) != nullptr || b.state.in_flight.contains(p)) {
      continue;
    }
    const std::optional<SimTime> ready = host_->AdmitPrefetch(blade_id, pdid, p, start);
    if (!ready.has_value()) {
      continue;
    }
    engine.OnIssued();
    b.state.in_flight[p] = BladePrefetchState::InFlight{
        *ready, b.cache->region_inval_version(DramCache::RegionOf(p)), &engine, pdid};
    b.state.NoteIssued(*ready);
    last_issued = p;
    ++issued;
  }
  if (issued == 0) {
    return;
  }
  engine.NoteIssuedWindow(page, last_issued);
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kPrefetchIssue;
    ev.clock = start;
    ev.blade = blade_id;
    ev.a = page;
    ev.b = issued;
    trace_->Emit(ev);
  }
}

void PrefetchUnit::TraceUseful(const Fault& f, SimTime now, SimTime done) {
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kPrefetchUseful;
    ev.clock = now;
    ev.dur = done - now;
    ev.tid = f.tid;
    ev.blade = f.blade;
    ev.a = f.page;
    trace_->Emit(ev);
  }
}

void PrefetchUnit::TraceDiscard(ComputeBladeId blade, ThreadId tid, uint64_t page,
                                SimTime now, bool at_join) {
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kPrefetchDiscard;
    ev.clock = now;
    ev.tid = tid;
    ev.blade = blade;
    ev.a = page;
    ev.b = at_join ? 1 : 0;  // Stale discovered at demand-join time, else at install.
    trace_->Emit(ev);
  }
}

MIND_SERIALIZED_PATH PrefetchStats PrefetchUnit::Stats() {
  for (Blade& b : blades_) {
    const DramCache& cache = *b.cache;
    b.state.ResolveEvictedUnused([&](uint64_t page) {
      const DramCache::Frame* f = cache.Peek(page);
      return f != nullptr && f->prefetched;
    });
  }
  PrefetchStats total;
  // detlint: allow(unordered-iteration): integer adds commute; order-invariant.
  for (const auto& [tid, engine] : engines_) {
    total.Merge(engine->stats());
  }
  return total;
}

}  // namespace mind
