#include "src/core/rack.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "src/core/channel_group.h"

namespace mind {

Rack::Rack(RackConfig config)
    : config_(config),
      tcam_capacity_(config.tcam_rules),
      translator_(&tcam_capacity_),
      protection_(&tcam_capacity_),
      directory_(config.directory_slots),
      stt_(config.protocol),
      splitting_(&directory_, config.splitting),
      controller_(&translator_, &protection_, &splitting_, config.num_compute_blades,
                  config.alloc),
      fabric_(config.num_compute_blades, config.num_memory_blades, config.latency,
              config.fabric),
      lat_(fabric_.latency()),
      fault_plane_(config.fault),
      prefetch_(config_.prefetch, this, /*writable_installs=*/false) {
  compute_blades_.reserve(static_cast<size_t>(config.num_compute_blades));
  for (int i = 0; i < config.num_compute_blades; ++i) {
    compute_blades_.push_back(std::make_unique<ComputeBlade>(
        static_cast<ComputeBladeId>(i), config.cache_frames(), config.store_data,
        config.latency));
    prefetch_.AddBlade(compute_blades_.back()->cache());
  }
  memory_blades_.reserve(static_cast<size_t>(config.num_memory_blades));
  for (int i = 0; i < config.num_memory_blades; ++i) {
    memory_blades_.push_back(std::make_unique<MemoryBlade>(static_cast<MemoryBladeId>(i),
                                                           config.memory_blade_capacity,
                                                           config.store_data));
    const Status s = controller_.MemoryBladeOnline(static_cast<MemoryBladeId>(i),
                                                   config.memory_blade_capacity);
    assert(s.ok());
    (void)s;
  }
}

// ---------------------------------------------------------------------------
// Data-path helpers.
// ---------------------------------------------------------------------------

SimTime Rack::FetchPageFromMemory(VirtAddr va, ComputeBladeId requester, SimTime start,
                                  const PageData** bytes, SimTime* fabric_wait) {
  const auto translated = translator_.Translate(PageBase(va));
  assert(translated.ok() && "translation must exist for an allocated vma");
  const Translation& tr = *translated;
  // Switch egress -> memory blade NIC (header-rewritten one-sided RDMA read, §6.3).
  auto to_mem = fabric_.Route(Endpoint::Switch(), Endpoint::Memory(tr.blade),
                              MessageKind::kRdmaReadRequest, start);
  const SimTime t = to_mem.arrival + lat_.memory_blade_service;
  const PageData* payload = memory_blades_[tr.blade]->ReadPage(PageNumber(tr.phys_addr));
  if (bytes != nullptr) {
    *bytes = payload;
  }
  // Memory blade -> switch -> requesting compute blade (page payload).
  auto to_blade = fabric_.Route(Endpoint::Memory(tr.blade), Endpoint::Compute(requester),
                                MessageKind::kRdmaReadResponse, t);
  if (fabric_wait != nullptr) {
    *fabric_wait += to_mem.total_wait() + to_blade.total_wait();
  }
  return to_blade.arrival;
}

SimTime Rack::WriteBackPage(ComputeBladeId from, uint64_t page, const PageData* data,
                            SimTime start) {
  const auto tr = translator_.Translate(PageToAddr(page));
  if (!tr.ok()) {
    return start;  // vma was unmapped concurrently; drop the write-back.
  }
  auto hop = fabric_.Route(Endpoint::Compute(from), Endpoint::Memory(tr->blade),
                           MessageKind::kRdmaWriteRequest, start);
  const SimTime t = hop.arrival + lat_.memory_blade_service;
  memory_blades_[tr->blade]->WritePage(PageNumber(tr->phys_addr), data);
  return t;
}

void Rack::InsertIntoCache(ComputeBladeId blade_id, uint64_t page, bool writable,
                           const PageData* bytes, SimTime now, ProtDomainId pdid) {
  // Payload storage comes from the blade's slab arena inside Insert (copy of `bytes`, or
  // a zero-filled recycled slot) — no per-fault heap allocation.
  auto evicted = compute_blades_[blade_id]->cache().Insert(page, writable, bytes, pdid);
  if (evicted.has_value()) {
    prefetch_.OnDemandEviction(blade_id, evicted->page);
    if (evicted->dirty) {
      WriteBackVictim(blade_id, *evicted, now);
    }
  }
}

void Rack::WriteBackVictim(ComputeBladeId blade, const DramCache::Eviction& victim,
                           SimTime now) {
  ++stats_.evict_writebacks;
  WriteBackPage(blade, victim.page, victim.data.get(), now);
}

Rack::InvalidationWave Rack::InvalidateBlades(SharerMask targets, const DirectoryEntry& entry,
                                              uint64_t requested_page,
                                              ComputeBladeId requester, SimTime t) {
  InvalidationWave wave;
  if (targets == 0) {
    return wave;
  }
  const auto deliveries = config_.use_multicast ? fabric_.MulticastInvalidation(targets, t)
                                                : fabric_.UnicastInvalidations(targets, t);
  stats_.invalidations_sent += deliveries.size();
  if (trace_ != nullptr) [[unlikely]] {
    // Wave issue: multicast puts every copy on the wire at once, unicast staggers them —
    // the span between first and last delivery makes the difference visible in a trace.
    SimTime first = deliveries.empty() ? t : deliveries.front().delivery.arrival;
    SimTime last = first;
    for (const auto& d : deliveries) {
      first = std::min(first, d.delivery.arrival);
      last = std::max(last, d.delivery.arrival);
    }
    TraceEvent ev;
    ev.kind = TraceEventKind::kWaveIssue;
    ev.clock = t;
    ev.blade = requester != kInvalidComputeBlade ? requester : 0;
    ev.a = targets;
    ev.b = deliveries.size();
    ev.c = config_.use_multicast ? 1 : 0;
    ev.d = last - first;
    trace_->Emit(ev);
  }
  for (const auto& d : deliveries) {
    ComputeBlade& sharer = *compute_blades_[d.blade];
    SimTime arrival = d.delivery.arrival;
    if (fault_plane_.HasStalls()) [[unlikely]] {
      // Stalled blade: the delivery sits in the NIC queue for the window's delay, so its
      // ACK — and the whole wave — lands late at the requester. Pure function of time.
      arrival += fault_plane_.StallDelay(d.blade, arrival);
    }
    auto outcome = sharer.HandleInvalidation(entry.base, entry.end(), arrival);

    SimTime flush_land = outcome.done;
    for (auto& ev : outcome.flushed) {
      flush_land = std::max(flush_land,
                            WriteBackPage(d.blade, ev.page, ev.data.get(), outcome.done));
      if (ev.page != requested_page) {
        ++wave.false_invalidations;
      }
    }
    wave.flushed += outcome.flushed.size();
    wave.clean_drops += outcome.dropped_clean;
    wave.flush_landed = std::max(wave.flush_landed, flush_land);

    // ACK: sharer -> switch -> requesting blade (§4.4: the requester collects ACKs).
    // Forced/capacity invalidations have no requester; their ACK terminates in the
    // switch pipeline (a half-route).
    const Endpoint ack_dst = requester != kInvalidComputeBlade
                                 ? Endpoint::Compute(requester)
                                 : Endpoint::Switch();
    auto ack = fabric_.Route(Endpoint::Compute(d.blade), ack_dst,
                             MessageKind::kInvalidationAck, outcome.done);
    wave.max_ack_at_requester = std::max(wave.max_ack_at_requester, ack.arrival);
    wave.max_queue_wait = std::max(wave.max_queue_wait, outcome.queue_wait);
    wave.max_tlb = std::max(wave.max_tlb, outcome.tlb_time);
  }
  stats_.pages_flushed += wave.flushed;
  stats_.false_invalidations += wave.false_invalidations;
  stats_.clean_drops += wave.clean_drops;
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kInvalidationWave;
    ev.clock = t;
    ev.dur = wave.max_ack_at_requester > t ? wave.max_ack_at_requester - t : 0;
    ev.blade = requester != kInvalidComputeBlade ? requester : 0;
    ev.a = entry.base;
    ev.b = entry.end();
    ev.c = TracePack32(deliveries.size(), wave.flushed);
    ev.d = TracePack32(wave.false_invalidations, wave.clean_drops);
    trace_->Emit(ev);
  }
  return wave;
}

DirectoryEntry* Rack::EnsureDirectoryEntry(VirtAddr va, SimTime& t, Status* error) {
  if (auto* existing = directory_.Lookup(va); existing != nullptr) {
    return existing;
  }
  const VmaRecord* vma = controller_.FindVma(va);
  if (vma == nullptr) {
    *error = Status(ErrorCode::kFault, "address not mapped");
    return nullptr;
  }
  // New entries start at the configured initial region size (16 KB default), clipped to the
  // vma and shrunk until the aligned region lies fully inside it.
  uint64_t region_size = std::max<uint64_t>(
      kPageSize, std::min<uint64_t>(config_.splitting.initial_region_size,
                                    RoundDownPowerOfTwo(vma->size())));
  VirtAddr base = AlignDown(va, region_size);
  while (region_size > kPageSize &&
         (base < vma->base() || base + region_size > vma->end())) {
    region_size >>= 1;
    base = AlignDown(va, region_size);
  }

  auto created = directory_.Create(base, Log2Floor(region_size));
  int eviction_rounds = 0;
  const uint32_t max_region_log2 = Log2Floor(config_.splitting.base_region_size);
  while (!created.ok()) {
    if (created.status().code() == ErrorCode::kExists && region_size > kPageSize) {
      // The region overlaps a surviving entry: the buddy of a removed split half, or a
      // pair merged to make room. Retry with the half holding `va`, down to one page —
      // no entry covers `va` itself, so the 4 KB region cannot overlap.
      region_size >>= 1;
      base = AlignDown(va, region_size);
      created = directory_.Create(base, Log2Floor(region_size));
      continue;
    }
    if (created.status().code() != ErrorCode::kResourceExhausted || eviction_rounds >= 64) {
      *error = created.status();
      return nullptr;
    }
    ++eviction_rounds;
    auto victim_base = directory_.FindEvictionVictim(t);
    if (!victim_base.has_value()) {
      *error = Status(ErrorCode::kResourceExhausted, "directory full and all entries busy");
      return nullptr;
    }
    // Capacity pressure, cheap path first: fold the stale victim into its buddy — a pure
    // control-plane action that frees a slot without touching any blade (coherence state
    // merges conservatively).
    if (directory_.MergeWithBuddy(*victim_base, max_region_log2).ok()) {
      created = directory_.Create(base, Log2Floor(region_size));
      continue;
    }
    // Otherwise force-invalidate the victim region. Every dirty page it flushes is by
    // definition falsely invalidated (nothing in it was requested).
    DirectoryEntry* victim = directory_.Lookup(*victim_base);
    assert(victim != nullptr);
    const SharerMask holders =
        victim->OwnerHeld() ? BladeBit(victim->owner) : victim->sharers;
    auto wave = InvalidateBlades(holders, *victim, UINT64_MAX, kInvalidComputeBlade, t);
    ++stats_.directory_capacity_evictions;
    t = std::max(t, wave.max_ack_at_requester);
    const Status removed = directory_.Remove(*victim_base);
    assert(removed.ok());
    (void)removed;
    created = directory_.Create(base, Log2Floor(region_size));
  }
  return *created;
}

SimTime Rack::PsoReadBarrier(ThreadId tid, VirtAddr va, SimTime now) {
  auto it = pending_writes_.find(tid);
  if (it == pending_writes_.end()) {
    return now;
  }
  auto& pending = it->second;
  SimTime barrier = now;
  for (const auto& w : pending) {
    if (va >= w.begin && va < w.end) {
      barrier = std::max(barrier, w.completion);
    }
  }
  // Prune completed stores.
  std::erase_if(pending, [barrier](const PendingWrite& w) { return w.completion <= barrier; });
  if (pending.empty()) {
    pending_writes_.erase(it);
  }
  return barrier;
}

SimTime Rack::PsoPeekBarrier(ThreadId tid, VirtAddr va, SimTime now) const {
  const auto it = pending_writes_.find(tid);
  if (it == pending_writes_.end()) {
    return now;
  }
  SimTime barrier = now;
  for (const auto& w : it->second) {
    if (va >= w.begin && va < w.end) {
      barrier = std::max(barrier, w.completion);
    }
  }
  return barrier;
}

void Rack::PsoRecordWrite(ThreadId tid, VirtAddr va, SimTime completion) {
  // Store-buffer granularity is the page: a later read of the *same page* must drain the
  // pending store, but reads elsewhere proceed — that's what makes PSO outrun TSO.
  const VirtAddr begin = PageBase(va);
  auto& pending = pending_writes_[tid];
  for (auto& w : pending) {
    if (w.begin == begin) {
      w.completion = std::max(w.completion, completion);
      return;
    }
  }
  pending.push_back(PendingWrite{begin, begin + kPageSize, completion});
}

// ---------------------------------------------------------------------------
// The MIND access path (Fig. 2 right, Fig. 4).
// ---------------------------------------------------------------------------

bool Rack::TryLocalHit(const AccessRequest& req, SimTime now, AccessResult* res,
                       DramCache::Frame** frame_out) {
  const uint64_t page = PageNumber(req.va);

  // 1. Local DRAM cache, through the hardware MMU: the fast path. A hit from a different
  // protection domain than the one that faulted the page in re-validates against the
  // protection table (domain-tagged PTEs), so cached pages never leak across domains.
  DramCache::Frame* frame = compute_blades_[req.blade]->cache().Lookup(page);
  *frame_out = frame;
  const bool domain_ok =
      frame != nullptr &&
      (frame->pdid == req.pdid || protection_.Allows(req.pdid, req.va, req.type));
  const bool hit = frame != nullptr && domain_ok &&
                   (req.type == AccessType::kRead || frame->writable);
  if (!hit) {
    return false;
  }
  if (req.type == AccessType::kWrite) {
    frame->dirty = true;
  }
  if (frame->prefetched) [[unlikely]] {  // First touch: the prefetch was useful.
    frame->prefetched = false;
    prefetch_.blade(req.blade).OnPrefetchedTouch(page, req.pdid);
  }
  res->local_hit = true;
  res->latency = (now - req.now) + lat_.local_cache_hit;
  res->completion = req.now + res->latency;
  return true;
}

// AccessChannel over the blade-local hit path (see the contract notes in rack.h). Submit
// is a specialized loop over the hit conditions of Access step 1 (present frame, domain
// re-validation, write permission): one virtual call classifies the whole run, with the
// per-op request plumbing and consistency-model dispatch hoisted out. Commit tokens are
// tagged frame pointers (bit 0 = write), so the group's commit pass needs neither the op
// array nor the latency array. Under TSO every hit in the run costs exactly
// local_cache_hit, reported once through uniform_latency; only PSO barrier displacement (a
// pending same-page store) forces per-op accounting. Latencies are always exact at Submit
// — a hit depends on nothing another same-blade thread commits.
class Rack::Channel final : public AccessChannel {
 public:
  Channel(Rack* rack, ThreadId tid, ComputeBladeId blade, ProtDomainId pdid)
      : rack_(rack), tid_(tid), blade_(blade), pdid_(pdid) {}

  MIND_PARALLEL_PHASE SubmitResult Submit(const LocalOp* ops, size_t n, SimTime clock,
                                          SimTime think, Completion* completions) override {
    DramCache& cache = rack_->compute_blades_[blade_]->cache();
    const SimTime hit_latency = rack_->lat_.local_cache_hit;
    const bool pso = rack_->config_.consistency == ConsistencyModel::kPso;
    stamps_.Clear();
    protection_version_ = rack_->protection_.version();
    // uniform_latency == 0 is reserved for "consult per-op latencies", so a (degenerate)
    // zero-cost hit configuration must report per-op latencies from the start.
    bool uniform = hit_latency != 0;
    SubmitResult out;
    size_t i = 0;
    for (; i < n; ++i) {
      const uint64_t page = PageNumber(ops[i].va);
      DramCache::Frame* frame = cache.Find(page);
      if (frame == nullptr) {
        break;
      }
      const bool is_write = ops[i].type == AccessType::kWrite;
      if (frame->pdid != pdid_ &&
          !rack_->protection_.Allows(pdid_, ops[i].va, ops[i].type)) {
        break;
      }
      if (is_write && !frame->writable) {
        break;
      }
      stamps_.Add(cache, DramCache::RegionOf(page));
      SimTime latency = hit_latency;
      if (pso && !is_write) {
        const SimTime barrier = rack_->PsoPeekBarrier(tid_, ops[i].va, clock);
        latency = (barrier - clock) + hit_latency;
      }
      if (latency != hit_latency && uniform) {
        // First divergence: backfill the uniform prefix and switch to per-op latencies
        // (a uniform run legitimately leaves the latency fields unwritten — see the
        // Submit contract).
        for (size_t j = 0; j < i; ++j) {
          completions[j].latency = hit_latency;
        }
        uniform = false;
      }
      if (!uniform) {
        completions[i].latency = latency;
      }
      completions[i].token.bits =
          reinterpret_cast<uintptr_t>(frame) | static_cast<uintptr_t>(is_write);
      clock += latency + think;
    }
    out.accepted = i;
    out.end_clock = clock;
    out.uniform_latency = uniform ? hit_latency : 0;
    return out;
  }

 private:
  friend class Rack::Group;

  Rack* rack_;
  ThreadId tid_;
  ComputeBladeId blade_;
  ProtDomainId pdid_;
  DramCache::RegionStamps stamps_;   // Dependency footprint of the last submitted run.
  uint64_t protection_version_ = 0;  // Blade-global stamp (permissions/domain grants).
};

std::unique_ptr<AccessChannel> Rack::OpenChannel(ThreadId tid, ComputeBladeId blade,
                                                 ProtDomainId pdid) {
  return std::make_unique<Channel>(this, tid, blade, pdid);
}

// Per-blade ChannelGroup over the MIND hit path (contract in access_channel.h, merge
// machinery in channel_group.h). Hit latencies are always exact at Submit, so the group's
// whole job is the single-pass blade view: ValidMask compares the protection-table
// version once per blade (instead of once per member) before the members' region stamps,
// and CommitMerged interleaves the members' runs in (clock, thread) order — the exact
// LRU/dirty order serial replay produces — with uniform TSO runs accounted across all
// member threads through Histogram::RecordN.
class Rack::Group final : public ChannelGroup {
 public:
  Group(Rack* rack, ComputeBladeId blade) : rack_(rack), blade_(blade) {}

  size_t Add(AccessChannel* channel) override {
    members_.push_back(static_cast<Channel*>(channel));
    return members_.size() - 1;
  }

  MIND_PARALLEL_PHASE [[nodiscard]] uint64_t ValidMask() const override {
    const DramCache& cache = rack_->compute_blades_[blade_]->cache();
    const uint64_t protection_version = rack_->protection_.version();
    uint64_t mask = 0;
    for (size_t m = 0; m < members_.size(); ++m) {
      if (members_[m]->protection_version_ == protection_version &&
          members_[m]->stamps_.Valid(cache)) {
        mask |= uint64_t{1} << m;
      }
    }
    return mask;
  }

  MIND_PARALLEL_PHASE uint64_t CommitMerged(GroupLane* lanes, size_t n, SimTime horizon,
                                            SimTime think, Histogram& hist) override {
    DramCache& cache = rack_->compute_blades_[blade_]->cache();
    BladePrefetchState& bp = rack_->prefetch_.blade(blade_);
    return GroupMergeCommit(
        lanes, n, horizon, think, hist,
        [](GroupLane& ln, size_t idx) {
          // Exact at Submit: the uniform value, or the per-op latency PSO displacement
          // forced Submit to record.
          return ln.uniform_latency != 0 ? ln.uniform_latency : ln.comps[idx].latency;
        },
        [&](GroupLane& ln, size_t idx) {
          ApplyCommitToken(cache, ln.comps[idx], [&](uint64_t page) {
            bp.OnPrefetchedTouch(page, members_[ln.member]->pdid_);
          });
        });
  }

 private:
  Rack* rack_;
  ComputeBladeId blade_;
  std::vector<Channel*> members_;
};

std::unique_ptr<ChannelGroup> Rack::OpenChannelGroup(ComputeBladeId blade) {
  return std::make_unique<Group>(this, blade);
}

MIND_SERIALIZED_PATH AccessResult Rack::Access(const AccessRequest& req) {
  splitting_.MaybeRunEpoch(req.now);
  MaybeRunScheduledDrains(req.now);
  ++stats_.total_accesses;

  AccessResult res;
  const uint64_t page = PageNumber(req.va);
  ComputeBlade& blade = *compute_blades_[req.blade];

  SimTime now = req.now;
  if (config_.consistency == ConsistencyModel::kPso && req.type == AccessType::kRead) {
    now = PsoReadBarrier(req.tid, req.va, now);
  }

  // Not a clean hit past here: TryLocalHit hands back the frame it probed (still present
  // for S->M upgrades and cross-domain denials), so the fault path does not probe again.
  DramCache::Frame* frame = nullptr;
  if (TryLocalHit(req, now, &res, &frame)) {
    ++stats_.local_hits;
    return res;
  }

  // Prefetch hooks live entirely on the miss path (out of line so the hit path above
  // stays as tight as pre-prefetch): installs, late joins and new issues all trigger at
  // demand faults — the stream a swap prefetcher actually observes.
  if (config_.prefetch.enabled()) [[unlikely]] {
    if (ServiceViaPrefetch(req, now, page, &frame, &res)) {
      return res;
    }
  }

  // 2. Page fault: issue a one-sided RDMA request on the *virtual* address to the switch
  // (a half-route: the request terminates in the pipeline for translation + protection).
  ++stats_.remote_accesses;
  SimTime t = now + lat_.page_fault_entry;
  // Requester-path port/stage queueing, accumulated hop by hop into the Fig. 7 breakdown.
  SimTime fabric_wait = 0;
  auto to_switch = fabric_.Route(Endpoint::Compute(req.blade), Endpoint::Switch(),
                                 MessageKind::kRdmaReadRequest, t);
  const SimTime issued_at = t + lat_.rdma_message_overhead;  // Thread-side post completes.
  t = to_switch.arrival;  // Ingress parse + translation + protection already charged.
  fabric_wait += to_switch.total_wait();

  // 3. Protection check in the match-action pipeline (§4.2). A missing <PDID, vma> entry
  // rejects the request; the blade maps that to EFAULT when no vma covers the address and
  // EACCES when the vma exists but the permission class mismatches.
  if (!protection_.Allows(req.pdid, req.va, req.type)) {
    ++stats_.permission_denials;
    auto reject = fabric_.Route(Endpoint::Switch(), Endpoint::Compute(req.blade),
                                MessageKind::kRdmaWriteAck, t);
    res.status = controller_.FindVma(req.va) == nullptr
                     ? Status(ErrorCode::kFault, "address not mapped")
                     : Status(ErrorCode::kPermissionDenied);
    res.latency = reject.arrival - req.now;
    res.completion = reject.arrival;
    return res;
  }

  // 4. Directory lookup (first MAU); lazily create the region entry if absent.
  Status dir_error;
  DirectoryEntry* entry = EnsureDirectoryEntry(req.va, t, &dir_error);
  if (entry == nullptr) {
    res.status = dir_error;
    res.latency = t - req.now;
    res.completion = t;
    return res;
  }

  // Transient-state blocking: wait out any in-flight transition on this region.
  const SimTime busy_wait = entry->busy_until > t ? entry->busy_until - t : 0;
  t += busy_wait;
  entry->last_active = t;

  const RequestorRole role = entry->RoleOf(req.blade);
  const SttEntry& row = stt_.Lookup(entry->state, req.type, role);
  res.prev_state = entry->state;
  res.next_state = row.next_state;

  // 5. Transition decision (second MAU) + recirculation to commit the entry (Fig. 4).
  {
    SimTime recirc_wait = 0;
    t = fabric_.Recirculate(t, &recirc_wait);
    fabric_wait += recirc_wait;
  }

  // 6. Invalidations via switch-native multicast with egress pruning (§4.3.2).
  SharerMask targets = 0;
  if (row.invalidate == InvalidateTargets::kOtherSharers) {
    targets = entry->sharers & ~BladeBit(req.blade);
  } else if (row.invalidate == InvalidateTargets::kOwner &&
             entry->owner != kInvalidComputeBlade && entry->owner != req.blade) {
    targets = BladeBit(entry->owner);
  }

  InvalidationWave wave;
  if (targets != 0) {
    if (fault_plane_.Armed()) [[unlikely]] {
      // A dead blade never ACKs: the wave deterministically waits out its full retry
      // budget (no loss draw, so the RNG sequence is death-schedule-invariant). On a
      // lossy fabric the seeded RNG decides. Either way an exhausted budget resets the
      // address (§4.4) and fails the access with the timeout-summed latency.
      const FaultPlane::SendOutcome outcome =
          fault_plane_.AnyDead(targets, t) ? fault_plane_.DeadTargetOutcome(t, req.blade)
                                           : fault_plane_.SendWithAck(0, t, req.blade);
      if (!outcome.delivered) {
        (void)ResetAddress(req.va, t);
        res.status = Status(ErrorCode::kTimedOut, "invalidation ACKs lost; region reset");
        res.latency = (t + outcome.latency) - req.now;
        res.completion = t + outcome.latency;
        return res;
      }
      t += outcome.latency;  // Timeout-and-retransmit delays actually incurred.
    }
    wave = InvalidateBlades(targets, *entry, page, req.blade, t);
    // Splitting signal: every page falsely invalidated in this region — dirty flushes AND
    // clean drops (each dropped page is a future re-fetch). The *reported*
    // false-invalidation counter stays dirty-page-only, matching the paper's definition.
    directory_.AddFalseInvalidations(*entry, wave.false_invalidations + wave.clean_drops);
    res.triggered_invalidation = true;
  }

  // 7. Data fetch. S->M upgrades with the page already cached skip the fetch entirely; the
  // M->S/M->M handoff must wait for the previous owner's flush to land (sequential 2-RTT
  // path); S-state fetches overlap with the invalidation wave (parallel 1-RTT path).
  const bool need_data = frame == nullptr;
  const PageData* bytes = nullptr;
  SimTime data_at_requester;
  if (need_data) {
    SimTime fetch_start = row.sequential_fetch ? std::max(t, wave.flush_landed) : t;
    if (fault_plane_.lossy()) [[unlikely]] {
      // The remote read-with-ACK rides the same loss model: retransmission delay lands on
      // the fetch, and an exhausted budget resets the address (§4.4) and fails the access.
      const FaultPlane::SendOutcome outcome =
          fault_plane_.SendWithAck(0, fetch_start, req.blade);
      if (!outcome.delivered) {
        (void)ResetAddress(req.va, fetch_start);
        res.status = Status(ErrorCode::kTimedOut, "remote fetch lost; region reset");
        res.latency = (fetch_start + outcome.latency) - req.now;
        res.completion = fetch_start + outcome.latency;
        return res;
      }
      fetch_start += outcome.latency;
    }
    data_at_requester = FetchPageFromMemory(req.va, req.blade, fetch_start, &bytes,
                                            &fabric_wait);
    if (config_.fetch_whole_region) {
      // Coupled-granularity ablation (§4.3.1): pull every other page of the region too.
      // The extra transfers serialize on the requester's NIC behind the demanded page.
      for (VirtAddr va = entry->base; va < entry->end(); va += kPageSize) {
        const uint64_t p = PageNumber(va);
        if (p == page || blade.cache().Peek(p) != nullptr) {
          continue;
        }
        const PageData* extra_bytes = nullptr;
        const SimTime arrived = FetchPageFromMemory(va, req.blade, fetch_start, &extra_bytes);
        InsertIntoCache(req.blade, p, /*writable=*/false, extra_bytes, arrived);
        data_at_requester = std::max(data_at_requester, arrived);
      }
    }
  } else {
    ++stats_.write_upgrades;
    auto grant = fabric_.Route(Endpoint::Switch(), Endpoint::Compute(req.blade),
                               MessageKind::kRdmaWriteAck, t);
    data_at_requester = grant.arrival;
    fabric_wait += grant.total_wait();
  }

  const SimTime done =
      std::max(data_at_requester, wave.max_ack_at_requester) + lat_.pte_install;

  // 8. Commit the directory entry (the recirculated update).
  if (row.clears_sharers) {
    entry->sharers = 0;
    entry->owner = kInvalidComputeBlade;
  }
  if (row.becomes_owner) {
    entry->owner = req.blade;
    entry->sharers = BladeBit(req.blade);
  } else if (row.joins_sharers) {
    entry->sharers |= BladeBit(req.blade);
  }
  entry->state = row.next_state;
  if (!entry->OwnerHeld()) {
    entry->owner = kInvalidComputeBlade;
  }
  entry->busy_until = targets != 0 ? done : t;
  // The only state change that can make a refused buddy pair mergeable (a prefetch install
  // adds a sharer to an entry no other blade owns, which never does).
  directory_.Watch(*entry);

  // 9. Install the page at the requesting blade. Under MESI, E-state pages install
  // writable (the silent-upgrade privilege): the holder's first store is a local hit.
  const bool writable =
      req.type == AccessType::kWrite || row.next_state == MsiState::kExclusive;
  if (need_data) {
    InsertIntoCache(req.blade, page, writable, bytes, done, req.pdid);
  } else if (writable) {
    blade.cache().MakeWritable(page);
  }
  if (req.type == AccessType::kWrite) {
    blade.cache().MarkDirty(page);
  }

  // 10. Bookkeeping: transition counters and the Fig. 7 (right) latency decomposition.
  switch (res.prev_state) {
    case MsiState::kInvalid:
      // Cold reads land in S (MSI) or E (MESI); both count as the read-miss bucket.
      (row.next_state == MsiState::kModified) ? ++stats_.transitions_i_to_m
                                              : ++stats_.transitions_i_to_s;
      break;
    case MsiState::kShared:
      (row.next_state == MsiState::kShared) ? ++stats_.transitions_s_to_s
                                            : ++stats_.transitions_s_to_m;
      break;
    case MsiState::kModified:
    case MsiState::kExclusive:  // E handoffs cost the same 2-RTT path as M.
      if (role == RequestorRole::kOwner) {
        ++stats_.transitions_m_stay;
      } else if (row.next_state == MsiState::kShared) {
        ++stats_.transitions_m_to_s;
      } else {
        ++stats_.transitions_m_to_m;
      }
      break;
  }

  res.breakdown.fault = lat_.page_fault_entry + lat_.pte_install;
  res.breakdown.inv_queue = wave.max_queue_wait;
  res.breakdown.inv_tlb = wave.max_tlb;
  res.breakdown.fabric_wait = fabric_wait;
  const SimTime total = done - req.now;
  const SimTime accounted =
      res.breakdown.fault + wave.max_queue_wait + wave.max_tlb + fabric_wait;
  res.breakdown.network = total > accounted ? total - accounted : 0;
  stats_.breakdown_sums += res.breakdown;

  res.completion = done;
  if (config_.consistency == ConsistencyModel::kPso && req.type == AccessType::kWrite) {
    // Store buffering: the thread resumes once the request is posted; coherence completes
    // asynchronously. A later read to this region blocks via PsoReadBarrier.
    res.latency = issued_at - req.now;
    PsoRecordWrite(req.tid, req.va, done);
  } else {
    res.latency = done - req.now;
  }
  if (trace_ != nullptr) [[unlikely]] {
    // Latency-breakdown span for the serviced miss. Local hits are deliberately
    // untraced: the hit path stays event-free (hot-path contract).
    TraceEvent ev;
    ev.kind = TraceEventKind::kAccessSpan;
    ev.clock = req.now;
    ev.dur = done - req.now;  // Thread-visible wait under PSO differs; span = service.
    ev.tid = req.tid;
    ev.blade = req.blade;
    ev.a = req.va;
    ev.b = res.breakdown.fault;
    ev.c = TracePack32(res.breakdown.network, res.breakdown.fabric_wait);
    ev.d = TracePack32(res.breakdown.inv_queue, res.breakdown.inv_tlb);
    trace_->Emit(ev);
  }
  if (config_.prefetch.enabled()) {
    // Speculative fetches go out once the demand fault is fully serviced — off its
    // critical path, serialized behind it on the blade's egress link.
    prefetch_.AfterFault({req.tid, req.blade, req.pdid, page}, done);
  }
  return res;
}

// ---------------------------------------------------------------------------
// Pattern-aware prefetching over the remote-fault path (src/prefetch/prefetch.h).
// ---------------------------------------------------------------------------

bool Rack::ServiceViaPrefetch(const AccessRequest& req, SimTime now, uint64_t page,
                              DramCache::Frame** frame, AccessResult* res) {
  prefetch_.InstallReady(req.blade, now);
  const bool had_frame = *frame != nullptr;
  // Installs may evict arbitrary frames — including the one the hit path just probed —
  // so re-resolve before anything dereferences it.
  *frame = compute_blades_[req.blade]->cache().Find(page);
  const PrefetchUnit::Fault fault{req.tid, req.blade, req.pdid, page};
  if (!had_frame && *frame != nullptr) {
    // An arrived prefetch covers this fault: replay the ordinary hit path (LRU, useful
    // classification, domain re-validation) at the same timestamp.
    if (TryLocalHit(req, now, res, frame)) {
      ++stats_.local_hits;
      prefetch_.TraceUseful(fault, now, now);
      return true;
    }
  }
  // Speculation never widens access: everything below re-checks the protection table
  // for the *demanding* (thread, domain), exactly as the fault path would.
  const bool allowed = protection_.Allows(req.pdid, req.va, req.type);
  // A demand read joins an in-flight fetch; a write needs M anyway and faults. The
  // joining thread still takes the page-fault trap, then blocks until the data lands
  // (a late prefetch — it shortened the stall without hiding it).
  if (allowed && prefetch_.JoinInFlight(
                     fault, now, req.type == AccessType::kRead && *frame == nullptr,
                     [&](SimTime ready_at) {
                       ++stats_.remote_accesses;
                       const SimTime landed =
                           std::max(now + lat_.page_fault_entry, ready_at);
                       InsertIntoCache(req.blade, page, /*writable=*/false,
                                       PrefetchPayload(page), landed, req.pdid);
                       const SimTime done = landed + lat_.pte_install;
                       res->local_hit = false;
                       res->latency = done - req.now;
                       res->completion = done;
                       res->breakdown.fault = lat_.page_fault_entry + lat_.pte_install;
                       res->breakdown.network = res->latency > res->breakdown.fault
                                                    ? res->latency - res->breakdown.fault
                                                    : 0;
                       stats_.breakdown_sums += res->breakdown;
                       return done;
                     })) {
    return true;
  }
  if (*frame != nullptr && (*frame)->prefetched && allowed) {
    // Write upgrade on a prefetched read-only page: its first real use. Denied accesses
    // never count as useful — the fault path is about to reject them untouched.
    (*frame)->prefetched = false;
    prefetch_.blade(req.blade).OnPrefetchedTouch(page, req.pdid);
  }
  return false;
}

std::optional<SimTime> Rack::AdmitPrefetch(ComputeBladeId blade_id, ProtDomainId pdid,
                                           uint64_t page, SimTime start) {
  const VirtAddr va = PageToAddr(page);
  if (!protection_.Allows(pdid, va, AccessType::kRead)) {
    return std::nullopt;  // Speculation never crosses a protection boundary.
  }
  if (directory_.Lookup(va) == nullptr &&
      directory_.entry_count() >= directory_.capacity()) {
    return std::nullopt;  // A guess never evicts a directory entry.
  }
  SimTime t = start;
  Status err;
  DirectoryEntry* entry = EnsureDirectoryEntry(va, t, &err);
  if (entry == nullptr) {
    return std::nullopt;
  }
  if (entry->busy_until > t) {
    return std::nullopt;  // Transition in flight: never wait speculatively.
  }
  if ((entry->state == MsiState::kModified || entry->state == MsiState::kExclusive) &&
      entry->owner != blade_id) {
    return std::nullopt;  // Fetching would force an owner flush: no invalidations.
  }
  const SttEntry& row =
      stt_.Lookup(entry->state, AccessType::kRead, entry->RoleOf(blade_id));
  if (row.invalidate != InvalidateTargets::kNone) {
    return std::nullopt;  // Defensive: mirrors the owner check above.
  }
  // Join the sharer list through the ordinary read transition, demoted to Shared: a
  // speculative page never takes E/M, so its first write still pays the upgrade.
  if (entry->state == MsiState::kInvalid) {
    entry->state = MsiState::kShared;
  }
  entry->sharers |= BladeBit(blade_id);
  // Requester NIC -> switch (pipeline + directory recirculation) -> memory blade ->
  // requester: the demand fetch's exact hops, issued after it and queueing behind it.
  auto up = fabric_.Route(Endpoint::Compute(blade_id), Endpoint::Switch(),
                          MessageKind::kRdmaReadRequest, t, /*recirculate=*/true);
  const PageData* bytes = nullptr;  // Payload is re-read from memory at install time.
  return FetchPageFromMemory(va, blade_id, up.arrival, &bytes) + lat_.pte_install;
}

double Rack::PrefetchPortUtilization(uint64_t page) const {
  const auto tr = translator_.Translate(PageToAddr(page));
  return tr.ok() ? fabric_.Utilization(Endpoint::Memory(tr->blade)) : 0.0;
}

const PageData* Rack::PrefetchPayload(uint64_t page) {
  if (!config_.store_data) {
    return nullptr;
  }
  const auto tr = translator_.Translate(PageToAddr(page));
  if (!tr.ok()) {
    return nullptr;
  }
  return memory_blades_[tr->blade]->ReadPage(PageNumber(tr->phys_addr));
}

AccessResult Rack::AccessByThread(ThreadId tid, VirtAddr va, AccessType type, SimTime now) {
  AccessResult res;
  auto blade = controller_.processes().BladeOfThread(tid);
  auto pid = controller_.processes().ProcessOfThread(tid);
  if (!blade.ok() || !pid.ok()) {
    res.status = Status(ErrorCode::kNotFound, "unknown thread");
    return res;
  }
  auto pdid = controller_.processes().PdidOf(*pid);
  assert(pdid.ok());
  return Access(AccessRequest{tid, *blade, *pdid, va, type, now});
}

// ---------------------------------------------------------------------------
// Byte-level convenience operations (examples / end-to-end tests).
// ---------------------------------------------------------------------------

Result<SimTime> Rack::WriteBytes(ThreadId tid, VirtAddr va, const void* src, uint64_t len,
                                 SimTime now) {
  const auto* p = static_cast<const uint8_t*>(src);
  auto blade = controller_.processes().BladeOfThread(tid);
  if (!blade.ok()) {
    return blade.status();
  }
  SimTime t = now;
  while (len > 0) {
    const uint64_t offset = va & (kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len, kPageSize - offset);
    AccessResult r = AccessByThread(tid, va, AccessType::kWrite, t);
    if (!r.status.ok()) {
      return r.status;
    }
    t += r.latency;
    if (auto* frame = compute_blades_[*blade]->cache().Lookup(PageNumber(va));
        frame != nullptr && frame->data != nullptr) {
      std::memcpy(frame->data->data() + offset, p, chunk);
    }
    va += chunk;
    p += chunk;
    len -= chunk;
  }
  return t;
}

Result<SimTime> Rack::ReadBytes(ThreadId tid, VirtAddr va, void* dst, uint64_t len,
                                SimTime now) {
  auto* p = static_cast<uint8_t*>(dst);
  auto blade = controller_.processes().BladeOfThread(tid);
  if (!blade.ok()) {
    return blade.status();
  }
  SimTime t = now;
  while (len > 0) {
    const uint64_t offset = va & (kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len, kPageSize - offset);
    AccessResult r = AccessByThread(tid, va, AccessType::kRead, t);
    if (!r.status.ok()) {
      return r.status;
    }
    t += r.latency;
    if (auto* frame = compute_blades_[*blade]->cache().Lookup(PageNumber(va));
        frame != nullptr && frame->data != nullptr) {
      std::memcpy(p, frame->data->data() + offset, chunk);
    } else {
      std::memset(p, 0, chunk);  // Metadata-only mode reads as zero.
    }
    va += chunk;
    p += chunk;
    len -= chunk;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Failure handling and teardown.
// ---------------------------------------------------------------------------

Result<SimTime> Rack::MigrateRange(VirtAddr base, uint32_t size_log2, MemoryBladeId dst,
                                   SimTime now) {
  if (dst >= memory_blades_.size()) {
    return Status(ErrorCode::kInvalidArgument, "no such memory blade");
  }
  const uint64_t size = uint64_t{1} << size_log2;
  if (controller_.FindVma(base) == nullptr) {
    return Status(ErrorCode::kFault, "range not mapped");
  }
  // 1. Quiesce: drop cached copies everywhere, flushing dirty pages to the *old* home.
  ShootDownRange(base, size, /*write_back=*/true);
  // 2. Copy pages old-home -> new-home. The control plane drives full-page RDMA reads and
  //    writes; contiguous physical space on `dst` comes from its migration arena.
  const PhysAddr dst_pa = migration_cursor_;
  migration_cursor_ += size;
  SimTime t = now;
  for (VirtAddr va = base; va < base + size; va += kPageSize) {
    auto tr = translator_.Translate(va);
    if (!tr.ok()) {
      return tr.status();
    }
    const PageData* bytes = memory_blades_[tr->blade]->ReadPage(PageNumber(tr->phys_addr));
    memory_blades_[dst]->WritePage(PageNumber(dst_pa + (va - base)), bytes);
    // One page crosses the fabric twice (src -> switch -> dst).
    auto hop = fabric_.Route(Endpoint::Memory(tr->blade), Endpoint::Memory(dst),
                             MessageKind::kRdmaWriteRequest, t);
    t = hop.arrival + lat_.memory_blade_service;
  }
  // 3. Flip the translation: the outlier's longest-prefix match now overrides the blade
  //    range for this range only.
  if (Status s = controller_.MigrateRange(base, size_log2, dst, dst_pa); !s.ok()) {
    return s;
  }
  // 4. Coherence state for the range restarts cold (I) at the new home.
  directory_.RemoveRange(base, base + size);
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kMigrateRange;
    ev.clock = now;
    ev.dur = t - now;
    ev.a = base;
    ev.b = size >> kPageShift;
    trace_->Emit(ev);
  }
  return t;
}

Status Rack::ResetAddress(VirtAddr va, SimTime now) {
  DirectoryEntry* entry = directory_.Lookup(va);
  if (entry == nullptr) {
    return Status(ErrorCode::kNotFound, "no directory entry for address");
  }
  // §4.4: force *all* compute blades to flush their data for the address, then remove the
  // directory entry — conservative, but it breaks transitions wedged by a dead blade.
  SharerMask everyone = 0;
  for (int i = 0; i < config_.num_compute_blades; ++i) {
    everyone |= BladeBit(static_cast<ComputeBladeId>(i));
  }
  const InvalidationWave wave =
      InvalidateBlades(everyone, *entry, UINT64_MAX, kInvalidComputeBlade, now);
  fault_plane_.OnResetFlushed(wave.flushed);
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFaultReset;
    ev.clock = now;
    ev.a = va;
    ev.b = wave.flushed;
    trace_->Emit(ev);
  }
  return directory_.Remove(entry->base);
}

Result<SimTime> Rack::DrainMemoryBlade(MemoryBladeId src, MemoryBladeId dst, SimTime now) {
  if (src >= memory_blades_.size() || dst >= memory_blades_.size() || src == dst) {
    return Status(ErrorCode::kInvalidArgument, "bad drain source/destination blade");
  }
  // 1. Mark the blade draining: the allocator places nothing new on it while we move the
  //    existing content off.
  if (Status s = controller_.MemoryBladeDraining(src); !s.ok()) {
    return s;
  }
  // 2. Enumerate what lives there. Allocation chunks record their placement blade, and
  //    every chunk is power-of-two sized and self-aligned (the TCAM-friendly rounding), so
  //    each is directly a MigrateRange unit.
  struct Piece {
    VirtAddr va = 0;
    uint32_t size_log2 = 0;
  };
  std::vector<Piece> pieces;
  controller_.ForEachVma([&](const VmaRecord& vma) {
    for (const auto& chunk : vma.alloc.chunks) {
      if (chunk.blade == src) {
        pieces.push_back(Piece{chunk.va, Log2Floor(chunk.size)});
      }
    }
  });
  // 3. Migrate each piece to the survivor: shoot-down with write-back, page copies over
  //    the fabric, outlier translation retarget, directory entries restart cold. Pieces
  //    migrate sequentially — the control plane drives one range at a time.
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kBladeDrainBegin;
    ev.clock = now;
    ev.a = src;
    ev.b = dst;
    trace_->Emit(ev);
  }
  SimTime t = now;
  uint64_t pages = 0;
  for (const Piece& piece : pieces) {
    // Skip pieces a previous migration already moved off this blade (outlier translation
    // no longer points at `src`).
    auto tr = translator_.Translate(piece.va);
    if (!tr.ok() || tr->blade != src) {
      continue;
    }
    auto done = MigrateRange(piece.va, piece.size_log2, dst, t);
    if (!done.ok()) {
      return done.status();
    }
    t = *done;
    pages += (uint64_t{1} << piece.size_log2) >> kPageShift;
  }
  fault_plane_.OnDrainCompleted(pages);
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kBladeDrainEnd;
    ev.clock = now;
    ev.dur = t - now;
    ev.a = src;
    ev.b = pages;
    trace_->Emit(ev);
  }
  return t;
}

MIND_SERIALIZED_PATH void Rack::AdvanceTo(SimTime now) {
  splitting_.MaybeRunEpoch(now);
  MaybeRunScheduledDrains(now);
  prefetch_.AdvanceTo(now);
}

void Rack::ShootDownRange(VirtAddr base, uint64_t size, bool write_back) {
  const uint64_t first = PageNumber(base);
  const uint64_t last = PageNumber(base + size - 1) + 1;
  for (auto& blade : compute_blades_) {
    auto inv = blade->cache().InvalidateRange(first, last);
    if (!write_back) {
      continue;
    }
    for (auto& ev : inv.flushed) {
      ++stats_.pages_flushed;
      WriteBackPage(blade->id(), ev.page, ev.data.get(), /*start=*/0);
    }
  }
}

Status Rack::Mprotect(ProcessId pid, VirtAddr base, uint64_t size, PermClass perm) {
  Status s = controller_.Mprotect(pid, base, size, perm);
  if (s.ok()) {
    // Cached PTEs in the range may now over-permit; drop them so the next access re-checks
    // against the switch's protection table.
    ShootDownRange(base, size, /*write_back=*/true);
  }
  return s;
}

Status Rack::RevokeFromDomain(ProtDomainId grantee, VirtAddr base, uint64_t size) {
  Status s = controller_.RevokeFromDomain(grantee, base, size);
  if (s.ok()) {
    ShootDownRange(base, size, /*write_back=*/true);
  }
  return s;
}

Status Rack::Munmap(ProcessId pid, VirtAddr base) {
  const VmaRecord* vma = controller_.FindVma(base);
  if (vma == nullptr) {
    return Status(ErrorCode::kFault, "no vma at address");
  }
  const VirtAddr begin = vma->base();
  const VirtAddr end = vma->end();
  // Drop cached pages everywhere (no write-back — the mapping is going away) and remove the
  // covered directory entries.
  for (auto& blade : compute_blades_) {
    (void)blade->cache().InvalidateRange(PageNumber(begin), PageNumber(end - 1) + 1);
  }
  directory_.RemoveRange(begin, end);
  return controller_.Munmap(pid, base);
}

}  // namespace mind
