#include "src/workload/replay.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "src/common/phase_guard.h"

namespace mind {

Status ReplayEngine::Setup() {
  if (setup_done_) {
    return Status(ErrorCode::kExists, "Setup called twice");
  }
  if (options_.prefetch != PrefetchPolicy::kNone &&
      !system_->SetPrefetchPolicy(options_.prefetch)) {
    return Status(ErrorCode::kInvalidArgument,
                  "system does not support prefetch policies");
  }
  segments_.reserve(traces_->segments.size());
  for (const auto& seg : traces_->segments) {
    SegmentMap map;
    for (uint64_t first = 0; first < seg.pages; first += kChunkPages) {
      const uint64_t chunk_pages = std::min(kChunkPages, seg.pages - first);
      auto base = system_->Alloc(chunk_pages * kPageSize);
      if (!base.ok()) {
        return base.status();
      }
      map.chunk_bases.push_back(*base);
    }
    segments_.push_back(std::move(map));
  }
  const int blades = std::min(traces_->num_blades, system_->num_compute_blades());
  thread_ids_.reserve(traces_->threads.size());
  thread_blades_.reserve(traces_->threads.size());
  for (size_t t = 0; t < traces_->threads.size(); ++t) {
    const auto blade = static_cast<ComputeBladeId>(t % static_cast<size_t>(blades));
    auto tid = system_->RegisterThread(blade);
    if (!tid.ok()) {
      return tid.status();
    }
    thread_ids_.push_back(*tid);
    thread_blades_.push_back(blade);
  }
  // Directory-region ownership (src/workload/region_ownership.h): home every 2 MB region
  // at the blade whose threads touch it most. A pure function of the traces, so the map —
  // and with it the owner drain's sub-round/serial composition — is identical for every
  // shard count and replay path.
  for (size_t t = 0; t < traces_->threads.size(); ++t) {
    for (const TraceOp& op : traces_->threads[t].ops) {
      ownership_.Credit(AddressOf(op.segment, op.page), thread_blades_[t]);
    }
  }
  ownership_.Seal();
  setup_done_ = true;
  if (options_.use_channels) {
    // Channel-driven runs stream resolved ops into Submit; resolving here keeps Run's
    // replay loop free of address arithmetic (and out of wall-clock measurements), like
    // the rest of the setup phase. The reference path resolves lazily through AddressOf.
    MaterializeOps();
  }
  return Status::Ok();
}

void ReplayEngine::MaterializeOps() {
  if (!thread_ops_.empty()) {
    return;  // Segment maps are immutable after Setup; the arrays never go stale.
  }
  thread_ops_.resize(traces_->threads.size());
  for (size_t t = 0; t < thread_ops_.size(); ++t) {
    const auto& ops = traces_->threads[t].ops;
    thread_ops_[t].reserve(ops.size());
    for (const TraceOp& op : ops) {
      thread_ops_[t].push_back(LocalOp{AddressOf(op.segment, op.page), op.type});
    }
  }
}

namespace {

constexpr SimTime kNoHorizon = std::numeric_limits<SimTime>::max();

// Adaptive per-thread scan-window bounds: windows start small, double while runs commit
// whole, and shrink toward the observed committed run length when a coherence horizon or
// a region-stamp invalidation cuts a run short. This bounds wasted submits to ~2x the
// committed ops even in coherence-dense traces, while hit-dominated traces quickly reach
// the configured maximum window.
constexpr uint32_t kMinScanWindow = 4;

// Per-thread replay cursor plus its submitted run. A run is submitted once (one batched
// virtual call) and reused across rounds while it stays exact: the channel's region
// stamps are unchanged (AccessChannel::RunValid) and the thread itself has not advanced
// through the serialized drain. Tokens inside a valid run cannot drift — channel commits
// only touch recency, dirt and per-blade service occupancy.
struct ThreadRt {
  SimTime clock = 0;
  uint64_t next_op = 0;
  SimTime last_start = 0;  // Start timestamp of the last executed op (trailing epochs).
  size_t index = 0;        // Global thread index (drain tie-break, as in per-op replay).
  ThreadId tid = 0;
  ComputeBladeId blade = 0;
  int shard = 0;
  AccessChannel* channel = nullptr;  // Null: every op takes the serialized drain.
  size_t group_member = 0;           // Member slot in the blade's ChannelGroup (if any).
  bool finished = false;
  // Submitted-run state.
  bool buf_valid = false;
  bool blocked = false;        // Submit refused at the run end (a coherence op is next).
  bool window_capped = false;  // Run ended at the scan window with trace ops remaining.
  bool ran_in_drain = false;   // Cursor moved outside the fast path; run is stale.
  bool latency_final = true;   // False: latencies finalize at per-op Commit (see contract).
  uint32_t window = kMinScanWindow;  // Adaptive scan-window size (see kMinScanWindow).
  // Owner-drain classification cache: the thread's next op, resolved and classified
  // (owner-homed blade-local hit below the drain boundary?). Invalidated whenever the
  // state the verdict reads may have changed — conservatively stale-false is always safe.
  bool drain_classified = false;
  bool drain_eligible = false;
  VirtAddr top_va = 0;
  AccessType top_type = AccessType::kRead;
  SimTime buf_end_clock = 0;
  SimTime uniform_lat = 0;     // Nonzero: every op in the run has this latency.
  size_t buf_pos = 0;          // Committed prefix of the run.
  size_t buf_len = 0;          // Accepted length of the run.
  std::vector<Completion> comps;  // Typed completions from AccessChannel::Submit.
};

struct ShardRt {
  std::vector<std::vector<size_t>> blade_threads;  // Grouped by owned blade.
  std::vector<ChannelGroup*> blade_groups;         // Parallel to blade_threads (or null).
  std::vector<GroupLane> lanes;                    // Per-round group-commit scratch.
  SimTime barrier = kNoHorizon;  // Scan result: earliest clock this shard cannot pass.
  bool any_blocked = false;
  ShardReport report;
};

}  // namespace

ReplayReport ReplayEngine::Run(Sampler sampler, SimTime sample_interval) {
  assert(setup_done_ && "Setup must be called before Run");
  MemorySystem* system = system_;
  const WorkloadTraces& traces = *traces_;
  const SimTime think = traces.think_time;
  // Sanitized adaptive-window bounds: a configured cap below kMinScanWindow lowers the
  // floor with it, keeping every clamp well-formed (lo <= hi).
  const uint32_t max_window = std::max(options_.scan_window_ops, 1u);
  const uint32_t min_window = std::min(kMinScanWindow, max_window);

  // A sampler observes the system between globally-ordered ops, so it forces the per-op
  // reference path; use_channels = false selects it explicitly (conformance baseline).
  const bool reference_mode = sampler != nullptr || !options_.use_channels;

  // Shard layout: blades are dealt round-robin to shards, threads follow their blade.
  int blades_used = 1;
  for (const ComputeBladeId b : thread_blades_) {
    blades_used = std::max(blades_used, static_cast<int>(b) + 1);
  }
  const int num_shards = reference_mode ? 1 : std::clamp(options_.shards, 1, blades_used);
  effective_shards_ = num_shards;

  // --- Observability (src/obs/) -------------------------------------------
  // Constructed per Run so repeated Runs never mix artifacts. The trace scope's control
  // sink goes to the system (serialized-path semantic events); the engine itself writes
  // only execution events, into per-shard mailbox sinks: shard s's from its scan/commit
  // phases, shard 0's also from the drain's owner sub-rounds. The profiler is wall-clock
  // and never touches simulated state; the registry is filled at the report boundary and
  // sampled on the serialized drain path.
  trace_scope_.reset();
  profiler_.reset();
  metrics_ = std::make_unique<MetricsRegistry>();
  if (options_.trace) {
    trace_scope_ = std::make_unique<TraceScope>(num_shards);
    (void)system->SetTraceSink(trace_scope_->control());
  }
  if (options_.profile) {
    profiler_ = std::make_unique<PhaseProfiler>(num_shards);
  }
  PhaseProfiler* const prof = profiler_.get();
  // detlint: mailbox(exec_sinks)
  std::vector<TraceSink*> exec_sinks(static_cast<size_t>(num_shards), nullptr);
  if (trace_scope_ != nullptr) {
    for (int s = 0; s < num_shards; ++s) {
      exec_sinks[static_cast<size_t>(s)] = trace_scope_->shard(s);
    }
  }

  std::vector<std::unique_ptr<AccessChannel>> channels(traces.threads.size());
  if (!reference_mode) {
    MaterializeOps();
    for (size_t t = 0; t < channels.size(); ++t) {
      channels[t] = system->OpenChannel(thread_ids_[t], thread_blades_[t]);
    }
  }

  std::vector<ThreadRt> threads(traces.threads.size());
  std::vector<ShardRt> shards(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards[s].blade_threads.resize(
        static_cast<size_t>((blades_used - s + num_shards - 1) / num_shards));
  }
  for (size_t t = 0; t < threads.size(); ++t) {
    ThreadRt& th = threads[t];
    th.index = t;
    th.window = min_window;
    th.tid = thread_ids_[t];
    th.blade = thread_blades_[t];
    th.shard = static_cast<int>(th.blade) % num_shards;
    th.channel = channels[t].get();
    th.finished = traces.threads[t].ops.empty();
    const size_t slot = static_cast<size_t>(th.blade) / num_shards;
    shards[th.shard].blade_threads[slot].push_back(t);
  }

  // Per-blade channel groups: wherever >= 2 channel-driven threads share a blade (and the
  // system hands out a group for it), the blade's runs validate in one pass and commit as
  // one merged batch per round. Everything else keeps the per-thread commit path.
  std::vector<std::unique_ptr<ChannelGroup>> groups;
  for (ShardRt& sh : shards) {
    sh.blade_groups.assign(sh.blade_threads.size(), nullptr);
    if (reference_mode || !options_.use_channel_groups) {
      continue;
    }
    for (size_t g = 0; g < sh.blade_threads.size(); ++g) {
      const std::vector<size_t>& group_threads = sh.blade_threads[g];
      size_t with_channels = 0;
      for (const size_t t : group_threads) {
        if (threads[t].channel != nullptr) {
          ++with_channels;
        }
      }
      if (with_channels < 2 || with_channels > ChannelGroup::kMaxGroupLanes) {
        continue;
      }
      auto group = system->OpenChannelGroup(threads[group_threads[0]].blade);
      if (group == nullptr) {
        continue;
      }
      for (const size_t t : group_threads) {
        if (threads[t].channel != nullptr) {
          threads[t].group_member = group->Add(threads[t].channel);
        }
      }
      sh.blade_groups[g] = group.get();
      groups.push_back(std::move(group));
    }
  }

  const SystemCounters before = system->counters();
  const PrefetchStats prefetch_before = system->prefetch_stats();
  const FaultCounters fault_before = system->fault_counters();

  // --- Phase bodies -------------------------------------------------------

  // Scan (parallel, read-only): refresh each owned thread's submitted run where stale, and
  // find the shard's barrier — the earliest timestamp it cannot replay without the drain.
  auto scan_shard = [&](int s) {  // MIND_PARALLEL_PHASE
    ShardRt& sh = shards[s];
    sh.barrier = kNoHorizon;
    sh.any_blocked = false;
    for (size_t g = 0; g < sh.blade_threads.size(); ++g) {
      ChannelGroup* group = sh.blade_groups[g];
      // Grouped blade: one validation pass covers every member's submitted run (the
      // blade-global epochs are compared once, then each member's region stamps).
      const uint64_t valid_mask = group != nullptr ? group->ValidMask() : 0;
      for (const size_t t : sh.blade_threads[g]) {
        ThreadRt& th = threads[t];
        if (th.finished) {
          continue;
        }
        const bool run_valid =
            th.channel != nullptr && (group != nullptr
                                          ? ((valid_mask >> th.group_member) & 1) != 0
                                          : th.channel->RunValid());
        const bool keep =
            th.buf_valid && !th.ran_in_drain && th.buf_pos < th.buf_len && run_valid;
        if (!keep) {
          if (th.buf_valid && th.channel != nullptr) {
            if (th.buf_pos >= th.buf_len) {
              th.window = std::min(th.window * 2, max_window);
            } else {
              // Shrink smoothly (at most halving) toward twice the committed run, so one
              // early-cut round does not collapse a well-sized window.
              th.window =
                  std::clamp(std::max(static_cast<uint32_t>(th.buf_pos) * 2, th.window / 2),
                             min_window, max_window);
            }
          }
          if (th.channel == nullptr) {
            // Opted-out thread: every op takes the serialized drain; the thread pins the
            // shard's barrier at its frontier clock so the drain always runs it in order.
            th.buf_pos = 0;
            th.buf_len = 0;
            th.blocked = true;
            th.window_capped = false;
            th.buf_end_clock = th.clock;
          } else {
            const std::vector<LocalOp>& resolved = thread_ops_[t];
            const size_t want = static_cast<size_t>(std::min<uint64_t>(
                th.window, resolved.size() - th.next_op));
            if (th.comps.size() < want) {
              th.comps.resize(want);
            }
            const SubmitResult run = th.channel->Submit(
                resolved.data() + th.next_op, want, th.clock, think, th.comps.data());
            th.buf_pos = 0;
            th.buf_len = run.accepted;
            th.uniform_lat = run.uniform_latency;
            th.latency_final = run.latency_final;
            th.blocked = run.accepted < want;
            th.window_capped = !th.blocked && th.next_op + run.accepted < resolved.size();
            th.buf_end_clock = run.end_clock;
          }
          th.buf_valid = true;
          th.ran_in_drain = false;
        }
        if (th.blocked || th.window_capped) {
          sh.any_blocked |= th.blocked;
          sh.barrier = std::min(sh.barrier, th.buf_end_clock);
        }
      }
    }
  };

  // Commit (parallel, mutating blade-local state only): replay submitted runs with start
  // timestamps strictly below the horizon. `finished` guards against a stale run: a
  // thread the drain ran to completion is skipped by the scan, so its old submitted ops
  // must never replay. Same-blade threads merge in (clock, thread) order so LRU recency,
  // dirty bits and per-blade lock occupancy evolve exactly as under per-op replay.
  auto commit_prefix = [&](ThreadRt& th, ShardRt& sh, SimTime horizon,  // MIND_PARALLEL_PHASE
                           size_t max_ops) {
    if (th.finished || !th.buf_valid) {
      return;
    }
    const size_t start = th.buf_pos;
    if (start >= th.buf_len || th.clock >= horizon) {
      return;
    }
    SimTime clock = th.clock;
    SimTime last_start = th.last_start;
    size_t count;
    if (!th.latency_final) {
      // Commit-finalized latencies (e.g. GAM's per-blade library lock under intra-blade
      // contention): commit op by op, reading the exact latency back from the channel.
      // Only the op's start clock decides horizon eligibility, so the finalized latency
      // never invalidates the decision to commit.
      count = 0;
      while (start + count < th.buf_len && count < max_ops && clock < horizon) {
        Completion& c = th.comps[start + count];
        th.channel->Commit(&c, 1, clock);
        last_start = clock;
        clock += c.latency + think;
        sh.report.latency_histogram.Record(c.latency);
        sh.report.latency_sum += c.latency;
        ++count;
      }
      if (count == 0) {
        return;
      }
    } else if (th.uniform_lat != 0) {
      // Uniform-latency run: the committable prefix is pure arithmetic — count ops whose
      // start clock lies below the horizon and account them with one RecordN.
      const SimTime step = th.uniform_lat + think;
      count = std::min(th.buf_len - start, max_ops);
      count = static_cast<size_t>(std::min<uint64_t>(
          count, (horizon - clock - 1) / step + 1));
      last_start = clock + static_cast<SimTime>(count - 1) * step;
      sh.report.latency_histogram.RecordN(th.uniform_lat, count);
      sh.report.latency_sum += th.uniform_lat * count;
      th.channel->Commit(th.comps.data() + start, count, clock);
      clock += static_cast<SimTime>(count) * step;
    } else {
      count = 0;
      while (start + count < th.buf_len && count < max_ops && clock < horizon) {
        const SimTime lat = th.comps[start + count].latency;
        last_start = clock;
        clock += lat + think;
        sh.report.latency_histogram.Record(lat);
        sh.report.latency_sum += lat;
        ++count;
      }
      if (count == 0) {
        return;
      }
      th.channel->Commit(th.comps.data() + start, count, th.clock);
    }
    sh.report.parallel_hits += count;
    sh.report.counters.total_accesses += count;
    sh.report.counters.local_hits += count;
    th.last_start = last_start;
    th.clock = clock;
    th.buf_pos = start + count;
    th.next_op += count;
    sh.report.makespan = std::max(sh.report.makespan, clock);
    if (th.next_op == traces.threads[th.index].ops.size()) {
      th.finished = true;
    }
  };
  auto commit_shard = [&](int s, SimTime horizon) {  // MIND_PARALLEL_PHASE
    ShardRt& sh = shards[s];
    TraceSink* const lane_trace = exec_sinks[static_cast<size_t>(s)];
    const uint64_t hits_before = sh.report.parallel_hits;
    const uint64_t grouped_before = sh.report.grouped_ops;
    for (size_t g = 0; g < sh.blade_threads.size(); ++g) {
      const std::vector<size_t>& group_threads = sh.blade_threads[g];
      if (ChannelGroup* group = sh.blade_groups[g]; group != nullptr) {
        // Grouped blade: gather every member with committable work into a lane, then one
        // CommitMerged call replays the merged (clock, thread) stream up to the horizon —
        // one virtual call per blade per round, with latencies finalized inside the batch.
        sh.lanes.clear();
        for (const size_t t : group_threads) {
          ThreadRt& th = threads[t];
          if (th.finished || !th.buf_valid || th.channel == nullptr ||
              th.buf_pos >= th.buf_len || th.clock >= horizon) {
            continue;
          }
          GroupLane lane;
          lane.member = th.group_member;
          lane.thread_index = th.index;
          lane.clock = th.clock;
          lane.uniform_latency = th.uniform_lat;
          lane.comps = th.comps.data() + th.buf_pos;
          lane.count = th.buf_len - th.buf_pos;
          sh.lanes.push_back(lane);
        }
        if (sh.lanes.empty()) {
          continue;
        }
        const uint64_t committed = group->CommitMerged(
            sh.lanes.data(), sh.lanes.size(), horizon, think,
            sh.report.latency_histogram);
        if (committed == 0) {
          continue;
        }
        SimTime group_end = 0;
        for (const GroupLane& lane : sh.lanes) {
          if (lane.committed == 0) {
            continue;
          }
          group_end = std::max(group_end, lane.end_clock);
          ThreadRt& th = threads[lane.thread_index];
          th.last_start = lane.last_start;
          th.clock = lane.end_clock;
          th.buf_pos += lane.committed;
          th.next_op += lane.committed;
          sh.report.latency_sum += lane.latency_sum;
          sh.report.makespan = std::max(sh.report.makespan, lane.end_clock);
          if (th.next_op == traces.threads[th.index].ops.size()) {
            th.finished = true;
          }
        }
        sh.report.parallel_hits += committed;
        sh.report.grouped_ops += committed;
        sh.report.counters.total_accesses += committed;
        sh.report.counters.local_hits += committed;
        if (lane_trace != nullptr) [[unlikely]] {
          TraceEvent ev;
          ev.kind = TraceEventKind::kGroupCommit;
          ev.clock = group_end;
          ev.blade = threads[group_threads[0]].blade;
          ev.a = committed;
          ev.b = sh.lanes.size();
          lane_trace->Emit(ev);
        }
        continue;
      }
      if (group_threads.size() == 1) {
        // One thread on the blade: the whole eligible prefix commits in one batch.
        commit_prefix(threads[group_threads[0]], sh, horizon, SIZE_MAX);
        continue;
      }
      for (;;) {
        ThreadRt* best = nullptr;
        for (const size_t t : group_threads) {
          ThreadRt& th = threads[t];
          if (th.finished || !th.buf_valid || th.buf_pos >= th.buf_len ||
              th.clock >= horizon) {
            continue;
          }
          if (best == nullptr || th.clock < best->clock ||
              (th.clock == best->clock && th.index < best->index)) {
            best = &th;
          }
        }
        if (best == nullptr) {
          break;
        }
        commit_prefix(*best, sh, horizon, 1);
      }
    }
    if (lane_trace != nullptr) [[unlikely]] {
      // One execution event per shard per round covering the plain (ungrouped) channel
      // commits; grouped batches carried their own kGroupCommit events above.
      const uint64_t plain = (sh.report.parallel_hits - hits_before) -
                             (sh.report.grouped_ops - grouped_before);
      if (plain != 0) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kChannelCommit;
        ev.clock = sh.report.makespan;
        ev.a = plain;
        ev.b = static_cast<uint64_t>(s);
        lane_trace->Emit(ev);
      }
    }
  };

  // --- Serialized drain ----------------------------------------------------

  // Ownership-aware drain contract (OwnerDrainOps, memory_system.h), or null when the
  // system does not implement it: then every drained op is ineligible and the drain runs
  // one merge step at a time. The reference path opens it too, so reference and fast
  // paths run the same ownership-partitioned drain.
  std::unique_ptr<OwnerDrainOps> owner_ops = system->OpenOwnerDrain(num_shards);
  // Lower bound on how far one eligible op advances its thread's clock; the H_safe
  // lookahead below is sound exactly because of it. Zero (degenerate zero-cost configs)
  // collapses every sub-round to a serialized step — still correct.
  const SimTime min_step = owner_ops != nullptr ? owner_ops->MinEligibleCost() + think : 0;

  SimTime next_sample = sample_interval;
  // Metrics time series: sampled only from the serialized merge step (exec_serial), so
  // every sampled value is a function of the serialized op stream — shard-count
  // invariant, and identical with tracing on or off. Reuses the sampler interval
  // without forcing the reference path (CollectMetrics only reads).
  SimTime next_metrics_at = sample_interval;
  auto sample_metrics = [&](SimTime now) {  // MIND_SERIALIZED_PATH
    if (now < next_metrics_at) {
      return;
    }
    system->CollectMetrics(metrics_.get(), "system");
    metrics_->Sample(now);
    while (now >= next_metrics_at) {
      next_metrics_at += sample_interval;
    }
  };
  // Earliest time-driven global event the drain must serialize: a scheduled fault-plane
  // drain, the system's own serial boundary (e.g. a bounded-splitting epoch end) and —
  // on the reference path — the next sampler observation point. Ops at or past it are
  // never owner-eligible, so the event fires on a serialized step exactly as under
  // per-op replay. Recomputed whenever a serialized step may have fired one.
  SimTime drain_boundary = 0;
  auto compute_boundary = [&] {
    SimTime b = system->NextScheduledFaultAt();
    if (owner_ops != nullptr) {
      b = std::min(b, owner_ops->NextSerialBoundary());
    }
    if (sampler != nullptr) {
      b = std::min(b, next_sample);
    }
    return b;
  };

  // Classifies the thread's next op for the owner drain: resolved VA/type plus the
  // eligibility verdict — start clock below the boundary, region homed at the accessing
  // thread's blade (RegionOwnership: gate identical for every shard count), and the
  // system vouching for a blade-confined hit. Cached per thread; a stale-false verdict
  // only costs a merge step, never correctness, and every invalidation rule below is a
  // deterministic function of the executed-op sequence — so the drain's sub-round/serial
  // composition is identical across shard counts.
  auto classify = [&](ThreadRt& th) {  // MIND_SERIALIZED_PATH
    if (th.drain_classified) {
      return;
    }
    const TraceOp& op = traces.threads[th.index].ops[th.next_op];
    th.top_va = AddressOf(op.segment, op.page);
    th.top_type = op.type;
    th.drain_eligible =
        owner_ops != nullptr && th.clock < drain_boundary &&
        ownership_.OwnedByAccessor(th.top_va, th.blade) &&
        owner_ops->Eligible(th.tid, th.blade, th.top_va, th.top_type, th.clock);
    th.drain_classified = true;
  };

  // Books one op the drain executed through Access for its thread: shard accounting,
  // clock advance and run-cursor alignment. Shared by the merge step and the owner
  // sub-round.
  auto retire_drained = [&](ThreadRt& th, SimTime latency) {  // MIND_SERIALIZED_PATH
    ShardReport& rep = shards[th.shard].report;
    rep.latency_histogram.Record(latency);
    rep.latency_sum += latency;
    ++rep.drained_ops;
    th.last_start = th.clock;
    th.clock += latency + think;
    if (th.buf_valid && th.buf_pos < th.buf_len) {
      // Alignment invariant: comps[buf_pos] always classifies trace op next_op, so the
      // op the drain just executed is positionally the run's next classified op —
      // advance the cursor in tandem. A still-region-valid run then resumes on the
      // fast path at the next round instead of being thrown away and reclassified
      // (drained hits used to poison the whole submitted window). State drift is
      // covered exactly as for commits: membership/writability/domain changes bump the
      // stamped regions (killing the run via RunValid), while recency and dirtiness
      // never affect classification.
      ++th.buf_pos;
    } else {
      th.ran_in_drain = true;  // Past the classified prefix: the run is stale.
    }
    rep.makespan = std::max(rep.makespan, th.clock);
    th.drain_classified = false;
    if (++th.next_op >= traces.threads[th.index].ops.size()) {
      th.finished = true;
    }
  };

  // One serialized merge step: thread `t`'s next op through the reference per-op
  // algorithm — sampler observation point, Access against the fully-merged state,
  // per-shard accounting. Returns the local-hit verdict (the bounded exit policy's
  // signal) plus how far the op's effects may have reached beyond the accessed page at
  // other blades: the invalidation wave's VA span (MIND's multicast false-invalidates
  // the whole directory entry), or `failed` for a lost-message reset (§4.4 flushes a
  // region whose span the result does not carry — reclassify everything).
  struct SerialStep {
    bool hit = false;
    bool failed = false;
    VirtAddr wave_base = 0;
    VirtAddr wave_end = 0;
  };
  auto exec_serial = [&](size_t t) {  // MIND_SERIALIZED_PATH
    ThreadRt& th = threads[t];
    if (sampler != nullptr && th.clock >= next_sample) {
      sampler(th.clock);
      while (th.clock >= next_sample) {
        next_sample += sample_interval;
      }
    }
    const TraceOp& op = traces.threads[t].ops[th.next_op];
    const AccessResult r =
        system->Access(th.tid, th.blade, AddressOf(op.segment, op.page), op.type,
                       th.clock);
    retire_drained(th, r.latency);
    sample_metrics(th.clock);
    return SerialStep{r.local_hit, !r.status.ok(), r.wave_base, r.wave_end};
  };

  // Scan and commit run ahead of global order, shard after shard on this thread; each
  // execution is bracketed as a parallel phase (docs/determinism.md) and profiled on its
  // shard's lane.
  auto run_phase = [&](PhaseProfiler::Phase phase,  // MIND_PARALLEL_PHASE
                       SimTime horizon) {
    for (int s = 0; s < num_shards; ++s) {
      // Dynamic half of the phase contract: while the scope is live, Rng draws assert.
      ParallelPhaseScope in_phase;
      const uint64_t prof_start = prof != nullptr ? prof->Begin() : 0;
      if (phase == PhaseProfiler::Phase::kScan) {
        scan_shard(s);
      } else {
        commit_shard(s, horizon);
      }
      if (prof != nullptr) {
        prof->End(static_cast<size_t>(s), phase, prof_start);
      }
    }
  };

  // Serialized drain: the reference algorithm over *all* threads. In bounded mode it
  // runs until the coherence burst passes and hands back to the channel rounds;
  // unbounded it IS serial replay, with sampler observation points between ops.
  // Correctness does not depend on the exit policy. The drain runs in sub-rounds:
  // classify every unfinished thread's top op, derive the safety horizon H_safe = min
  // over threads of (eligible ? clock + min_step : clock), and either retire the eligible
  // ops below H_safe as one owner sub-round (their clocks provably precede every other
  // top, and executed ops land at or past H_safe) or execute the exact global
  // (clock, thread) minimum as one merge step.
  std::vector<size_t> eligible;  // Sub-round scratch: the scan's eligible threads.
  eligible.reserve(threads.size());
  auto drain = [&](bool bounded, uint32_t max_coherence_ops,  // MIND_SERIALIZED_PATH
                   uint32_t hit_streak_exit) {
    uint32_t coherence_ops = 0;
    uint32_t hit_streak = 0;
    // Everything outside the drain (channel commits, scans, horizon work) may have moved
    // caches and boundaries, so start from a clean slate.
    for (ThreadRt& th : threads) {
      th.drain_classified = false;
    }
    drain_boundary = compute_boundary();
    for (;;) {
      SimTime h_safe = kNoHorizon;
      SimTime min_eligible = kNoHorizon;
      size_t t_min = SIZE_MAX;
      eligible.clear();
      for (size_t t = 0; t < threads.size(); ++t) {
        ThreadRt& th = threads[t];
        if (th.finished) {
          continue;
        }
        classify(th);
        h_safe = std::min(h_safe, th.drain_eligible ? th.clock + min_step : th.clock);
        if (th.drain_eligible) {
          min_eligible = std::min(min_eligible, th.clock);
          eligible.push_back(t);
        }
        if (t_min == SIZE_MAX || th.clock < threads[t_min].clock) {
          t_min = t;  // Ascending t: first occurrence wins clock ties.
        }
      }
      if (t_min == SIZE_MAX) {
        break;  // All threads finished.
      }
      if (min_eligible < h_safe) {
        // Owner sub-round: retire the eligible ops below H_safe in global
        // (clock, index) order. Bounded drains exist to ride out a coherence burst and
        // hand back to the channels, whose batched group commits retire hits far cheaper
        // than any drain path, so cap the sub-round at the remaining streak budget. Cap
        // and prefix depend only on global state, so the drain composition (and the
        // serialized-fraction metric) stays identical across shard counts.
        const uint64_t budget = bounded ? hit_streak_exit - hit_streak : UINT64_MAX;
        if (eligible.size() > 1) {
          std::sort(eligible.begin(), eligible.end(), [&](size_t a, size_t b) {
            return threads[a].clock != threads[b].clock
                       ? threads[a].clock < threads[b].clock
                       : threads[a].index < threads[b].index;
          });
        }
        uint64_t retired = 0;
        for (const size_t t : eligible) {
          ThreadRt& th = threads[t];
          if (th.clock >= h_safe || retired >= budget) {
            break;  // Sorted ascending: every later entry is at or past H_safe.
          }
          const AccessResult r =
              system->Access(th.tid, th.blade, th.top_va, th.top_type, th.clock);
          retire_drained(th, r.latency);
          ++shards[th.shard].report.owner_drained;
          ++retired;
          if (!th.finished) {
            // Hits never evict, insert or fire events — only this thread's verdict
            // moved; refresh it for the next sub-round's scan.
            classify(th);
          }
        }
        if (exec_sinks[0] != nullptr && retired != 0) [[unlikely]] {
          // Execution event: one owner sub-round, stamped at its safety horizon.
          // Deliberately NOT the control sink — the control ring must hold only the
          // semantic stream, so drop-oldest overflow displaces the same events for every
          // shard count; round-cadence execution events go to the shard-0 mailbox.
          TraceEvent ev;
          ev.kind = TraceEventKind::kDrainPhase;
          ev.clock = h_safe;
          ev.a = retired;
          ev.b = h_safe;
          exec_sinks[0]->Emit(ev);
        }
        if (bounded) {
          // Sub-round ops are hits by construction; the streak accumulates in bulk (any
          // deterministic, layout-invariant policy preserves bit-identity of results).
          hit_streak += static_cast<uint32_t>(std::min<uint64_t>(retired, UINT32_MAX));
          if (hit_streak >= hit_streak_exit) {
            break;
          }
        }
      } else {
        const SimTime start = threads[t_min].clock;
        const ComputeBladeId acc_blade = threads[t_min].blade;
        const VirtAddr acc_va = threads[t_min].top_va;
        const SerialStep step = exec_serial(t_min);
        if (start >= drain_boundary || step.failed) {
          // The step ran at or past a time-driven event (epoch end, scheduled drain,
          // sampler tick) and may have fired it, or it failed outright (the §4.4 reset
          // flushes a directory region whose span the result does not carry) — anything
          // can have moved. Reclassify everything against the fresh boundary.
          for (ThreadRt& th : threads) {
            th.drain_classified = false;
          }
          drain_boundary = compute_boundary();
        } else if (!step.hit) {
          // A sub-boundary miss mutates hit-state only at the accessor's blade (fetch
          // insert + eviction, lock/swap bookkeeping, prefetch issue) and on remote
          // copies inside the invalidation span: the accessed page itself (GAM's
          // page-exact unicast invalidations) plus, when a MIND multicast wave fired,
          // every page of the directory entry (false invalidations). So only verdicts
          // matching the blade, the page, or the wave span can have gone stale. The
          // miss can also *schedule* a new serial boundary (e.g. bounded splitting
          // opening an epoch): a shrunken boundary invalidates eligible verdicts now
          // at or past it.
          const bool waved = step.wave_end > step.wave_base;
          for (ThreadRt& th : threads) {
            if (th.drain_classified &&
                (th.blade == acc_blade || th.top_va == acc_va ||
                 (waved && th.top_va >= step.wave_base && th.top_va < step.wave_end))) {
              th.drain_classified = false;
            }
          }
          const SimTime fresh = compute_boundary();
          if (fresh < drain_boundary) {
            for (ThreadRt& th : threads) {
              if (th.drain_classified && th.drain_eligible && th.clock >= fresh) {
                th.drain_classified = false;
              }
            }
          }
          drain_boundary = fresh;
        }
        // A hit below the boundary fires nothing and never evicts or inserts — only the
        // executed thread's verdict (cleared by retire_drained) went stale.
        if (bounded) {
          if (step.hit) {
            if (++hit_streak >= hit_streak_exit) {
              break;
            }
          } else {
            hit_streak = 0;
            if (++coherence_ops >= max_coherence_ops) {
              break;
            }
          }
        }
      }
    }
  };

  // Serialized drain stretches record on the profiler's serial lane.
  auto timed_drain = [&](bool bounded, uint32_t max_coherence_ops,  // MIND_SERIALIZED_PATH
                         uint32_t hit_streak_exit) {
    const uint64_t drain_start = prof != nullptr ? prof->Begin() : 0;
    drain(bounded, max_coherence_ops, hit_streak_exit);
    if (prof != nullptr) {
      prof->End(prof->serial_lane(), PhaseProfiler::Phase::kSerialDrain, drain_start);
    }
  };

  if (reference_mode) {
    timed_drain(/*bounded=*/false, 0, 0);
  } else {
    // --- Round loop -------------------------------------------------------

    // Adaptive drain exit policy (deterministic, hence result-invariant — the drain is
    // always in exact global order): on coherence-dense stretches, rounds commit almost
    // nothing and the scan/commit machinery is pure overhead, so each unproductive round
    // lets the next drain run geometrically longer — both more coherence ops and a
    // longer hit streak before it hands back — keeping the engine on the near-serial
    // drain until real blade-local runs reappear; one productive round snaps the policy
    // back to the configured bounds.
    uint32_t drain_coherence_budget = options_.drain_max_coherence_ops;
    uint32_t drain_streak_exit = options_.drain_hit_streak_exit;
    constexpr uint32_t kMaxCoherenceBudget = 4096;
    constexpr uint32_t kMaxStreakExit = 64;

    for (;;) {
      run_phase(PhaseProfiler::Phase::kScan, 0);
      SimTime horizon = kNoHorizon;
      bool any_blocked = false;
      for (const ShardRt& sh : shards) {
        horizon = std::min(horizon, sh.barrier);
        any_blocked |= sh.any_blocked;
      }
      // A scheduled fault event (e.g. a blade drain) mutates caches at its chosen clock:
      // channel hits at or past that clock must not commit before the event runs on the
      // serialized path (the first drained Access with clock >= the event time fires it).
      // kNever leaves the horizon untouched.
      horizon = std::min(horizon, system->NextScheduledFaultAt());
      uint64_t committed_before = 0;
      for (const ShardRt& sh : shards) {
        committed_before += sh.report.parallel_hits;
      }
      run_phase(PhaseProfiler::Phase::kCommit, horizon);
      bool all_finished = true;
      for (const ThreadRt& th : threads) {
        if (!th.finished) {
          all_finished = false;
          break;
        }
      }
      if (all_finished) {
        break;
      }
      assert(horizon != kNoHorizon && "unfinished threads must contribute a barrier");
      uint64_t committed_after = 0;
      for (const ShardRt& sh : shards) {
        committed_after += sh.report.parallel_hits;
      }
      // When every barrier came from window exhaustion (no blocked thread), the horizon
      // thread committed its whole window and rescanning alone makes progress — except in
      // degenerate zero-latency/zero-think configs where the horizon equals the frontier
      // clock and nothing commits; the drain (always exact) then guarantees progress.
      if (any_blocked || committed_after == committed_before) {
        timed_drain(/*bounded=*/true, drain_coherence_budget, drain_streak_exit);
        if (committed_after - committed_before < threads.size()) {
          drain_coherence_budget = std::min(drain_coherence_budget * 2, kMaxCoherenceBudget);
          drain_streak_exit = std::min(drain_streak_exit * 2, kMaxStreakExit);
        } else {
          drain_coherence_budget = options_.drain_max_coherence_ops;
          drain_streak_exit = options_.drain_hit_streak_exit;
        }
      }
    }
  }

  // Trailing time-driven control-plane work: per-op replay runs splitting epochs inside
  // every Access, including hits past the last coherence event; AdvanceTo replays those
  // boundaries (same boundary timestamps, same entry stats) for full-state identity. On
  // the reference path the final Access already ran them, making this a no-op.
  SimTime max_start = 0;
  uint64_t total_ops = 0;
  for (const ShardRt& sh : shards) {
    total_ops += sh.report.parallel_hits + sh.report.drained_ops;
  }
  for (const ThreadRt& th : threads) {
    max_start = std::max(max_start, th.last_start);
  }
  if (total_ops > 0) {
    system->AdvanceTo(max_start);
  }

  // --- Merge --------------------------------------------------------------

  ReplayReport report;
  report.system = system->name();
  report.workload = traces.name;
  report.total_ops = total_ops;
  report.counters = system->counters().DeltaSince(before);
  report.prefetch = system->prefetch_stats().DeltaSince(prefetch_before);
  report.fault = system->fault_counters().DeltaSince(fault_before);
  uint64_t latency_sum = 0;
  shard_reports_.clear();
  shard_reports_.reserve(shards.size());
  for (ShardRt& sh : shards) {
    report.makespan = std::max(report.makespan, sh.report.makespan);
    report.latency_histogram.Merge(sh.report.latency_histogram);
    report.counters.Merge(sh.report.counters);
    latency_sum += sh.report.latency_sum;
    shard_reports_.push_back(std::move(sh.report));
  }
  // Throughput divides by the *merged* makespan — the slowest shard's frontier — not any
  // single shard's clock, so per-shard reports combine without inflating MOPS.
  if (report.makespan > 0) {
    report.throughput_mops =
        static_cast<double>(report.total_ops) / (ToSeconds(report.makespan) * 1e6);
  }
  if (report.total_ops > 0) {
    report.avg_latency_us =
        ToMicros(latency_sum) / static_cast<double>(report.total_ops);
  }

  // --- Observability report boundary --------------------------------------
  // Final registry fill: the system's cumulative tree under "system/", the run's delta
  // report under "replay/". Prefetch stats enter only here (prefetch_stats() resolves
  // lazily and must not run mid-drain — see MemorySystem::CollectMetrics).
  system->CollectMetrics(metrics_.get(), "system");
  report.FillRegistry(metrics_.get(), "replay");
  metrics_->SetGauge("replay/shards", static_cast<double>(effective_shards_));
  uint64_t parallel_hits = 0;
  uint64_t grouped_ops = 0;
  uint64_t drained_ops = 0;
  uint64_t owner_drained = 0;
  for (const ShardReport& sr : shard_reports_) {
    parallel_hits += sr.parallel_hits;
    grouped_ops += sr.grouped_ops;
    drained_ops += sr.drained_ops;
    owner_drained += sr.owner_drained;
  }
  metrics_->SetCounter("replay/parallel_hits", parallel_hits);
  metrics_->SetCounter("replay/grouped_ops", grouped_ops);
  metrics_->SetCounter("replay/drained_ops", drained_ops);
  metrics_->SetCounter("replay/owner_drained", owner_drained);
  if (trace_scope_ != nullptr) {
    (void)system->SetTraceSink(nullptr);  // Detach before the scope can go away.
    trace_scope_->Finalize();
    metrics_->SetCounter("trace/semantic_events", trace_scope_->semantic_events());
    metrics_->SetCounter("trace/execution_events", trace_scope_->execution_events());
    metrics_->SetCounter("trace/dropped", trace_scope_->dropped());
    metrics_->SetCounter("trace/semantic_digest", trace_scope_->SemanticDigest());
  }
  return report;
}

void ReplayReport::FillRegistry(MetricsRegistry* reg, const std::string& prefix) const {
  reg->SetGauge(prefix + "/makespan_ns", static_cast<double>(makespan));
  reg->SetCounter(prefix + "/total_ops", total_ops);
  reg->SetGauge(prefix + "/throughput_mops", throughput_mops);
  reg->SetGauge(prefix + "/avg_latency_us", avg_latency_us);
  reg->SetSummary(prefix + "/latency_ns", latency_histogram.Summary());
  reg->SetCounter(prefix + "/counters/total_accesses", counters.total_accesses);
  reg->SetCounter(prefix + "/counters/local_hits", counters.local_hits);
  reg->SetCounter(prefix + "/counters/remote_accesses", counters.remote_accesses);
  reg->SetCounter(prefix + "/counters/invalidations", counters.invalidations);
  reg->SetCounter(prefix + "/counters/pages_flushed", counters.pages_flushed);
  reg->SetCounter(prefix + "/counters/false_invalidations",
                  counters.false_invalidations);
  reg->SetCounter(prefix + "/breakdown/fault_ns", counters.breakdown_sums.fault);
  reg->SetCounter(prefix + "/breakdown/network_ns", counters.breakdown_sums.network);
  reg->SetCounter(prefix + "/breakdown/inv_queue_ns", counters.breakdown_sums.inv_queue);
  reg->SetCounter(prefix + "/breakdown/inv_tlb_ns", counters.breakdown_sums.inv_tlb);
  reg->SetCounter(prefix + "/breakdown/fabric_wait_ns",
                  counters.breakdown_sums.fabric_wait);
  reg->SetCounter(prefix + "/prefetch/issued", prefetch.issued);
  reg->SetCounter(prefix + "/prefetch/useful", prefetch.useful);
  reg->SetCounter(prefix + "/prefetch/late", prefetch.late);
  reg->SetCounter(prefix + "/prefetch/evicted_unused", prefetch.evicted_unused);
  reg->SetCounter(prefix + "/prefetch/discarded_stale", prefetch.discarded_stale);
  reg->SetCounter(prefix + "/prefetch/rearmed", prefetch.rearmed);
  reg->SetCounter(prefix + "/prefetch/throttled", prefetch.throttled);
  reg->SetGauge(prefix + "/prefetch/coverage", PrefetchCoverage());
  reg->SetCounter(prefix + "/fault/timeouts", fault.timeouts);
  reg->SetCounter(prefix + "/fault/retransmissions", fault.retransmissions);
  reg->SetCounter(prefix + "/fault/resets_triggered", fault.resets_triggered);
  reg->SetCounter(prefix + "/fault/pages_flushed_by_reset", fault.pages_flushed_by_reset);
  reg->SetCounter(prefix + "/fault/drains_completed", fault.drains_completed);
  reg->SetCounter(prefix + "/fault/drain_pages_migrated", fault.drain_pages_migrated);
  reg->SetCounter(prefix + "/fault/stalled_deliveries", fault.stalled_deliveries);
  reg->SetGauge(prefix + "/rates/remote_accesses_per_op", RemoteAccessesPerOp());
  reg->SetGauge(prefix + "/rates/invalidations_per_op", InvalidationsPerOp());
  reg->SetGauge(prefix + "/rates/flushed_pages_per_op", FlushedPagesPerOp());
}

}  // namespace mind
