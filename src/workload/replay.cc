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
  // Reject malformed traces before anything is allocated: threads are dealt to blades
  // modulo the blade count, and AddressOf indexes segments and their chunks unchecked.
  const int blades = std::min(traces_->num_blades, system_->num_compute_blades());
  if (blades < 1) {
    return Status(ErrorCode::kInvalidArgument, "traces need at least one compute blade");
  }
  // TraceOp's packed fields address at most kMaxTraceSegments segments of
  // kMaxSegmentPages pages each (src/workload/trace.h).
  if (traces_->segments.size() > kMaxTraceSegments) {
    return Status(ErrorCode::kInvalidArgument, "trace has more segments than TraceOp holds");
  }
  for (const SegmentSpec& seg : traces_->segments) {
    if (seg.pages > kMaxSegmentPages) {
      return Status(ErrorCode::kInvalidArgument, "segment has more pages than TraceOp holds");
    }
  }
  for (const ThreadTrace& thread : traces_->threads) {
    for (const TraceOp& op : thread.ops) {
      if (op.segment >= traces_->segments.size() ||
          op.page >= traces_->segments[op.segment].pages) {
        return Status(ErrorCode::kInvalidArgument, "trace op outside its segment");
      }
    }
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
  setup_done_ = true;
  // Resolving here keeps Run's replay loop free of address arithmetic (and out of
  // wall-clock measurements), like the rest of the setup phase.
  MaterializeOps();
  return Status::Ok();
}

void ReplayEngine::MaterializeOps() {
  thread_ops_.resize(traces_->threads.size());
  for (size_t t = 0; t < thread_ops_.size(); ++t) {
    const auto& ops = traces_->threads[t].ops;
    thread_ops_[t].reserve(ops.size());
    for (const TraceOp& op : ops) {
      const VirtAddr va = AddressOf(op.segment, op.page);
      assert(va >> kLocalOpVaBits == 0 && "resolved VA does not fit LocalOp::va");
      thread_ops_[t].push_back(LocalOp{va, op.type});
    }
  }
}

namespace {

constexpr SimTime kNoHorizon = std::numeric_limits<SimTime>::max();

// Adaptive per-thread scan-window bounds: windows start small, double while runs commit
// whole, and shrink toward the observed committed run length when a coherence horizon or
// a region-stamp invalidation cuts a run short. This bounds wasted submits to ~2x the
// committed ops even in coherence-dense traces, while hit-dominated traces quickly reach
// the maximum window, which also bounds submit-buffer memory per thread.
constexpr uint32_t kMinScanWindow = 4;
constexpr uint32_t kMaxScanWindow = 2048;

// Serialized-drain exit policy: hand back to the channel rounds after this many coherence
// (non-hit) ops, or as soon as this many consecutive hits show that a blade-local run has
// resumed. Any deterministic policy preserves bit-identity; these only trade channel
// rounds against serialized hit work. Unproductive rounds grow both geometrically up to
// the caps (see the round loop).
constexpr uint32_t kDrainCoherenceOps = 64;
constexpr uint32_t kDrainHitStreakExit = 2;
constexpr uint32_t kMaxCoherenceBudget = 4096;
constexpr uint32_t kMaxStreakExit = 64;

// Per-thread replay cursor plus its submitted run. A run is submitted once (one batched
// virtual call) and reused across rounds while it stays exact: the channel's region
// stamps are unchanged (the thread's bit in ChannelGroup::ValidMask) and the thread itself
// has not advanced through the serialized drain. Tokens inside a valid run cannot drift —
// group commits only touch recency, dirt and per-blade service occupancy.
struct ThreadRt {
  SimTime clock = 0;
  uint64_t next_op = 0;
  SimTime last_start = 0;  // Start timestamp of the last executed op (trailing epochs).
  size_t index = 0;        // Global thread index (drain tie-break, as in per-op replay).
  ThreadId tid = 0;
  ComputeBladeId blade = 0;
  AccessChannel* channel = nullptr;  // Null: every op takes the serialized drain.
  size_t group_member = 0;           // Member slot in the blade's ChannelGroup.
  bool finished = false;
  // Submitted-run state.
  bool buf_valid = false;
  bool blocked = false;        // Submit refused at the run end (a coherence op is next).
  bool window_capped = false;  // Run ended at the scan window with trace ops remaining.
  bool ran_in_drain = false;   // Cursor moved outside the fast path; run is stale.
  uint32_t window = kMinScanWindow;  // Adaptive scan-window size (see kMinScanWindow).
  SimTime buf_end_clock = 0;
  SimTime uniform_lat = 0;     // Nonzero: every op in the run has this latency.
  size_t buf_pos = 0;          // Committed prefix of the run.
  size_t buf_len = 0;          // Accepted length of the run.
  std::vector<Completion> comps;  // Typed completions from AccessChannel::Submit.
};

}  // namespace

ReplayReport ReplayEngine::Run(Sampler sampler, SimTime sample_interval) {
  assert(setup_done_ && "Setup must be called before Run");
  MemorySystem* system = system_;
  const WorkloadTraces& traces = *traces_;
  const SimTime think = traces.think_time;

  // --- Observability (src/obs/) -------------------------------------------
  // Constructed per Run so repeated Runs never mix artifacts. The trace scope's control
  // sink goes to the system (serialized-path semantic events); the engine itself writes
  // only execution events, into the scope's execution sink from its commit phase. The
  // profiler is wall-clock and never touches simulated state; the registry is filled at
  // the report boundary and sampled on the serialized drain path.
  trace_scope_.reset();
  profiler_.reset();
  metrics_ = std::make_unique<MetricsRegistry>();
  if (options_.trace) {
    trace_scope_ = std::make_unique<TraceScope>();
    (void)system->SetTraceSink(trace_scope_->control());
  }
  if (options_.profile) {
    profiler_ = std::make_unique<PhaseProfiler>();
  }
  PhaseProfiler* const prof = profiler_.get();
  TraceSink* const exec_sink = trace_scope_ != nullptr ? trace_scope_->execution() : nullptr;

  // A sampler observes the system between globally-ordered ops, so with one no channel
  // opens: every op then takes the drain in exact (clock, index) order.
  std::vector<std::unique_ptr<AccessChannel>> channels(traces.threads.size());
  if (sampler == nullptr) {
    for (size_t t = 0; t < channels.size(); ++t) {
      channels[t] = system->OpenChannel(thread_ids_[t], thread_blades_[t]);
    }
  }

  // Threads grouped by blade; the rounds visit blades in ascending order, and each
  // blade's threads in ascending index.
  size_t blades_used = 1;
  for (const ComputeBladeId b : thread_blades_) {
    blades_used = std::max(blades_used, static_cast<size_t>(b) + 1);
  }
  std::vector<ThreadRt> threads(traces.threads.size());
  std::vector<std::vector<size_t>> blade_threads(blades_used);
  for (size_t t = 0; t < threads.size(); ++t) {
    ThreadRt& th = threads[t];
    th.index = t;
    th.tid = thread_ids_[t];
    th.blade = thread_blades_[t];
    th.channel = channels[t].get();
    th.finished = traces.threads[t].ops.empty();
    blade_threads[th.blade].push_back(t);
  }

  // Per-blade channel groups: every blade with a channel-driven thread validates its runs
  // in one pass and commits them as one merged (clock, thread) batch per round — the
  // blade's only commit path. A blade the system hands no group for, or with more
  // channel threads than a group holds, drops its channels: its threads ride the drain.
  std::vector<std::unique_ptr<ChannelGroup>> groups(blades_used);
  for (size_t b = 0; b < blades_used; ++b) {
    size_t with_channels = 0;
    for (const size_t t : blade_threads[b]) {
      if (threads[t].channel != nullptr) {
        ++with_channels;
      }
    }
    if (with_channels == 0) {
      continue;
    }
    if (with_channels <= ChannelGroup::kMaxGroupLanes) {
      groups[b] = system->OpenChannelGroup(static_cast<ComputeBladeId>(b));
    }
    for (const size_t t : blade_threads[b]) {
      ThreadRt& th = threads[t];
      if (groups[b] == nullptr) {
        th.channel = nullptr;
      } else if (th.channel != nullptr) {
        th.group_member = groups[b]->Add(th.channel);
      }
    }
  }

  const SystemCounters before = system->counters();
  const PrefetchStats prefetch_before = system->prefetch_stats();
  const FaultCounters fault_before = system->fault_counters();

  // Accounting: the histogram and makespan accumulate straight into the report; channel
  // commits count their hits here, drained ops count in-system.
  ReplayReport report;
  uint64_t latency_sum = 0;
  SystemCounters channel_counters;
  accounting_ = ShardReport{};

  // --- Phase bodies -------------------------------------------------------

  // Scan (read-only): refresh each thread's submitted run where stale, and find the
  // barrier — the earliest timestamp the channels cannot replay without the drain.
  SimTime barrier = kNoHorizon;
  bool any_blocked = false;
  auto scan_runs = [&]() {  // MIND_PARALLEL_PHASE
    barrier = kNoHorizon;
    any_blocked = false;
    for (size_t b = 0; b < blades_used; ++b) {
      // One validation pass covers every member's submitted run (the blade-global epochs
      // are compared once, then each member's region stamps).
      const uint64_t valid_mask = groups[b] != nullptr ? groups[b]->ValidMask() : 0;
      for (const size_t t : blade_threads[b]) {
        ThreadRt& th = threads[t];
        if (th.finished) {
          continue;
        }
        const bool run_valid =
            th.channel != nullptr && ((valid_mask >> th.group_member) & 1) != 0;
        const bool keep =
            th.buf_valid && !th.ran_in_drain && th.buf_pos < th.buf_len && run_valid;
        if (!keep) {
          if (th.buf_valid && th.channel != nullptr) {
            if (th.buf_pos >= th.buf_len) {
              th.window = std::min(th.window * 2, kMaxScanWindow);
            } else {
              // Shrink smoothly (at most halving) toward twice the committed run, so one
              // early-cut round does not collapse a well-sized window.
              th.window =
                  std::clamp(std::max(static_cast<uint32_t>(th.buf_pos) * 2, th.window / 2),
                             kMinScanWindow, kMaxScanWindow);
            }
          }
          if (th.channel == nullptr) {
            // Opted-out thread: every op takes the serialized drain; the thread pins the
            // barrier at its frontier clock so the drain always runs it in order.
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
            th.blocked = run.accepted < want;
            th.window_capped = !th.blocked && th.next_op + run.accepted < resolved.size();
            th.buf_end_clock = run.end_clock;
          }
          th.buf_valid = true;
          th.ran_in_drain = false;
        }
        if (th.blocked || th.window_capped) {
          any_blocked |= th.blocked;
          barrier = std::min(barrier, th.buf_end_clock);
        }
      }
    }
  };

  // Commit (mutating blade-local state only): replay submitted runs with start timestamps
  // strictly below the horizon. `finished` guards against a stale run: a thread the drain
  // ran to completion is skipped by the scan, so its old submitted ops must never replay.
  // Each blade's members with committable work become lanes, and one CommitMerged call
  // replays their merged (clock, thread) stream up to the horizon — so LRU recency, dirty
  // bits and per-blade lock occupancy evolve exactly as under per-op replay, with
  // latencies finalized inside the batch.
  std::vector<GroupLane> lanes;
  auto commit_runs = [&](SimTime horizon) {  // MIND_PARALLEL_PHASE
    for (size_t b = 0; b < blades_used; ++b) {
      ChannelGroup* group = groups[b].get();
      if (group == nullptr) {
        continue;  // No channels on this blade: its threads ride the drain.
      }
      lanes.clear();
      for (const size_t t : blade_threads[b]) {
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
        lanes.push_back(lane);
      }
      if (lanes.empty()) {
        continue;
      }
      const uint64_t committed = group->CommitMerged(lanes.data(), lanes.size(), horizon,
                                                     think, report.latency_histogram);
      if (committed == 0) {
        continue;
      }
      SimTime group_end = 0;
      for (const GroupLane& lane : lanes) {
        if (lane.committed == 0) {
          continue;
        }
        group_end = std::max(group_end, lane.end_clock);
        ThreadRt& th = threads[lane.thread_index];
        th.last_start = lane.last_start;
        th.clock = lane.end_clock;
        th.buf_pos += lane.committed;
        th.next_op += lane.committed;
        latency_sum += lane.latency_sum;
        report.makespan = std::max(report.makespan, lane.end_clock);
        if (th.next_op == traces.threads[th.index].ops.size()) {
          th.finished = true;
        }
      }
      accounting_.parallel_hits += committed;
      accounting_.grouped_ops += committed;
      channel_counters.total_accesses += committed;
      channel_counters.local_hits += committed;
      if (exec_sink != nullptr) [[unlikely]] {
        TraceEvent ev;
        ev.kind = TraceEventKind::kGroupCommit;
        ev.clock = group_end;
        ev.blade = static_cast<ComputeBladeId>(b);
        ev.a = committed;
        ev.b = lanes.size();
        exec_sink->Emit(ev);
      }
    }
  };

  // --- Serialized drain ----------------------------------------------------

  // Sample points fall every `sample_interval` of simulated time; 0 means none. Advances
  // `*next` past `now` and reports whether a point was due.
  auto sample_due = [&](SimTime now, SimTime* next) {
    if (sample_interval == 0 || now < *next) {
      return false;
    }
    while (now >= *next) {
      *next += sample_interval;
    }
    return true;
  };
  SimTime next_sample = sample_interval;
  // Metrics time series: sampled only on the serialized drain (exec_serial), so every
  // sampled value is a function of the serialized op stream — identical with tracing on
  // or off. Reuses the sampler interval without closing the channels (CollectMetrics
  // only reads).
  SimTime next_metrics_at = sample_interval;

  // One drained op: thread `t`'s next op through the per-op algorithm — sampler
  // observation point, Access against the fully-merged state, accounting, clock advance
  // and run-cursor alignment. Returns the local-hit verdict (the exit policy's signal).
  auto exec_serial = [&](size_t t) {  // MIND_SERIALIZED_PATH
    ThreadRt& th = threads[t];
    if (sampler != nullptr && sample_due(th.clock, &next_sample)) {
      sampler(th.clock);
    }
    const LocalOp op = thread_ops_[t][th.next_op];
    const AccessResult r = system->Access(th.tid, th.blade, op.va, op.type, th.clock);
    report.latency_histogram.Record(r.latency);
    latency_sum += r.latency;
    ++accounting_.drained_ops;
    th.last_start = th.clock;
    th.clock += r.latency + think;
    if (th.buf_valid && th.buf_pos < th.buf_len) {
      // Alignment invariant: comps[buf_pos] always classifies trace op next_op, so the
      // op the drain just executed is positionally the run's next classified op —
      // advance the cursor in tandem. A still-region-valid run then resumes on the
      // fast path at the next round instead of being thrown away and reclassified.
      // State drift is covered exactly as for commits: membership/writability/domain
      // changes bump the stamped regions (killing the run via ValidMask), while recency
      // and dirtiness never affect classification.
      ++th.buf_pos;
    } else {
      th.ran_in_drain = true;  // Past the classified prefix: the run is stale.
    }
    report.makespan = std::max(report.makespan, th.clock);
    if (++th.next_op >= thread_ops_[t].size()) {
      th.finished = true;
    }
    if (sample_due(th.clock, &next_metrics_at)) {
      system->CollectMetrics(metrics_.get(), "system");
      metrics_->Sample(th.clock);
    }
    return r.local_hit;
  };

  // Scan and commit run ahead of global order; each is bracketed as a parallel phase
  // (docs/determinism.md) and profiled on the channel lane.
  auto run_phase = [&](PhaseProfiler::Phase phase,  // MIND_PARALLEL_PHASE
                       SimTime horizon) {
    // Dynamic half of the phase contract: while the scope is live, Rng draws assert.
    ParallelPhaseScope in_phase;
    const uint64_t prof_start = prof != nullptr ? prof->Begin() : 0;
    if (phase == PhaseProfiler::Phase::kScan) {
      scan_runs();
    } else {
      commit_runs(horizon);
    }
    if (prof != nullptr) {
      prof->End(PhaseProfiler::kChannelLane, phase, prof_start);
    }
  };

  // Serialized drain over *all* threads — execute the exact global (clock, thread)
  // minimum op, one at a time, until the coherence burst passes, then hand back to the
  // channel rounds. Correctness does not depend on the exit policy.
  auto drain = [&](uint32_t max_coherence_ops,  // MIND_SERIALIZED_PATH
                   uint32_t hit_streak_exit) {
    uint32_t coherence_ops = 0;
    uint32_t hit_streak = 0;
    for (;;) {
      size_t t_min = SIZE_MAX;
      for (size_t t = 0; t < threads.size(); ++t) {
        if (!threads[t].finished &&
            (t_min == SIZE_MAX || threads[t].clock < threads[t_min].clock)) {
          t_min = t;  // Ascending t: first occurrence wins clock ties.
        }
      }
      if (t_min == SIZE_MAX) {
        break;  // All threads finished.
      }
      if (exec_serial(t_min)) {
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
  };

  // Serialized drain stretches record on the profiler's serial lane.
  auto timed_drain = [&](uint32_t max_coherence_ops,  // MIND_SERIALIZED_PATH
                         uint32_t hit_streak_exit) {
    const uint64_t drain_start = prof != nullptr ? prof->Begin() : 0;
    drain(max_coherence_ops, hit_streak_exit);
    if (prof != nullptr) {
      prof->End(prof->serial_lane(), PhaseProfiler::Phase::kSerialDrain, drain_start);
    }
  };

  // --- Round loop -------------------------------------------------------

  // Adaptive drain exit policy (deterministic, hence result-invariant — the drain is
  // always in exact global order): on coherence-dense stretches, rounds commit almost
  // nothing and the scan/commit machinery is pure overhead, so each unproductive round
  // lets the next drain run geometrically longer — both more coherence ops and a
  // longer hit streak before it hands back — keeping the engine on the near-serial
  // drain until real blade-local runs reappear; one productive round snaps the policy
  // back to the base bounds.
  uint32_t drain_coherence_budget = kDrainCoherenceOps;
  uint32_t drain_streak_exit = kDrainHitStreakExit;

  for (;;) {
    run_phase(PhaseProfiler::Phase::kScan, 0);
    // A scheduled fault event (e.g. a blade drain) mutates caches at its chosen clock:
    // channel hits at or past that clock must not commit before the event runs on the
    // serialized path (the first drained Access with clock >= the event time fires it).
    // kNever leaves the horizon untouched.
    const SimTime horizon = std::min(barrier, system->NextScheduledFaultAt());
    const uint64_t committed_before = accounting_.parallel_hits;
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
    const uint64_t committed = accounting_.parallel_hits - committed_before;
    // When every barrier came from window exhaustion (no blocked thread), the horizon
    // thread committed its whole window and rescanning alone makes progress — except in
    // degenerate zero-latency/zero-think configs where the horizon equals the frontier
    // clock and nothing commits; the drain (always exact) then guarantees progress.
    if (any_blocked || committed == 0) {
      timed_drain(drain_coherence_budget, drain_streak_exit);
      if (committed < threads.size()) {
        drain_coherence_budget = std::min(drain_coherence_budget * 2, kMaxCoherenceBudget);
        drain_streak_exit = std::min(drain_streak_exit * 2, kMaxStreakExit);
      } else {
        drain_coherence_budget = kDrainCoherenceOps;
        drain_streak_exit = kDrainHitStreakExit;
      }
    }
  }

  // Trailing time-driven control-plane work: per-op replay runs splitting epochs inside
  // every Access, including hits past the last coherence event; AdvanceTo replays those
  // boundaries (same boundary timestamps, same entry stats) for full-state identity.
  // When the op with the latest start drained, its Access already ran them, making this
  // a no-op.
  const uint64_t total_ops = accounting_.parallel_hits + accounting_.drained_ops;
  SimTime max_start = 0;
  for (const ThreadRt& th : threads) {
    max_start = std::max(max_start, th.last_start);
  }
  if (total_ops > 0) {
    system->AdvanceTo(max_start);
  }

  // --- Report -------------------------------------------------------------

  report.system = system->name();
  report.workload = traces.name;
  report.total_ops = total_ops;
  report.counters = system->counters().DeltaSince(before);
  report.counters.Merge(channel_counters);
  report.prefetch = system->prefetch_stats().DeltaSince(prefetch_before);
  report.fault = system->fault_counters().DeltaSince(fault_before);
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
  metrics_->SetCounter("replay/parallel_hits", accounting_.parallel_hits);
  metrics_->SetCounter("replay/drained_ops", accounting_.drained_ops);
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
