// Trace replay engine: the memory-access emulator of §7, built on AccessChannels.
//
// ReplayEngine replays system-independent traces against any MemorySystem, entirely on
// the calling thread. Replay alternates between channel rounds (every thread submits its
// blade-local run through AccessChannel::Submit, then each blade validates and commits
// its members' runs through its ChannelGroup — see src/core/access_channel.h) and a
// serialized drain (coherence events — faults, invalidation waves, directory
// transitions, splitting epochs — execute through per-op Access in global timestamp
// order). The handoff between the two is a bounded epoch horizon: each round scans every
// thread forward to the timestamp of its first non-local op (or a bounded window), the
// earliest of those becomes the commit horizon H, and only ops starting strictly before
// H commit, as one merged (clock, thread) batch per blade. Because a channel-accepted op
// neither reads nor writes anything a cross-blade coherence event can change (cache
// membership, permissions and PSO barriers are only mutated by the serialized drain,
// and submitted runs are revalidated against per-2MB-region version stamps), the merged
// result is bit-identical to per-op replay — same makespan, counters and latency
// histogram.
//
// The drain is one loop: pick the unfinished thread with the least (clock, index), run
// its next op through Access, book it, and hand back to the channel rounds under a
// bounded exit policy (a streak of hits, or a budget of coherence ops).
//
// Two situations force the pure per-op reference path (every op through the drain in
// global (clock, thread) order): a non-null sampler, which needs exact globally-ordered
// observation points, and ReplayOptions::use_channels = false, the conformance baseline
// the channel contract is tested against. An optional sampler observes the system at
// fixed simulated-time intervals (used for the directory-occupancy time series of Fig. 8
// left).
#ifndef MIND_SRC_WORKLOAD_REPLAY_H_
#define MIND_SRC_WORKLOAD_REPLAY_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/baselines/memory_system.h"
#include "src/common/histogram.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/phase_profiler.h"
#include "src/obs/trace_scope.h"
#include "src/workload/trace.h"

namespace mind {

struct ReplayReport {
  std::string system;
  std::string workload;
  SimTime makespan = 0;           // Simulated time until the last thread finished.
  uint64_t total_ops = 0;
  double throughput_mops = 0.0;   // Million operations per simulated second.
  double avg_latency_us = 0.0;    // Mean thread-visible latency.
  Histogram latency_histogram;
  SystemCounters counters;        // Delta over the run.
  PrefetchStats prefetch;         // Delta over the run (all-zero with policy kNone).
  FaultCounters fault;            // Delta over the run (all-zero without fault injection).

  // Derived per-access rates (Fig. 6).
  [[nodiscard]] double RemoteAccessesPerOp() const {
    return total_ops == 0 ? 0.0
                          : static_cast<double>(counters.remote_accesses) /
                                static_cast<double>(total_ops);
  }
  [[nodiscard]] double InvalidationsPerOp() const {
    return total_ops == 0 ? 0.0
                          : static_cast<double>(counters.invalidations) /
                                static_cast<double>(total_ops);
  }
  [[nodiscard]] double FlushedPagesPerOp() const {
    return total_ops == 0 ? 0.0
                          : static_cast<double>(counters.pages_flushed) /
                                static_cast<double>(total_ops);
  }

  // Remote-fault coverage of the prefetcher: the fraction of would-be remote faults a
  // prefetched page turned into local hits. Useful prefetches removed their fault from
  // counters.remote_accesses, so the denominator reassembles the no-prefetch fault count.
  [[nodiscard]] double PrefetchCoverage() const {
    const double would_fault =
        static_cast<double>(prefetch.useful + counters.remote_accesses);
    return would_fault == 0.0 ? 0.0 : static_cast<double>(prefetch.useful) / would_fault;
  }

  // Publishes every report field into the registry under `prefix` — the single
  // exporter the example binaries and figure generators print from, so the
  // report schema lives in exactly one place (src/obs/metrics_registry.h).
  void FillRegistry(MetricsRegistry* reg, const std::string& prefix) const;
};

struct ReplayOptions {
  // Ignored: replay has no shard partition. Kept because bench/mindbench still sets it.
  int shards = 1;
  // Drive blade-local runs through the systems' AccessChannels, committed per blade
  // through ChannelGroups (a blade without a group drains). Off = the per-op serial
  // reference path (every op through Access in exact global order) that the channel
  // conformance suite compares against.
  bool use_channels = true;
  // Prefetch policy applied to the system at Setup (MemorySystem::SetPrefetchPolicy).
  // kNone — the default — leaves the system untouched, so replay stays bit-identical to
  // the pre-prefetch engine. With a real policy, replay is deterministic for a fixed
  // configuration, and the report carries the prefetch accounting delta
  // (issued/useful/late + derived coverage).
  PrefetchPolicy prefetch = PrefetchPolicy::kNone;
  // Record a TraceScope (src/obs/trace_scope.h) for the run: semantic events from the
  // systems' serialized paths into the control sink, execution events (group commits)
  // from the engine into the execution sink. Off — the default — constructs nothing and
  // leaves the systems' sinks null, so the hot path pays at most one pointer compare per
  // miss and nothing at all on hits.
  bool trace = false;
  // Record wall-clock per-phase profiles (src/obs/phase_profiler.h). Never part of the
  // deterministic digest; off = the profiler is not constructed = zero host-clock reads.
  bool profile = false;
};

// Channel vs drain accounting of the last Run. The engine keeps exactly one block; the
// name and the shard_reports() accessor remain because bench/mindbench reads them.
struct ShardReport {
  uint64_t parallel_hits = 0;  // Ops committed on the channel path.
  // Ops committed via per-blade groups. Every channel op commits through its blade's
  // group, so this equals parallel_hits; kept because bench/mindbench reports it.
  uint64_t grouped_ops = 0;
  uint64_t drained_ops = 0;    // Ops executed by the serialized drain.
  uint64_t owner_drained = 0;  // Always 0; kept because bench/mindbench reads it.
};

class ReplayEngine {
 public:
  // `sampler(now)` is invoked every `sample_interval` of simulated time when provided.
  using Sampler = std::function<void(SimTime)>;

  ReplayEngine(MemorySystem* system, const WorkloadTraces* traces,
               ReplayOptions options = {})
      : system_(system), traces_(traces), options_(options) {}

  // Allocates segments and registers threads (round-robin over blades). Must be called
  // exactly once before Run. Large segments are allocated in 64 MB chunks, matching how
  // real applications grow their heaps (and letting the balanced allocator spread a big
  // segment's bandwidth across memory blades instead of pinning it to one). Malformed
  // traces — no compute blade, more segments or a larger segment than TraceOp's packed
  // fields address, or an op outside its segment — are rejected with kInvalidArgument
  // before anything is allocated.
  Status Setup();

  // Replays the traces on the calling thread. A non-null sampler needs exact global-order
  // observation points, so it forces the per-op reference path (documented fallback);
  // otherwise the channel rounds run. `sample_interval` spaces both the sampler calls and
  // the registry's mid-run series points; 0 disables mid-run sampling (the sampler never
  // fires and metrics()->series() stays empty).
  ReplayReport Run(Sampler sampler = nullptr, SimTime sample_interval = 10 * kMillisecond);

  // VA of `page` within `segment` after Setup (tests poke at specific addresses).
  [[nodiscard]] VirtAddr AddressOf(uint32_t segment, uint64_t page) const {
    const SegmentMap& m = segments_[segment];
    return m.chunk_bases[page / kChunkPages] + PageToAddr(page % kChunkPages);
  }

  // Always exactly one entry: the last Run's accounting (all-zero before the first Run).
  [[nodiscard]] std::span<const ShardReport> shard_reports() const {
    return {&accounting_, 1};
  }

  // Observability artifacts of the last Run (src/obs/). The trace scope is non-null and
  // finalized after a Run with options.trace; the profiler after one with
  // options.profile. The metrics registry always exists after Run: report fields plus
  // MemorySystem::CollectMetrics under "system/...", with mid-run series points sampled
  // on the serialized drain path at the sampler interval.
  [[nodiscard]] TraceScope* trace_scope() { return trace_scope_.get(); }
  [[nodiscard]] const TraceScope* trace_scope() const { return trace_scope_.get(); }
  [[nodiscard]] const PhaseProfiler* profiler() const { return profiler_.get(); }
  [[nodiscard]] MetricsRegistry* metrics() { return metrics_.get(); }

  static constexpr uint64_t kChunkPages = (64ull << 20) >> kPageShift;

 private:
  struct SegmentMap {
    std::vector<VirtAddr> chunk_bases;
  };

  // Materializes the VA-resolved op stream per thread on first use: the scan phase hands
  // contiguous slices of these arrays straight to AccessChannel::Submit instead of
  // re-resolving addresses per op (costs one 8-byte LocalOp per trace op, on top of the
  // trace's own 8-byte TraceOp; skipped entirely on the per-op reference path, which
  // resolves through AddressOf as it drains).
  void MaterializeOps();

  MemorySystem* system_;          // Not owned.
  const WorkloadTraces* traces_;  // Not owned.
  ReplayOptions options_;
  std::vector<SegmentMap> segments_;
  std::vector<ThreadId> thread_ids_;
  std::vector<ComputeBladeId> thread_blades_;
  std::vector<std::vector<LocalOp>> thread_ops_;  // Per-thread VA-resolved trace (lazy).
  bool setup_done_ = false;
  ShardReport accounting_;
  std::unique_ptr<TraceScope> trace_scope_;    // Non-null after Run with options.trace.
  std::unique_ptr<PhaseProfiler> profiler_;    // Non-null after Run with options.profile.
  std::unique_ptr<MetricsRegistry> metrics_;   // Non-null after Run.
};

}  // namespace mind

#endif  // MIND_SRC_WORKLOAD_REPLAY_H_
