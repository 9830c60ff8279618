// FaultPlane: the deterministic, seeded fault schedule behind the §4.4 failure handling.
//
// MIND's failure story is ACK/timeout/retransmission plus a switch-driven *reset* that
// flushes a virtual address from every compute blade and drops its directory entry when a
// peer dies mid-transition. ReliabilityTracker models the per-message bookkeeping; this
// module is the schedule that drives it end to end: seeded packet loss on every
// message-with-ACK a system sends, per-blade stall windows that delay invalidation
// deliveries, a compute-blade death at a chosen clock (the blade stops ACKing, so waves
// that target it deterministically exhaust retransmissions and trigger the reset path),
// and scheduled memory-blade drains (migrate every region homed on the blade to a
// survivor, under live traffic).
//
// Determinism contract (what keeps channel replay bit-identical): loss-RNG draws happen
// only on serialized paths — replay's coherence drain executes those in exact global
// (clock, thread) order in every execution mode — so the draw sequence is the same
// under channel replay and per-op replay. Blade death and stall
// windows are pure functions of simulated time (no trigger state, no first-observation
// effects), and scheduled drains execute at their scheduled clock, which the replay engine
// guarantees by clamping its commit horizon at NextDrainAt().
#ifndef MIND_SRC_FAULT_FAULT_PLANE_H_
#define MIND_SRC_FAULT_FAULT_PLANE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/net/reliability.h"
#include "src/obs/trace.h"

namespace mind {

// Fault-event accounting every compared system reports next to SystemCounters. Merge and
// DeltaSince mirror the SystemCounters conventions so a run's delta folds into one report
// block; operator== is exact (the fault conformance oracle compares blocks).
struct FaultCounters {
  uint64_t timeouts = 0;                // ACK timers expired (includes dead-target waits).
  uint64_t retransmissions = 0;         // Extra send attempts after a timeout.
  uint64_t resets_triggered = 0;        // Retry budgets exhausted (§4.4 reset path).
  uint64_t pages_flushed_by_reset = 0;  // Dirty pages written back by reset flushes.
  uint64_t drains_completed = 0;        // Scheduled blade drains that finished.
  uint64_t drain_pages_migrated = 0;    // Pages moved off draining memory blades.
  uint64_t stalled_deliveries = 0;      // Invalidation deliveries delayed by a stall window.

  void Merge(const FaultCounters& o) {
    timeouts += o.timeouts;
    retransmissions += o.retransmissions;
    resets_triggered += o.resets_triggered;
    pages_flushed_by_reset += o.pages_flushed_by_reset;
    drains_completed += o.drains_completed;
    drain_pages_migrated += o.drain_pages_migrated;
    stalled_deliveries += o.stalled_deliveries;
  }

  // Field-wise delta over a run (counters are monotonic).
  [[nodiscard]] FaultCounters DeltaSince(const FaultCounters& before) const {
    FaultCounters d;
    d.timeouts = timeouts - before.timeouts;
    d.retransmissions = retransmissions - before.retransmissions;
    d.resets_triggered = resets_triggered - before.resets_triggered;
    d.pages_flushed_by_reset = pages_flushed_by_reset - before.pages_flushed_by_reset;
    d.drains_completed = drains_completed - before.drains_completed;
    d.drain_pages_migrated = drain_pages_migrated - before.drain_pages_migrated;
    d.stalled_deliveries = stalled_deliveries - before.stalled_deliveries;
    return d;
  }

  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

struct FaultPlaneConfig {
  // Loss model for every message-with-ACK (probability, seed, timeout, retry budget).
  ReliabilityConfig reliability;

  // Invalidation deliveries to `blade` whose switch-egress time lands in [from, until) are
  // delayed by `delay` — a stalled blade (NIC back-pressure, software pause) that slows
  // ACK collection without losing messages. Pure function of time.
  struct StallWindow {
    ComputeBladeId blade = kInvalidComputeBlade;
    SimTime from = 0;
    SimTime until = 0;
    SimTime delay = 0;
  };
  std::vector<StallWindow> stalls;

  // Compute-blade death: from clock `at` the blade stops ACKing invalidations, so any wave
  // that targets it deterministically exhausts the retry budget (no RNG draw) and the
  // requester resets the address. `at` = 0 disables.
  struct BladeDeath {
    ComputeBladeId blade = kInvalidComputeBlade;
    SimTime at = 0;
  };
  BladeDeath death;

  // Graceful memory-blade drain: at clock `at`, migrate every region homed on `blade` to
  // `dst` via the control plane's migration machinery, then the blade can be removed.
  // Entries must be sorted by `at`; `at` = 0 disables an entry.
  struct BladeDrain {
    MemoryBladeId blade = kInvalidMemoryBlade;
    MemoryBladeId dst = kInvalidMemoryBlade;
    SimTime at = 0;
  };
  std::vector<BladeDrain> drains;

  [[nodiscard]] bool lossy() const { return reliability.loss_probability > 0.0; }
};

// Per-system fault state: one seeded ReliabilityTracker plus the schedule above and the
// FaultCounters it produces. Owned by the system (Rack, GamSystem, FastSwapSystem) and —
// like everything the serialized drain touches — mutated only on serialized paths.
class FaultPlane {
 public:
  using SendOutcome = ReliabilityTracker::SendOutcome;

  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  explicit FaultPlane(const FaultPlaneConfig& config = {})
      : config_(config), tracker_(config.reliability) {}

  // True when sends must consult the plane (loss RNG armed or a death is scheduled).
  // Callers gate their SendWithAck calls on this so an unarmed plane leaves every timing
  // and counter bit-identical to a fault-free build.
  [[nodiscard]] bool Armed() const { return config_.lossy() || config_.death.at != 0; }
  [[nodiscard]] bool lossy() const { return config_.lossy(); }

  // One message-with-ACK under the loss model (draws from the seeded RNG — serialized
  // paths only). Latency includes timeout + retransmission costs actually paid.
  MIND_SERIALIZED_PATH SendOutcome SendWithAck(SimTime base_rtt) {
    return tracker_.SendWithAck(base_rtt);
  }

  // Traced variant: same draw sequence, but a retransmitted or undelivered send
  // additionally emits a kFaultTimeout event stamped at `now` (TraceScope,
  // src/obs/trace.h). Tracing observes — it never changes an outcome or a draw.
  MIND_SERIALIZED_PATH SendOutcome SendWithAck(SimTime base_rtt, SimTime now,
                                               ComputeBladeId blade) {
    const SendOutcome out = tracker_.SendWithAck(base_rtt);
    if (trace_ != nullptr && (out.attempts > 1 || !out.delivered)) [[unlikely]] {
      EmitTimeout(now, blade, out);
    }
    return out;
  }

  // Deterministic outcome for a wave that targets a dead blade: the requester waits out
  // the full retry budget without ever seeing an ACK. No RNG draw — the loss-draw sequence
  // stays identical whether or not a death is scheduled.
  MIND_SERIALIZED_PATH SendOutcome DeadTargetOutcome() {
    SendOutcome out;
    out.delivered = false;
    out.attempts = config_.reliability.max_retransmissions + 1;
    out.latency = static_cast<SimTime>(out.attempts) * config_.reliability.ack_timeout;
    extra_.timeouts += static_cast<uint64_t>(out.attempts);
    ++extra_.resets_triggered;
    return out;
  }

  // Traced variant of DeadTargetOutcome, stamped at `now` against the dead blade.
  MIND_SERIALIZED_PATH SendOutcome DeadTargetOutcome(SimTime now, ComputeBladeId blade) {
    const SendOutcome out = DeadTargetOutcome();
    if (trace_ != nullptr) [[unlikely]] {
      EmitTimeout(now, blade, out);
    }
    return out;
  }

  [[nodiscard]] bool BladeDead(ComputeBladeId b, SimTime t) const {
    return config_.death.at != 0 && b == config_.death.blade && t >= config_.death.at;
  }
  [[nodiscard]] bool AnyDead(SharerMask targets, SimTime t) const {
    return config_.death.at != 0 && t >= config_.death.at &&
           (targets & BladeBit(config_.death.blade)) != 0;
  }

  // Extra delivery delay for a message leaving the switch toward `b` at time `t`. Counts
  // the delivery as stalled when nonzero.
  MIND_SERIALIZED_PATH SimTime StallDelay(ComputeBladeId b, SimTime t) {
    SimTime d = 0;
    for (const auto& w : config_.stalls) {
      if (w.blade == b && t >= w.from && t < w.until) {
        d += w.delay;
      }
    }
    if (d != 0) {
      ++extra_.stalled_deliveries;
      if (trace_ != nullptr) [[unlikely]] {
        TraceEvent e;
        e.kind = TraceEventKind::kFaultStall;
        e.clock = t;
        e.blade = b;
        e.a = d;
        trace_->Emit(e);
      }
    }
    return d;
  }
  [[nodiscard]] bool HasStalls() const { return !config_.stalls.empty(); }

  // Earliest scheduled-but-unexecuted drain clock (kNever when none): the replay engine
  // clamps its commit horizon here so channel hits never commit past a cache-mutating
  // scheduled event.
  [[nodiscard]] SimTime NextDrainAt() const {
    return next_drain_ < config_.drains.size() && config_.drains[next_drain_].at != 0
               ? config_.drains[next_drain_].at
               : kNever;
  }

  // Pops the next drain due at or before `now` (nullptr when none). The caller executes
  // the migration with start time = the drain's scheduled `at`, not `now`, so fabric
  // interleaving is identical across replay modes.
  MIND_SERIALIZED_PATH const FaultPlaneConfig::BladeDrain* TakeDueDrain(SimTime now) {
    if (next_drain_ < config_.drains.size() && config_.drains[next_drain_].at != 0 &&
        config_.drains[next_drain_].at <= now) {
      return &config_.drains[next_drain_++];
    }
    return nullptr;
  }

  MIND_SERIALIZED_PATH void OnResetFlushed(uint64_t pages) {
    extra_.pages_flushed_by_reset += pages;
  }
  MIND_SERIALIZED_PATH void OnDrainCompleted(uint64_t pages_migrated) {
    ++extra_.drains_completed;
    extra_.drain_pages_migrated += pages_migrated;
  }

  // Tracker-sourced counters plus the plane's own events, as one block.
  [[nodiscard]] FaultCounters counters() const {
    FaultCounters c = extra_;
    const ReliabilityTracker::Snapshot s = tracker_.snapshot();
    c.timeouts += s.timeouts;
    c.retransmissions += s.retransmissions;
    c.resets_triggered += s.resets_triggered;
    return c;
  }

  [[nodiscard]] const FaultPlaneConfig& config() const { return config_; }
  [[nodiscard]] const ReliabilityTracker& tracker() const { return tracker_; }

  // Semantic-event sink (serialized paths only; null = tracing off, and every
  // hook above reduces to one pointer compare).
  void SetTraceSink(TraceSink* sink) { trace_ = sink; }

 private:
  void EmitTimeout(SimTime now, ComputeBladeId blade, const SendOutcome& out) {
    TraceEvent e;
    e.kind = TraceEventKind::kFaultTimeout;
    e.clock = now;
    e.blade = blade;
    e.a = static_cast<uint64_t>(out.attempts);
    e.b = out.latency;
    trace_->Emit(e);
  }

  FaultPlaneConfig config_;
  ReliabilityTracker tracker_;
  FaultCounters extra_;     // Events not tracked by the ReliabilityTracker itself.
  size_t next_drain_ = 0;   // Drains are executed in schedule order.
  TraceSink* trace_ = nullptr;
};

}  // namespace mind

#endif  // MIND_SRC_FAULT_FAULT_PLANE_H_
