// PhaseProfiler: real wall-clock time per replay phase.
//
// This is the one component of src/obs/ that reads the host clock, so it is
// explicitly OUTSIDE the determinism contract: profiles are never part of the
// deterministic digest, never feed back into simulated time, and are gated
// behind ReplayOptions::profile (off = not constructed = zero clock reads on
// any path). The exported Perfetto track shows how long each scan/commit phase
// and each serialized drain stretch actually took on the host.
//
// Two lanes: kChannelLane records the channel rounds' scan and commit phases,
// serial_lane() the serialized drain stretches.
#ifndef MIND_SRC_OBS_PHASE_PROFILER_H_
#define MIND_SRC_OBS_PHASE_PROFILER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace mind {

class PhaseProfiler {
 public:
  enum class Phase : uint8_t {
    kScan = 0,         // Scan phase (channel submit/classify).
    kCommit = 1,       // Commit phase (per-blade group commits).
    kSerialDrain = 2,  // Serialized drain stretch.
    kBarrierWait = 3,  // Never recorded (reads 0); kept because bench/mindbench reads it.
  };
  static constexpr int kNumPhases = 4;
  static constexpr size_t kMaxIntervalsPerLane = 1 << 14;

  struct Interval {
    uint64_t start_ns = 0;  // Host ns relative to profiler construction.
    uint64_t dur_ns = 0;
    Phase phase = Phase::kScan;
  };

  struct Lane {
    uint64_t total_ns[kNumPhases] = {};
    uint64_t count[kNumPhases] = {};
    std::vector<Interval> intervals;  // Bounded; overflow counted, not stored.
    uint64_t intervals_dropped = 0;
  };

  static constexpr size_t kChannelLane = 0;

  PhaseProfiler() : origin_ns_(HostNowNs()) {}

  // Host monotonic clock. Sole wall-clock read in src/ outside the sim layer;
  // diagnostics-only by construction (see file comment).
  [[nodiscard]] static uint64_t HostNowNs() {
    // detlint: allow(banned-source): wall-clock phase profiler, excluded from the deterministic digest
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
  }

  [[nodiscard]] uint64_t Begin() const { return HostNowNs(); }

  // Records [start, now) into `lane` (kChannelLane or serial_lane()).
  void End(size_t lane, Phase phase, uint64_t start_ns) {
    const uint64_t end_ns = HostNowNs();
    Lane& l = lanes_[lane];
    const auto p = static_cast<size_t>(phase);
    const uint64_t dur = end_ns - start_ns;
    l.total_ns[p] += dur;
    ++l.count[p];
    if (l.intervals.size() < kMaxIntervalsPerLane) {
      l.intervals.push_back(Interval{start_ns - origin_ns_, dur, phase});
    } else {
      ++l.intervals_dropped;
    }
  }

  [[nodiscard]] size_t serial_lane() const { return 1; }
  [[nodiscard]] size_t num_lanes() const { return lanes_.size(); }
  [[nodiscard]] const Lane& lane(size_t i) const { return lanes_[i]; }
  [[nodiscard]] uint64_t origin_ns() const { return origin_ns_; }

  [[nodiscard]] static const char* PhaseName(Phase p) {
    switch (p) {
      case Phase::kScan: return "scan";
      case Phase::kCommit: return "commit";
      case Phase::kSerialDrain: return "serial-drain";
      case Phase::kBarrierWait: return "barrier-wait";
    }
    return "?";
  }

 private:
  std::array<Lane, 2> lanes_;
  uint64_t origin_ns_;
};

}  // namespace mind

#endif  // MIND_SRC_OBS_PHASE_PROFILER_H_
