// Pluggable deterministic queue models for fabric ports and switch pipeline stages.
//
// The fabric used to model every port as a busy-until FifoResource and every switch
// pipeline pass as a flat constant — correct on an idle rack, blind under load: incast at
// a hot memory blade, invalidation-wave fan-out and prefetch traffic stealing demand
// bandwidth were all invisible. This header makes the queueing discipline pluggable, in
// the shape Graphite's performance models proved out for deterministic discrete-time
// simulators (windowed-M/G/1 queue models):
//
//   * kFifo        — single-server busy-until FIFO on FifoResource::Start's arithmetic
//                    (the default; replay timing is unchanged).
//   * kWindowedMG1 — an analytical M/G/1 wait estimate from recent demand: utilization
//                    rho over a sliding window turns into wait ≈ rho·S̄ / (2·(1 − rho)).
//                    Requests never serialize against each other directly; the *estimate*
//                    rises with offered load, which is what a load-latency curve needs.
//
// Every model additionally tracks a sliding demand window — (arrival, service) pairs with
// a running sum — from which Utilization() reports the fraction of recent wall time the
// port was asked to serve. That number is the occupancy-feedback signal: it drives the
// MetricsRegistry port gauges and PrefetchEngine issue throttling.
//
// Determinism contract (docs/determinism.md): models are pure functions of the serialized
// Acquire call stream — no RNG, no wall clock, no iteration over unordered containers —
// and are only ever called from MIND_SERIALIZED_PATH code (the fabric is part of the
// serialized coherence path). Channel replay therefore stays bit-identical to per-op
// replay under any fault schedule with any model enabled.
#ifndef MIND_SRC_NET_QUEUE_MODEL_H_
#define MIND_SRC_NET_QUEUE_MODEL_H_

#include <cstdint>
#include <deque>
#include <memory>

#include "src/common/thread_annotations.h"
#include "src/common/types.h"

namespace mind {

enum class QueueModelKind : uint8_t {
  kFifo = 0,
  kWindowedMG1,
};

[[nodiscard]] constexpr const char* ToString(QueueModelKind kind) {
  switch (kind) {
    case QueueModelKind::kFifo:
      return "fifo";
    case QueueModelKind::kWindowedMG1:
      return "windowed-mg1";
  }
  return "?";
}

// Queueing configuration of a Fabric, embedded in RackConfig / GamConfig /
// FastSwapConfig (the FaultPlaneConfig pattern). The default is kFifo with the
// historical behavior: timing bit-identical to the pre-queue-model fabric.
struct FabricConfig {
  QueueModelKind queue_model = QueueModelKind::kFifo;
  // Sliding demand window for Utilization() and the kWindowedMG1 estimate. 200 us spans
  // a few dozen remote fetches at paper latencies — long enough to smooth bursts, short
  // enough that pressure decays once traffic moves away.
  SimTime window_ns = 200'000;
};

// One service point (a port direction, or a switch pipeline stage).
class QueueModel {
 public:
  struct Grant {
    SimTime start;   // When service begins (>= arrival).
    SimTime finish;  // When service completes.
    SimTime wait;    // start - arrival (queueing delay).
  };

  explicit QueueModel(SimTime window_ns) : window_(window_ns == 0 ? 1 : window_ns) {}
  virtual ~QueueModel() = default;
  QueueModel(const QueueModel&) = delete;
  QueueModel& operator=(const QueueModel&) = delete;

  // Reserve the service point for `service` time units starting no earlier than
  // `arrival`. Serialized-path only: mutates the demand window and model state.
  MIND_SERIALIZED_PATH Grant Acquire(SimTime arrival, SimTime service) {
    // The wait is computed against demand *before* this request (a request never queues
    // behind itself), then the request joins the window.
    Grant g = DoAcquire(arrival, service);
    RecordDemand(arrival, service);
    total_busy_ += service;
    total_wait_ += g.wait;
    ++jobs_;
    return g;
  }

  // Fraction of the sliding window consumed by recent demand, clamped to [0, 1].
  // Evaluated at the latest arrival the model has seen, so it is a pure function of the
  // serialized Acquire stream (no "current time" input that could differ across modes).
  [[nodiscard]] double Utilization() const {
    const double u = static_cast<double>(demand_sum_) / static_cast<double>(window_);
    return u > 1.0 ? 1.0 : u;
  }

  // Requests still inside the sliding demand window (the queue-depth gauge).
  [[nodiscard]] uint64_t QueueDepth() const { return demand_.size(); }

  // Raw windowed demand (service time requested inside the window, unclamped).
  [[nodiscard]] SimTime demand_sum() const { return demand_sum_; }

  [[nodiscard]] SimTime total_busy() const { return total_busy_; }
  [[nodiscard]] SimTime total_wait() const { return total_wait_; }
  [[nodiscard]] uint64_t jobs() const { return jobs_; }
  [[nodiscard]] SimTime window() const { return window_; }
  [[nodiscard]] SimTime horizon() const { return horizon_; }

 protected:
  virtual Grant DoAcquire(SimTime arrival, SimTime service) = 0;

  // Latest arrival seen minus the window — demand and (model-specific) history older
  // than this can no longer affect any estimate.
  [[nodiscard]] SimTime WindowFloor() const {
    return horizon_ > window_ ? horizon_ - window_ : 0;
  }

 private:
  void RecordDemand(SimTime arrival, SimTime service) {
    horizon_ = arrival > horizon_ ? arrival : horizon_;
    demand_.push_back({arrival, service});
    demand_sum_ += service;
    const SimTime floor = WindowFloor();
    while (!demand_.empty() && demand_.front().arrival < floor) {
      demand_sum_ -= demand_.front().service;
      demand_.pop_front();
    }
  }

  struct Demand {
    SimTime arrival;
    SimTime service;
  };

  SimTime window_;
  SimTime horizon_ = 0;     // Latest arrival observed.
  SimTime demand_sum_ = 0;  // Sum of service over demand_.
  std::deque<Demand> demand_;
  SimTime total_busy_ = 0;
  SimTime total_wait_ = 0;
  uint64_t jobs_ = 0;
};

// Builds a port model of the configured kind.
[[nodiscard]] std::unique_ptr<QueueModel> MakeQueueModel(const FabricConfig& config);

// Builds a switch pipeline-stage model. Under kFifo this is a pass-through (wait 0,
// demand still recorded): historically the pipeline was a flat constant that every
// message paid concurrently, and the default must stay bit-identical to that. The other
// kinds contend on the stage with `MakeQueueModel`'s discipline.
[[nodiscard]] std::unique_ptr<QueueModel> MakeStageModel(const FabricConfig& config);

}  // namespace mind

#endif  // MIND_SRC_NET_QUEUE_MODEL_H_
