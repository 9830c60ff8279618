#include "src/net/queue_model.h"

#include "src/sim/resource.h"

namespace mind {

namespace {

// Single-server busy-until FIFO on FifoResource::Start's arithmetic, so the default fabric
// configuration replays exactly the historical FifoResource timing. Statistics stay in
// QueueModel::Acquire.
class FifoQueueModel final : public QueueModel {
 public:
  using QueueModel::QueueModel;

 protected:
  Grant DoAcquire(SimTime arrival, SimTime service) override {
    const FifoResource::Grant g = FifoResource::Start(arrival, busy_until_, service);
    busy_until_ = g.finish;
    return Grant{g.start, g.finish, g.wait};
  }

 private:
  SimTime busy_until_ = 0;
};

// Pass-through stage: the message is timed by the caller's flat pipeline constant; the
// model only records demand so Utilization()/metrics still see the stage's load.
class PassThroughModel final : public QueueModel {
 public:
  using QueueModel::QueueModel;

 protected:
  Grant DoAcquire(SimTime arrival, SimTime service) override {
    return Grant{arrival, arrival + service, 0};
  }
};

// Windowed M/G/1 wait estimate: rho from the sliding demand window, mean service from
// the same window, wait ≈ rho·S̄ / (2·(1 − rho)). rho is clamped below 1 so a saturated
// window yields a large-but-finite (and deterministic) penalty instead of a singularity.
class WindowedMG1QueueModel final : public QueueModel {
 public:
  using QueueModel::QueueModel;

 protected:
  Grant DoAcquire(SimTime arrival, SimTime service) override {
    constexpr double kMaxRho = 0.98;
    double rho = Utilization();  // Demand before this request (Acquire records it after).
    if (rho > kMaxRho) {
      rho = kMaxRho;
    }
    const uint64_t n = QueueDepth();
    const double mean_service =
        n == 0 ? static_cast<double>(service)
               : static_cast<double>(demand_sum()) / static_cast<double>(n);
    const auto wait = static_cast<SimTime>(rho * mean_service / (2.0 * (1.0 - rho)));
    const SimTime start = arrival + wait;
    return Grant{start, start + service, wait};
  }
};

}  // namespace

std::unique_ptr<QueueModel> MakeQueueModel(const FabricConfig& config) {
  switch (config.queue_model) {
    case QueueModelKind::kFifo:
      return std::make_unique<FifoQueueModel>(config.window_ns);
    case QueueModelKind::kWindowedMG1:
      return std::make_unique<WindowedMG1QueueModel>(config.window_ns);
  }
  return std::make_unique<FifoQueueModel>(config.window_ns);
}

std::unique_ptr<QueueModel> MakeStageModel(const FabricConfig& config) {
  if (config.queue_model == QueueModelKind::kFifo) {
    return std::make_unique<PassThroughModel>(config.window_ns);
  }
  return MakeQueueModel(config);
}

}  // namespace mind
