// Contention modeling: busy-until FIFO resources over logical time.
//
// The replay engine executes workload threads against per-thread logical clocks. Shared
// serialization points — a directory region mid-transition, a compute blade's invalidation
// handler, a NIC link — are modeled as single-server FIFO resources: a job arriving at `now`
// starts at max(now, busy_until) and occupies the server for its service time. The wait is
// the queueing delay the paper measures as "Inv. (queue)" in Fig. 7 (right).
#ifndef MIND_SRC_SIM_RESOURCE_H_
#define MIND_SRC_SIM_RESOURCE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "src/common/types.h"

namespace mind {

class FifoResource {
 public:
  struct Grant {
    SimTime start;   // When service begins (>= arrival).
    SimTime finish;  // When service completes.
    SimTime wait;    // start - arrival (queueing delay).
  };

  // The busy-until arithmetic alone: the grant a server busy until `busy_until` gives a
  // job arriving at `arrival`. Stats-free, so other FIFO servers (the fabric's kFifo queue
  // model) share it without a second set of counters.
  static Grant Start(SimTime arrival, SimTime busy_until, SimTime service) {
    const SimTime start = std::max(arrival, busy_until);
    return Grant{start, start + service, start - arrival};
  }

  // Reserve the resource for `service` time units starting no earlier than `arrival`.
  Grant Acquire(SimTime arrival, SimTime service) {
    const Grant g = Start(arrival, busy_until_, service);
    busy_until_ = g.finish;
    total_busy_ += service;
    total_wait_ += g.wait;
    ++jobs_;
    return g;
  }

  // Extend the busy horizon without enqueuing work (used when a region must stay locked
  // until invalidation ACKs return, not just while the switch pipeline processes a packet).
  void BlockUntil(SimTime t) { busy_until_ = std::max(busy_until_, t); }

  // Applies a batch of `jobs` grants simulated externally in one pass (a ChannelGroup
  // replaying the FIFO queue over a merged same-blade stream): advances the horizon and
  // folds in exactly the aggregate stats the equivalent per-op Acquire calls would have
  // recorded.
  void AcquireBatch(uint64_t jobs, SimTime total_service, SimTime total_wait,
                    SimTime busy_until) {
    busy_until_ = std::max(busy_until_, busy_until);
    total_busy_ += total_service;
    total_wait_ += total_wait;
    jobs_ += jobs;
  }

  [[nodiscard]] SimTime busy_until() const { return busy_until_; }
  [[nodiscard]] SimTime total_busy() const { return total_busy_; }
  [[nodiscard]] SimTime total_wait() const { return total_wait_; }
  [[nodiscard]] uint64_t jobs() const { return jobs_; }

  void Reset() {
    busy_until_ = 0;
    total_busy_ = 0;
    total_wait_ = 0;
    jobs_ = 0;
  }

 private:
  SimTime busy_until_ = 0;
  SimTime total_busy_ = 0;
  SimTime total_wait_ = 0;
  uint64_t jobs_ = 0;
};

// A keyed family of FIFO resources, created on first use (e.g. one per directory region).
template <typename Key>
class ResourceMap {
 public:
  FifoResource& Get(const Key& key) { return resources_[key]; }

  [[nodiscard]] size_t size() const { return resources_.size(); }

  void Erase(const Key& key) { resources_.erase(key); }
  void Clear() { resources_.clear(); }

 private:
  std::unordered_map<Key, FifoResource> resources_;
};

}  // namespace mind

#endif  // MIND_SRC_SIM_RESOURCE_H_
