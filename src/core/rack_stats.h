// Aggregate rack-level counters backing Figures 5-9.
#ifndef MIND_SRC_CORE_RACK_STATS_H_
#define MIND_SRC_CORE_RACK_STATS_H_

#include <cstdint>

#include "src/core/access.h"

namespace mind {

struct RackStats {
  uint64_t total_accesses = 0;
  uint64_t local_hits = 0;
  uint64_t remote_accesses = 0;      // Accesses that crossed the network (Fig. 6).
  uint64_t invalidations_sent = 0;   // Invalidation requests delivered to blades (Fig. 6).
  uint64_t pages_flushed = 0;        // Dirty pages written back due to invalidation (Fig. 6).
  uint64_t false_invalidations = 0;  // Flushed dirty pages that were not requested (§4.3.1).
  uint64_t clean_drops = 0;          // Clean cached pages dropped by invalidations.
  uint64_t evict_writebacks = 0;     // Dirty pages written back on LRU eviction (not Fig. 6).
  uint64_t permission_denials = 0;
  uint64_t directory_capacity_evictions = 0;  // Forced invalidations under SRAM pressure.
  uint64_t write_upgrades = 0;       // S->M upgrades satisfied without a data fetch.

  // Transition counts keyed by (previous state, invalidation needed).
  uint64_t transitions_i_to_s = 0;
  uint64_t transitions_i_to_m = 0;
  uint64_t transitions_s_to_s = 0;
  uint64_t transitions_s_to_m = 0;
  uint64_t transitions_m_stay = 0;   // Owner fault inside its own M region.
  uint64_t transitions_m_to_s = 0;
  uint64_t transitions_m_to_m = 0;   // Ownership handoff.

  LatencyBreakdown breakdown_sums;   // Summed over remote accesses.

  RackStats Delta(const RackStats& earlier) const {
    RackStats d = *this;
    d.total_accesses -= earlier.total_accesses;
    d.local_hits -= earlier.local_hits;
    d.remote_accesses -= earlier.remote_accesses;
    d.invalidations_sent -= earlier.invalidations_sent;
    d.pages_flushed -= earlier.pages_flushed;
    d.false_invalidations -= earlier.false_invalidations;
    d.clean_drops -= earlier.clean_drops;
    d.evict_writebacks -= earlier.evict_writebacks;
    d.permission_denials -= earlier.permission_denials;
    d.directory_capacity_evictions -= earlier.directory_capacity_evictions;
    d.write_upgrades -= earlier.write_upgrades;
    d.transitions_i_to_s -= earlier.transitions_i_to_s;
    d.transitions_i_to_m -= earlier.transitions_i_to_m;
    d.transitions_s_to_s -= earlier.transitions_s_to_s;
    d.transitions_s_to_m -= earlier.transitions_s_to_m;
    d.transitions_m_stay -= earlier.transitions_m_stay;
    d.transitions_m_to_s -= earlier.transitions_m_to_s;
    d.transitions_m_to_m -= earlier.transitions_m_to_m;
    d.breakdown_sums = breakdown_sums - earlier.breakdown_sums;
    return d;
  }
};

}  // namespace mind

#endif  // MIND_SRC_CORE_RACK_STATS_H_
