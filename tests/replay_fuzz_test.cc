// Replay conformance fuzzer: channel replay against the per-op oracle of
// tests/replay_conformance.h over seeded random configurations.
//
// Each seed of the fixed range [kFirstSeed, kLastSeed] draws one small configuration (the
// system and its blades x threads, the trace shape, caches and directory, a fault plan,
// prefetch, the queue model, store_data and the observers) and is its own test,
// ReplayFuzz.Seed<N>. Every draw must match the oracle in every report field and in the
// final `system/` metrics tree, and keep the per-draw invariants below. A failing seed
// ends with one line naming the seed and its drawn config; rerun it alone with
// --gtest_filter=ReplayFuzz.Seed<N>.
//
// ReplayFuzz.CensusCoversEveryMechanism runs after the seeds and requires the range to
// exercise every mechanism the conformance cases it replaced asserted on, so a change to
// the draws cannot quietly stop testing one.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/common/rng.h"
#include "src/core/channel_group.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"
#include "tests/replay_conformance.h"

namespace mind {
namespace {

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 200;

enum class SystemKind : uint8_t { kMindTso, kMindPso, kMindMesi, kGam, kFastSwap };
constexpr const char* kSystemNames[] = {"mind-tso", "mind-pso", "mind-mesi", "gam",
                                        "fastswap"};
constexpr const char* kPatternNames[] = {"sequential", "uniform", "zipfian", "strided",
                                         "pointer-chase"};

// One drawn configuration. Scheduled fault times are in quarters of the draw's
// fault-free oracle makespan until ScheduleAt scales them.
struct Draw {
  uint64_t seed = 0;
  SystemKind system = SystemKind::kMindTso;
  int memory_blades = 2;
  uint64_t cache_mb = 1;
  uint32_t directory_slots = 0;  // MIND only, as are the epoch, store_data and schedule.
  SimTime epoch = 0;
  bool store_data = false;
  QueueModelKind queue = QueueModelKind::kFifo;
  FaultPlaneConfig fault;
  WorkloadSpec spec;
  ReplayOptions options;
  SimTime sample_interval = 0;  // Nonzero: a sampler observes both runs.

  [[nodiscard]] bool mind() const { return system <= SystemKind::kMindMesi; }
  [[nodiscard]] bool scheduled() const {
    return !fault.stalls.empty() || fault.death.at != 0 || !fault.drains.empty();
  }
};

template <typename T, size_t N>
T Pick(Rng& rng, const T (&options)[N]) {
  return options[rng.NextBelow(N)];
}

Draw DrawConfig(uint64_t seed) {
  Rng rng(seed);
  Draw d;
  d.seed = seed;
  d.system = static_cast<SystemKind>(rng.NextBelow(5));

  WorkloadSpec& s = d.spec;
  s.name = "fuzz";
  s.seed = seed;
  s.num_blades = d.system == SystemKind::kFastSwap ? 1 : 1 + static_cast<int>(rng.NextBelow(4));
  // Mostly 1-4 threads per blade; some draws give a blade more lanes than a group merges
  // with its linear scan.
  s.threads_per_blade = static_cast<int>(
      rng.NextBool(0.2) ? kGroupMergeLinearScanMax + 1 + rng.NextBelow(4) : 1 + rng.NextBelow(4));
  s.accesses_per_thread = std::max<uint64_t>(500, 12'000 / s.total_threads());
  s.private_pages_per_thread = 16ull << rng.NextBelow(7);
  s.private_pattern = static_cast<Pattern>(rng.NextBelow(5));
  s.stride_pages = 1 + rng.NextBelow(8);
  s.private_write_fraction = rng.NextDouble();
  if (rng.NextBool(0.6)) {
    s.shared_pages = 16ull << rng.NextBelow(8);
    s.shared_pattern = static_cast<Pattern>(rng.NextBelow(5));
    s.shared_access_fraction = Pick(rng, {0.002, 0.02, 0.2, 0.6});
    s.shared_write_fraction = 0.5 * rng.NextDouble();
  }
  if (rng.NextBool(0.3)) {
    s.metadata_pages = 4ull << rng.NextBelow(4);
    s.metadata_touch_prob = Pick(rng, {0.01, 0.1, 0.5});
  }
  s.think_time = Pick<SimTime>(rng, {0, 50, 200, 1000});

  d.memory_blades = 2 + static_cast<int>(rng.NextBelow(3));
  d.cache_mb = 1 + rng.NextBelow(8);
  d.directory_slots = 64u << rng.NextBelow(6);
  d.epoch = Pick<SimTime>(rng, {kMillisecond / 2, kMillisecond, 2 * kMillisecond});
  d.store_data = d.mind() && rng.NextBool(0.15);
  d.queue = rng.NextBool(0.3) ? QueueModelKind::kWindowedMG1 : QueueModelKind::kFifo;

  d.fault.reliability.loss_probability = Pick(rng, {0.0, 0.0, 0.005, 0.05});
  d.fault.reliability.loss_seed = seed;
  if (d.mind()) {
    // A storm draw schedules every kind at once.
    const bool storm = rng.NextBool(0.1);
    const auto quarter = [&rng] { return SimTime{1} + rng.NextBelow(3); };
    const auto blade = [&rng](int n) { return static_cast<uint16_t>(rng.NextBelow(n)); };
    if (storm || rng.NextBool(0.2)) {
      const SimTime from = quarter();
      d.fault.stalls.push_back({blade(s.num_blades), from - 1, from + 1,
                                Pick<SimTime>(rng, {5, 20, 50}) * kMicrosecond});
    }
    if (storm || rng.NextBool(0.2)) {
      d.fault.death = {blade(s.num_blades), quarter()};
    }
    if (storm || rng.NextBool(0.25)) {
      const MemoryBladeId src = blade(d.memory_blades);
      const auto dst = static_cast<MemoryBladeId>((src + 1 + blade(d.memory_blades - 1)) %
                                                  d.memory_blades);
      d.fault.drains.push_back({src, dst, quarter()});
    }
  }

  d.options.prefetch = Pick(rng, {PrefetchPolicy::kNone, PrefetchPolicy::kNone,
                                  PrefetchPolicy::kNextN, PrefetchPolicy::kMajorityStride});
  d.options.trace = rng.NextBool(0.5);
  d.options.profile = rng.NextBool(0.3);
  if (rng.NextBool(0.15)) {
    d.sample_interval = Pick<SimTime>(rng, {20, 100}) * kMicrosecond;
  }
  return d;
}

// The draw on one line: enough to recognize it, and the filter that reruns it.
std::string Describe(const Draw& d) {
  const WorkloadSpec& s = d.spec;
  const FaultPlaneConfig& f = d.fault;
  std::ostringstream os;
  os << "seed " << d.seed << ": " << kSystemNames[static_cast<int>(d.system)] << " "
     << s.num_blades << "x" << s.threads_per_blade << " threads, " << d.memory_blades
     << " memory blades, " << s.accesses_per_thread << " ops/thread, private "
     << s.private_pages_per_thread << "p " << kPatternNames[static_cast<int>(s.private_pattern)]
     << " stride " << s.stride_pages << " w" << s.private_write_fraction << ", shared "
     << s.shared_pages << "p " << kPatternNames[static_cast<int>(s.shared_pattern)] << " @"
     << s.shared_access_fraction << " w" << s.shared_write_fraction << ", metadata "
     << s.metadata_pages << "p @" << s.metadata_touch_prob << ", think " << s.think_time
     << "; cache " << d.cache_mb << "MB";
  if (d.mind()) {
    os << ", directory " << d.directory_slots << ", epoch " << d.epoch
       << "ns, store_data " << d.store_data;
  }
  os << ", " << ToString(d.queue) << "; loss " << f.reliability.loss_probability;
  for (const auto& st : f.stalls) {
    os << ", stall b" << int{st.blade} << " q" << st.from << "-q" << st.until << " +"
       << st.delay << "ns";
  }
  if (f.death.at != 0) {
    os << ", death b" << int{f.death.blade} << " q" << f.death.at;
  }
  for (const auto& dr : f.drains) {
    os << ", drain m" << int{dr.blade} << "->m" << int{dr.dst} << " q" << dr.at;
  }
  os << "; prefetch " << ToString(d.options.prefetch) << ", trace " << d.options.trace
     << ", profile " << d.options.profile << ", sample " << d.sample_interval
     << "ns (rerun: --gtest_filter=ReplayFuzz.Seed" << d.seed << ")";
  return os.str();
}

// `fault` with every scheduled time scaled from quarters to a share of `makespan`.
FaultPlaneConfig ScheduleAt(FaultPlaneConfig fault, SimTime makespan) {
  const auto at = [makespan](SimTime quarters) { return makespan / 4 * quarters; };
  for (auto& st : fault.stalls) {
    st.from = at(st.from);
    st.until = at(st.until);
  }
  fault.death.at = at(fault.death.at);
  for (auto& dr : fault.drains) {
    dr.at = at(dr.at);
  }
  return fault;
}

SystemFactory Factory(const Draw& d, const FaultPlaneConfig& fault) {
  FabricConfig fabric;
  fabric.queue_model = d.queue;
  const uint64_t cache_bytes = d.cache_mb << 20;
  if (d.system == SystemKind::kGam) {
    GamConfig c;
    c.num_compute_blades = d.spec.num_blades;
    c.num_memory_blades = d.memory_blades;
    c.compute_cache_bytes = cache_bytes;
    c.fabric = fabric;
    c.fault = fault;
    return [c] { return std::make_unique<GamSystem>(c); };
  }
  if (d.system == SystemKind::kFastSwap) {
    FastSwapConfig c;
    c.num_memory_blades = d.memory_blades;
    c.compute_cache_bytes = cache_bytes;
    c.fabric = fabric;
    c.fault = fault;
    return [c] { return std::make_unique<FastSwapSystem>(c); };
  }
  RackConfig c;
  c.num_compute_blades = d.spec.num_blades;
  c.num_memory_blades = d.memory_blades;
  c.compute_cache_bytes = cache_bytes;
  c.directory_slots = d.directory_slots;
  c.splitting.epoch_length = d.epoch;
  c.store_data = d.store_data;
  c.consistency =
      d.system == SystemKind::kMindPso ? ConsistencyModel::kPso : ConsistencyModel::kTso;
  c.protocol =
      d.system == SystemKind::kMindMesi ? CoherenceProtocol::kMesi : CoherenceProtocol::kMsi;
  c.fabric = fabric;
  c.fault = fault;
  return [c] { return std::make_unique<MindSystem>(c); };
}

// What the seeds run in this process exercised: for each mechanism the census requires,
// the seeds that reached it.
struct Census {
  uint64_t seeds_run = 0;
  std::map<std::string, std::vector<uint64_t>> seeds_by_mechanism;
};
Census census;

// Books into the census which mechanisms draw `d` exercised. Every name is booked on
// every seed, so a mechanism no seed reached still shows up, with no seeds.
void Tally(const Draw& d, const Conformance& c) {
  ++census.seeds_run;
  const auto note = [&d](const std::string& mechanism, bool exercised) {
    std::vector<uint64_t>& seeds = census.seeds_by_mechanism[mechanism];
    if (exercised) {
      seeds.push_back(d.seed);
    }
  };
  const uint64_t committed = c.accounting.parallel_hits;
  const FaultCounters& f = c.oracle.fault;
  for (int k = 0; k <= static_cast<int>(SystemKind::kFastSwap); ++k) {
    const bool drawn = static_cast<int>(d.system) == k;
    const std::string system = kSystemNames[k];
    note("group commits on " + system, drawn && committed > 0);
    note("timeouts on " + system, drawn && f.timeouts > 0);
    note("traced timeouts on " + system, drawn && d.options.trace && f.timeouts > 0);
  }
  note("a group commit of more than 8 lanes", c.max_group_lanes > kGroupMergeLinearScanMax);
  note("resets that flushed pages", f.resets_triggered > 0 && f.pages_flushed_by_reset > 0);
  note("stalled deliveries", f.stalled_deliveries > 0);
  note("completed drains that migrated pages",
       f.drains_completed > 0 && f.drain_pages_migrated > 0);
  note("completed drains amid group commits", f.drains_completed > 0 && committed > 0);
  note("all four fault kinds in one seed", f.timeouts > 0 && f.resets_triggered > 0 &&
                                               f.stalled_deliveries > 0 &&
                                               f.drains_completed > 0);
  note("prefetch issue", c.oracle.prefetch.issued > 0);
  note("prefetch use", c.oracle.prefetch.useful > 0);
  note("MG1 fabric wait", d.queue == QueueModelKind::kWindowedMG1 &&
                              c.oracle.counters.breakdown_sums.fabric_wait > 0);
  const auto system_counter = [&c](const char* name) {
    const MetricsRegistry::Entry* e = c.oracle_metrics.Find(name);
    return e == nullptr ? 0 : e->counter;
  };
  note("directory capacity evictions",
       system_counter("system/rack/directory_capacity_evictions") > 0);
  note("directory splits", system_counter("system/splitting/splits") > 0);
  note("directory merges", system_counter("system/splitting/merges") > 0);
  note("store_data amid group commits", d.store_data && committed > 0);
  note("invalidation waves amid group commits",
       c.oracle.counters.invalidations > 0 && committed > 0);
  note("traced prefetch issue", d.options.trace && c.oracle.prefetch.issued > 0);
  note("profiled group commits", d.options.profile && committed > 0);
  note("a sampler firing more than once", c.samples > 1);
}

class SeedTest : public ::testing::Test {
 public:
  explicit SeedTest(uint64_t seed) : seed_(seed) {}

  void TestBody() override {
    const Draw d = DrawConfig(seed_);
    const WorkloadTraces traces = GenerateTraces(d.spec);
    FaultPlaneConfig fault = d.fault;
    if (d.scheduled()) {
      // Place the schedule inside the run, as shares of a fault-free replay's makespan.
      const auto fault_free = Factory(d, FaultPlaneConfig{})();
      fault = ScheduleAt(fault, PerOpLoop(fault_free.get(), traces).makespan);
    }
    const Conformance c =
        ExpectEngineMatchesOracle(Factory(d, fault), traces, d.options, d.sample_interval);
    const FaultCounters& f = c.oracle.fault;
    EXPECT_EQ(c.oracle.total_ops, traces.TotalOps());
    if (d.system == SystemKind::kFastSwap) {
      EXPECT_EQ(f.resets_triggered, 0u) << "FastSwap retries; it never resets";
    }
    if (d.fault.reliability.loss_probability == 0.0 && d.fault.death.at == 0) {
      EXPECT_EQ(f.timeouts + f.retransmissions + f.resets_triggered, 0u)
          << "a loss-free draw without a death must stay fault-silent";
    }
    if (d.options.prefetch == PrefetchPolicy::kNone) {
      EXPECT_TRUE(c.oracle.prefetch == PrefetchStats{}) << "kNone speculated";
    }
    Tally(d, c);
    if (HasFailure()) {
      ADD_FAILURE() << Describe(d);
    }
  }

 private:
  uint64_t seed_;
};

// One test per seed, registered before the census below so that a full run replays every
// seed before the census reads their tally.
[[maybe_unused]] const bool kSeedsRegistered = [] {
  for (uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    ::testing::RegisterTest("ReplayFuzz", ("Seed" + std::to_string(seed)).c_str(), nullptr,
                            nullptr, __FILE__, __LINE__,
                            [seed]() -> ::testing::Test* { return new SeedTest(seed); });
  }
  return true;
}();

TEST(ReplayFuzz, CensusCoversEveryMechanism) {
  if (census.seeds_run != kLastSeed - kFirstSeed + 1) {
    GTEST_SKIP() << "the census reads a whole run of the seed range; " << census.seeds_run
                 << " seeds ran";
  }
  for (const auto& [mechanism, seeds] : census.seeds_by_mechanism) {
    std::ostringstream first;
    for (size_t i = 0; i < std::min<size_t>(seeds.size(), 8); ++i) {
      first << " " << seeds[i];
    }
    std::cout << "[ census ] " << mechanism << ": " << seeds.size() << " seeds;" << first.str()
              << "\n";
    EXPECT_FALSE(seeds.empty()) << "no seed exercised " << mechanism;
  }
}

}  // namespace
}  // namespace mind
