// Load-latency curves on the contention-aware fabric (src/net/queue_model.h).
//
// The paper's evaluation argues MIND's in-network data plane holds its latency under
// offered load where software paths saturate (Fig. 5/6 context). This bench sweeps the
// offered load directly — shrinking the per-op think time of a coherence-dense Zipfian
// workload from 2 us to 0 — on kWindowedMG1 fabrics, so per-port occupancy turns into
// queueing delay, and plots throughput plus p50/p99 for:
//
//   * MIND            — switch-native multicast invalidations (§4.3.2),
//   * MIND-unicast    — the same rack with sequential software unicast fan-out,
//   * GAM, FastSwap   — the software baselines on the same queue model.
//
// Two things must show: p99 rises monotonically (within a tolerance band — the queue
// model reacts to occupancy, not noise) as think time shrinks, and MIND-multicast
// diverges from MIND-unicast under load: the unicast sender's staggered copies occupy
// its egress port for the whole fan-out, so invalidation-wave queueing compounds exactly
// when the fabric is busiest.
//
// Every number is simulated time from a deterministic replay — rerunning this bench
// cannot produce different output. The zero-think rows append
// `FigLoadLatency/<system>/saturated-sim-ns-op` to BENCH_microbench.json, gated by
// tools/check_bench_regression.py: queue-model or routing drift shows up as a
// trajectory step, not runner noise. CI runs MIND_BENCH_SCALE=0.1 like the other figs.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"

namespace mind {
namespace {

// Coherence-dense shared traffic: invalidation waves + remote fetches keep every port
// class busy (compute tx/rx, memory rx, switch stages).
WorkloadSpec LoadSpec(int blades, SimTime think) {
  WorkloadSpec spec = MemcachedASpec(blades, /*threads_per_blade=*/2,
                                     bench::ScaledOps(50'000));
  spec.shared_pages = 8192;
  spec.think_time = think;
  spec.name = "memcached-a/think-" + std::to_string(think);
  return spec;
}

WorkloadSpec SwapLoadSpec(SimTime think) {
  // FastSwap is single-blade: a working set ~1.5x its cache keeps the swap ports hot.
  WorkloadSpec spec;
  spec.name = "swap/think-" + std::to_string(think);
  spec.num_blades = 1;
  spec.threads_per_blade = 4;
  spec.private_pages_per_thread = 50'000;
  spec.private_pattern = Pattern::kUniform;
  spec.private_write_fraction = 0.5;
  spec.accesses_per_thread = bench::ScaledOps(100'000);
  spec.think_time = think;
  return spec;
}

ReplayReport Replay(MemorySystem& sys, const WorkloadTraces& traces) {
  ReplayEngine engine(&sys, &traces);
  const Status s = engine.Setup();
  if (!s.ok()) {
    std::fprintf(stderr, "replay setup failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  return engine.Run();
}

FabricConfig ContendedFabric() {
  FabricConfig f;
  f.queue_model = QueueModelKind::kWindowedMG1;
  return f;
}

int Run() {
  struct SystemUnderTest {
    std::string name;
    std::function<std::unique_ptr<MemorySystem>()> make;
    bool swap_spec = false;
  };
  const std::vector<SystemUnderTest> systems = {
      {"MIND",
       [] {
         RackConfig c = bench::PaperRackConfig(8);
         c.fabric = ContendedFabric();
         return std::make_unique<MindSystem>(c);
       }},
      {"MIND-unicast",
       [] {
         RackConfig c = bench::PaperRackConfig(8);
         c.fabric = ContendedFabric();
         c.use_multicast = false;
         return std::make_unique<MindSystem>(c, "MIND-unicast");
       }},
      {"GAM",
       [] {
         GamConfig c = bench::PaperGamConfig(8);
         c.fabric = ContendedFabric();
         return std::make_unique<GamSystem>(c);
       }},
      {"FastSwap",
       [] {
         FastSwapConfig c = bench::PaperFastSwapConfig();
         c.fabric = ContendedFabric();
         return std::make_unique<FastSwapSystem>(c);
       },
       /*swap_spec=*/true},
  };
  // Offered load rises as think time falls; 0 = each thread issues back to back.
  const std::vector<SimTime> think_sweep = {2000, 1000, 500, 200, 100, 0};

  std::printf("Load-latency sweep — kWindowedMG1 fabric, think time 2us -> 0 "
              "(offered load rises left to right in each system block)\n");
  TablePrinter table({"system", "think ns", "Mops/s sim", "p50 us", "p99 us",
                      "fwait us/op", "inv sent"});
  table.PrintHeader();

  std::vector<bench::BenchResult> results;
  int failures = 0;
  SimTime mind_saturated_p99 = 0;
  SimTime unicast_saturated_p99 = 0;
  for (const SystemUnderTest& s : systems) {
    SimTime prev_p99 = 0;
    for (const SimTime think : think_sweep) {
      const WorkloadTraces traces =
          GenerateTraces(s.swap_spec ? SwapLoadSpec(think) : LoadSpec(8, think));
      auto sys = s.make();
      const ReplayReport report = Replay(*sys, traces);
      const HistogramSummary lat = report.latency_histogram.Summary();
      const double wait_us_per_op =
          report.total_ops == 0
              ? 0.0
              : ToMicros(report.counters.breakdown_sums.fabric_wait) /
                    static_cast<double>(report.total_ops);
      table.PrintRow(s.name, think, TablePrinter::Fmt(report.throughput_mops, 3),
                     TablePrinter::Fmt(ToMicros(lat.p50), 2),
                     TablePrinter::Fmt(ToMicros(lat.p99), 1),
                     TablePrinter::Fmt(wait_us_per_op, 3),
                     report.counters.invalidations);
      // Monotonicity check: tail latency must not fall as offered load rises. A 5%
      // tolerance absorbs histogram bucket granularity — the deterministic replay can
      // land adjacent think times one bucket apart near saturation.
      if (lat.p99 + lat.p99 / 20 < prev_p99) {
        std::fprintf(stderr, "FAIL: %s p99 fell from %llu to %llu as load rose\n",
                     s.name.c_str(), static_cast<unsigned long long>(prev_p99),
                     static_cast<unsigned long long>(lat.p99));
        ++failures;
      }
      prev_p99 = lat.p99;
      if (think == 0) {
        if (s.name == "MIND") {
          mind_saturated_p99 = lat.p99;
        } else if (s.name == "MIND-unicast") {
          unicast_saturated_p99 = lat.p99;
        }
        // Gated trajectory row: simulated ns/op at saturation. Deterministic, so any
        // drift is a semantic change in routing or queue models, not runner noise.
        results.push_back(bench::BenchResult{
            "FigLoadLatency/" + s.name + "/saturated-sim-ns-op",
            report.total_ops == 0 ? 0.0
                                  : static_cast<double>(report.makespan) /
                                        static_cast<double>(report.total_ops),
            report.total_ops});
      }
    }
  }

  // The §4.3.2 claim under load: switch-native multicast beats sequential unicast where
  // the fabric is busiest.
  std::printf("\nsaturated p99 — MIND multicast %.1f us vs unicast %.1f us\n",
              ToMicros(mind_saturated_p99), ToMicros(unicast_saturated_p99));
  if (mind_saturated_p99 >= unicast_saturated_p99) {
    std::fprintf(stderr, "FAIL: multicast p99 did not beat unicast under saturation\n");
    ++failures;
  }

  bench::AppendTrajectoryEntry(results, "fig-load-latency");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mind

int main() { return mind::Run(); }
