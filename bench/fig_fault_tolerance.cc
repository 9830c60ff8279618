// Fault tolerance under the §4.4 failure machinery (FaultPlane, src/fault/fault_plane.h).
//
// Part 1 — loss sweep: replay the same coherence-heavy trace on MIND, GAM and FastSwap
// while the seeded loss model drops 0% to 5% of messages-with-ACK. Retransmission latency
// and timeouts land in the committed per-op latencies, so throughput and tail latency
// degrade honestly: MIND and GAM additionally pay §4.4 resets (directory entry dropped,
// every cached copy flushed) when a retry budget exhausts, while FastSwap only stalls (the
// kernel retries the swap-in; there is nothing to reset).
//
// Part 2 — drain storm: a MIND rack serves live replay while scheduled drains migrate two
// memory blades' contents to survivors mid-run. The timeline table shows ops, mean and p99
// latency per simulated-time bucket, with the drain clocks marked: the post-drain buckets
// absorb the re-fault storm (every drained region's cached copies were shot down), then
// the rack returns to steady state.
//
// Loss draws and schedules are deterministic (fixed seed, serialized-path draws only), so
// every number here is bit-identical between channel replay and the per-op reference —
// the fault conformance suite (tests/fault_injection_test.cc) enforces exactly that. The
// loss-free rows append `FigFaultTolerance/*/loss-free-sim-ns-op` to the trajectory file
// named by MIND_BENCH_JSON and are gated by tools/check_bench_regression.py: fault-plane
// plumbing must stay free on healthy racks.
//
// Scale the trace with MIND_BENCH_SCALE (CI runs 0.1; the committed baseline rows use the
// same scale).
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"

namespace mind {
namespace {

WorkloadSpec FaultCoherenceSpec(int blades) {
  // Zipfian shared table with 50/50 GET/SET: dense invalidation waves and remote fetches,
  // so the loss model sees a steady stream of message-with-ACK sends.
  WorkloadSpec spec = MemcachedASpec(blades, /*threads_per_blade=*/2,
                                     bench::ScaledOps(100'000));
  spec.shared_pages = 8192;
  return spec;
}

WorkloadSpec SwapFaultSpec() {
  // FastSwap is single-blade: a working set ~1.5x its cache keeps a steady swap-in stream
  // for the loss model to delay.
  WorkloadSpec spec;
  spec.name = "swap-faulty";
  spec.num_blades = 1;
  spec.threads_per_blade = 4;
  spec.private_pages_per_thread = 50'000;
  spec.private_pattern = Pattern::kUniform;
  spec.private_write_fraction = 0.5;
  spec.accesses_per_thread = bench::ScaledOps(200'000);
  return spec;
}

// Runs the replay; when `registry_text` is non-null it receives the engine's unified
// metrics snapshot (src/obs/metrics_registry.h) — every counter this figure used to print
// by hand now comes out of the one exporter.
ReplayReport Replay(MemorySystem& sys, const WorkloadTraces& traces,
                    std::string* registry_text = nullptr) {
  ReplayEngine engine(&sys, &traces);
  const Status s = engine.Setup();
  if (!s.ok()) {
    std::fprintf(stderr, "replay setup failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  ReplayReport report = engine.Run();
  if (registry_text != nullptr) {
    std::ostringstream os;
    engine.metrics()->ExportText(os);
    *registry_text = os.str();
  }
  return report;
}

// --- Part 1: throughput + tail latency vs loss rate -----------------------------------------

void LossSweep(std::vector<bench::BenchResult>& results) {
  struct SystemUnderTest {
    std::string name;
    std::function<std::unique_ptr<MemorySystem>(double)> make;
    const WorkloadTraces* traces;
  };
  const WorkloadTraces coherence = GenerateTraces(FaultCoherenceSpec(8));
  const WorkloadTraces swap = GenerateTraces(SwapFaultSpec());
  const std::vector<SystemUnderTest> systems = {
      {"MIND",
       [](double loss) {
         RackConfig c = bench::PaperRackConfig(8);
         c.fault.reliability.loss_probability = loss;
         return std::make_unique<MindSystem>(c);
       },
       &coherence},
      {"GAM",
       [](double loss) {
         GamConfig c = bench::PaperGamConfig(8);
         c.fault.reliability.loss_probability = loss;
         return std::make_unique<GamSystem>(c);
       },
       &coherence},
      {"FastSwap",
       [](double loss) {
         FastSwapConfig c = bench::PaperFastSwapConfig();
         c.fault.reliability.loss_probability = loss;
         return std::make_unique<FastSwapSystem>(c);
       },
       &swap},
  };

  std::printf("\nFault tolerance — loss sweep (seeded loss on every message-with-ACK; "
              "%llu coherence ops, %llu swap ops)\n",
              static_cast<unsigned long long>(coherence.TotalOps()),
              static_cast<unsigned long long>(swap.TotalOps()));
  TablePrinter table({"system", "loss %", "Mops/s sim", "avg us", "p99 us", "timeouts",
                      "retx", "resets", "reset-flushed"});
  table.PrintHeader();
  std::string worst_case_registry;  // MIND at the highest loss rate.
  for (const SystemUnderTest& s : systems) {
    for (const double loss : {0.0, 0.005, 0.01, 0.02, 0.05}) {
      auto sys = s.make(loss);
      const bool snapshot = s.name == "MIND" && loss == 0.05;
      const ReplayReport report =
          Replay(*sys, *s.traces, snapshot ? &worst_case_registry : nullptr);
      table.PrintRow(s.name, TablePrinter::Fmt(100.0 * loss, 1),
                     TablePrinter::Fmt(report.throughput_mops, 3),
                     TablePrinter::Fmt(report.avg_latency_us, 2),
                     TablePrinter::Fmt(ToMicros(report.latency_histogram.Summary().p99), 1),
                     report.fault.timeouts, report.fault.retransmissions,
                     report.fault.resets_triggered, report.fault.pages_flushed_by_reset);
      if (loss == 0.0) {
        // Gated trajectory row: simulated ns per op on a healthy rack. Deterministic, so
        // any drift is a semantic change in the fault-plane plumbing, not runner noise.
        results.push_back(bench::BenchResult{
            "FigFaultTolerance/" + s.name + "/loss-free-sim-ns-op",
            report.total_ops == 0
                ? 0.0
                : static_cast<double>(report.makespan) / static_cast<double>(report.total_ops),
            report.total_ops});
      }
    }
  }
  std::printf("\nregistry snapshot — MIND at 5%% loss (unified exporter, "
              "src/obs/metrics_registry.h):\n%s",
              worst_case_registry.c_str());
}

// --- Part 2: drain-storm timeline ------------------------------------------------------------

// Forwards every call to the inner MIND system but inherits the null OpenChannel, so the
// replay engine drives every op through Access in exact global order — where this wrapper
// buckets committed latencies by simulated start time for the timeline.
class TimelineRecorder final : public MemorySystem {
 public:
  TimelineRecorder(MemorySystem* inner, SimTime bucket_width, size_t buckets)
      : inner_(inner), width_(bucket_width), hists_(buckets) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int num_compute_blades() const override {
    return inner_->num_compute_blades();
  }
  Result<VirtAddr> Alloc(uint64_t size) override { return inner_->Alloc(size); }
  Result<ThreadId> RegisterThread(ComputeBladeId blade) override {
    return inner_->RegisterThread(blade);
  }
  AccessResult Access(ThreadId tid, ComputeBladeId blade, VirtAddr va, AccessType type,
                      SimTime now) override {
    AccessResult res = inner_->Access(tid, blade, va, type, now);
    const size_t b = std::min(static_cast<size_t>(now / width_), hists_.size() - 1);
    hists_[b].Record(res.latency);
    return res;
  }
  [[nodiscard]] SystemCounters counters() const override { return inner_->counters(); }
  [[nodiscard]] FaultCounters fault_counters() const override {
    return inner_->fault_counters();
  }
  [[nodiscard]] SimTime NextScheduledFaultAt() const override {
    return inner_->NextScheduledFaultAt();
  }
  void AdvanceTo(SimTime now) override { inner_->AdvanceTo(now); }

  [[nodiscard]] const std::vector<Histogram>& buckets() const { return hists_; }

 private:
  MemorySystem* inner_;
  SimTime width_;
  std::vector<Histogram> hists_;
};

void DrainStorm(std::vector<bench::BenchResult>& results) {
  const WorkloadTraces traces = GenerateTraces(FaultCoherenceSpec(8));

  // Probe the healthy makespan, then schedule two drains at 40% and 65% of it.
  SimTime makespan = 0;
  {
    auto probe = bench::MakeMind(8);
    makespan = Replay(*probe, traces).makespan;
  }
  RackConfig config = bench::PaperRackConfig(8);
  const SimTime drain1 = (makespan * 2) / 5;
  const SimTime drain2 = (makespan * 13) / 20;
  config.fault.drains.push_back(FaultPlaneConfig::BladeDrain{/*blade=*/0, /*dst=*/4, drain1});
  config.fault.drains.push_back(FaultPlaneConfig::BladeDrain{/*blade=*/1, /*dst=*/5, drain2});

  constexpr size_t kBuckets = 12;
  MindSystem mind(config);
  // The storm run can outlive the healthy makespan (post-drain re-faults); keep the last
  // bucket open-ended by sizing widths off the healthy run.
  TimelineRecorder recorder(&mind, std::max<SimTime>(makespan / kBuckets, 1), kBuckets);
  ReplayOptions opts;  // Null channels on the wrapper: pure per-op replay, exact order.
  ReplayEngine engine(&recorder, &traces, opts);
  if (!engine.Setup().ok()) {
    std::fprintf(stderr, "drain-storm setup failed\n");
    std::abort();
  }
  const ReplayReport report = engine.Run();

  std::printf("\nDrain storm — live replay while memory blades 0 and 1 drain to survivors "
              "(drains at %.1f ms and %.1f ms)\n",
              ToMillis(drain1), ToMillis(drain2));
  TablePrinter table({"window ms", "ops", "avg us", "p99 us", "event"});
  table.PrintHeader();
  const SimTime width = std::max<SimTime>(makespan / kBuckets, 1);
  Histogram steady;
  Histogram during;
  for (size_t b = 0; b < kBuckets; ++b) {
    const Histogram& h = recorder.buckets()[b];
    if (h.count() == 0) {
      continue;
    }
    const SimTime lo = static_cast<SimTime>(b) * width;
    const SimTime hi = lo + width;
    const bool has_drain = (drain1 >= lo && drain1 < hi) || (drain2 >= lo && drain2 < hi);
    char window[64];
    std::snprintf(window, sizeof(window), "%.1f-%.1f", ToMillis(lo), ToMillis(hi));
    table.PrintRow(window, h.count(), TablePrinter::Fmt(ToMicros(h.Mean()), 2),
                   TablePrinter::Fmt(ToMicros(h.Percentile(0.99)), 1),
                   has_drain ? "DRAIN" : "");
    (has_drain ? during : steady).Merge(h);
  }
  std::printf("p99 during drain windows: %.1f us (steady state: %.1f us)\n",
              ToMicros(during.Summary().p99), ToMicros(steady.Summary().p99));
  // The drain/migration/fault counters come out of the unified registry instead of a
  // hand-rolled FaultCounters print (replay/fault/* carries drains_completed and
  // drain_pages_migrated).
  std::printf("\nregistry snapshot — drain storm (unified exporter):\n");
  std::ostringstream storm_registry;
  engine.metrics()->ExportText(storm_registry);
  std::fputs(storm_registry.str().c_str(), stdout);

  // Trajectory row: simulated ns/op for the whole storm run — tracks the end-to-end cost
  // of drains under live traffic across PRs (deterministic, so gated like the loss-free
  // rows once a baseline is committed).
  results.push_back(bench::BenchResult{
      "FigFaultTolerance/MIND/drain-storm-sim-ns-op",
      report.total_ops == 0
          ? 0.0
          : static_cast<double>(report.makespan) / static_cast<double>(report.total_ops),
      report.total_ops});
}

}  // namespace
}  // namespace mind

int main() {
  using namespace mind;
  std::vector<bench::BenchResult> results;
  LossSweep(results);
  DrainStorm(results);
  bench::AppendTrajectoryEntry(results, "fig-fault-tolerance");
  return 0;
}
