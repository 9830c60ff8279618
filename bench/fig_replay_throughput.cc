// End-to-end replay wall-clock throughput: how fast the *simulator* replays a figure-scale
// workload, per-op reference path vs channel engine. This is the harness-performance
// companion to the per-op microbenchmarks — ns/op of the whole replay loop (trace decode,
// clock merge, access pipeline, histogramming), not of one isolated structure — so
// regressions in the replay engine itself are tracked across PRs, not just hot-path
// structure regressions.
//
// Compared configurations, both replaying the identical trace on identical racks:
//   serial-1shard  — the per-op reference path (use_channels = false: every op through
//                    the drain, one virtual Access per op — the pre-channel engine).
//   sharded-1shard — the AccessChannel engine (results are bit-identical to serial by
//                    construction; only wall-clock moves).
// The row names predate the removal of replay shards and are kept so that new entries
// stay comparable with the committed trajectory.
//
// Appends `FigReplayWallclock/*` entries (ns/op over total replayed ops) to the
// trajectory file named by MIND_BENCH_JSON. Scale the trace with MIND_BENCH_SCALE.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace mind {
namespace {

struct Timed {
  ReplayReport report;
  std::string registry_text;  // Unified metrics snapshot (src/obs/metrics_registry.h).
  double wall_ns = 0.0;
  uint64_t parallel_hits = 0;
  uint64_t drained_ops = 0;
};

void CollectAccounting(ReplayEngine& engine, Timed* out) {
  out->parallel_hits = engine.shard_reports()[0].parallel_hits;
  out->drained_ops = engine.shard_reports()[0].drained_ops;
  std::ostringstream os;
  engine.metrics()->ExportText(os);
  out->registry_text = os.str();
}

// Headline series: the shape channel replay targets — multi-blade, cache-resident
// per-blade working sets with an occasional cross-blade coherence event (the Fig. 5 right
// "scalable" regime: native-KVS-like partitioned state, TF-like private compute). Once
// warm, >99% of ops are blade-local hits, so the harness — not the simulated switch — is
// the bottleneck, which is exactly what the refactor attacks.
WorkloadSpec HotSpec() {
  WorkloadSpec s;
  s.name = "blade-resident";
  s.num_blades = 8;
  s.threads_per_blade = 1;
  s.private_pages_per_thread = 1024;
  s.private_pattern = Pattern::kUniform;
  s.private_write_fraction = 0.5;
  s.accesses_per_thread = bench::ScaledOps(1'500'000);
  s.think_time = 200;
  s.seed = 7;
  return s;
}

// Counterpoint series: TF is coherence-dense (an invalidation or upgrade crosses blades
// every few tens of globally-ordered ops), so the serialized drain dominates and channels
// cannot help much — reported so the trajectory tracks both regimes honestly.
WorkloadSpec CoherenceBoundSpec() {
  return TfSpec(/*blades=*/8, /*threads_per_blade=*/1, bench::ScaledOps(150'000));
}

// Channel-group series: GAM with heavy intra-blade contention — 4 threads per blade all
// queue on the per-blade library lock, so per-thread channels can only lower-bound hit
// latencies. The per-blade ChannelGroup replays the merged lock queue once per round;
// this series is the regression guard for that path.
WorkloadSpec GamContendedSpec() {
  WorkloadSpec s;
  s.name = "gam-contended";
  s.num_blades = 4;
  s.threads_per_blade = 4;
  s.private_pages_per_thread = 2000;
  s.private_pattern = Pattern::kUniform;
  s.private_write_fraction = 0.5;
  s.shared_pages = 512;
  s.shared_access_fraction = 0.02;
  s.shared_write_fraction = 0.2;
  s.accesses_per_thread = bench::ScaledOps(250'000);
  s.think_time = 200;
  s.seed = 11;
  return s;
}

using SystemFactory = std::unique_ptr<MemorySystem> (*)();

std::unique_ptr<MemorySystem> MakeMind8() { return bench::MakeMind(8); }
std::unique_ptr<MemorySystem> MakeGam4() {
  return std::make_unique<GamSystem>(bench::PaperGamConfig(4));
}

Timed RunSerial(const WorkloadTraces& traces, SystemFactory make_system) {
  auto sys = make_system();
  ReplayOptions opts;
  opts.use_channels = false;  // Per-op reference path: one virtual Access per op.
  ReplayEngine engine(sys.get(), &traces, opts);
  (void)engine.Setup();
  const auto t0 = std::chrono::steady_clock::now();
  Timed out;
  out.report = engine.Run();
  out.wall_ns = std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
                    .count();
  CollectAccounting(engine, &out);
  return out;
}

Timed RunChannels(const WorkloadTraces& traces, SystemFactory make_system) {
  auto sys = make_system();
  ReplayEngine engine(sys.get(), &traces);
  (void)engine.Setup();
  const auto t0 = std::chrono::steady_clock::now();
  Timed out;
  out.report = engine.Run();
  out.wall_ns = std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
                    .count();
  CollectAccounting(engine, &out);
  return out;
}

}  // namespace
}  // namespace mind

int main() {
  using namespace mind;
  std::vector<bench::BenchResult> results;

  auto run_series = [&](const std::string& tag, const WorkloadTraces& traces,
                        SystemFactory make_system) {
    const uint64_t ops = traces.TotalOps();
    std::printf("\nReplay wall-clock throughput — %s (%s), %llu ops, %d blades\n",
                tag.c_str(), traces.name.c_str(), static_cast<unsigned long long>(ops),
                traces.num_blades);
    std::printf("(simulator performance; simulated-time results are bit-identical across "
                "rows)\n");
    TablePrinter table({"config", "wall ms", "ns/op", "Mops/s wall", "parallel hits",
                        "drained", "sim ms"});
    table.PrintHeader();
    Timed last;
    auto add = [&](const std::string& name, Timed t) {
      const double ns_per_op = t.wall_ns / static_cast<double>(ops);
      table.PrintRow(name, TablePrinter::Fmt(t.wall_ns / 1e6, 1),
                     TablePrinter::Fmt(ns_per_op, 1), TablePrinter::Fmt(1e3 / ns_per_op, 2),
                     t.parallel_hits, t.drained_ops,
                     TablePrinter::Fmt(ToMillis(t.report.makespan), 2));
      results.push_back(
          bench::BenchResult{"FigReplayWallclock/" + tag + "/" + name, ns_per_op, ops});
      last = std::move(t);
    };
    add("serial-1shard", RunSerial(traces, make_system));
    add("sharded-1shard", RunChannels(traces, make_system));
    // Every per-run counter this table summarizes is also published through the unified
    // registry; one snapshot per series (the channel run) keeps the full detail in the
    // log without hand-rolled counter prints.
    std::printf("registry snapshot (%s, channel run):\n%s", tag.c_str(),
                last.registry_text.c_str());
  };

  {
    const WorkloadTraces traces = GenerateTraces(HotSpec());
    run_series("blade_resident", traces, MakeMind8);
  }
  {
    const WorkloadTraces traces = GenerateTraces(CoherenceBoundSpec());
    run_series("tf_coherence_bound", traces, MakeMind8);
  }
  {
    const WorkloadTraces traces = GenerateTraces(GamContendedSpec());
    run_series("gam_contended", traces, MakeGam4);
  }
  bench::AppendTrajectoryEntry(results, "fig-replay-wallclock");
  return 0;
}
