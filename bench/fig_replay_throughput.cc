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
// Replay runs on one host thread, and more shards only partition the same sequential
// work, so multi-shard points are not produced: they measured a worker pool that lost to
// one shard on every series and has been removed.
//
// Appends `FigReplayWallclock/*` entries (ns/op over total replayed ops) to
// BENCH_microbench.json, plus a dimensionless `drain_serialized_fraction` row for the
// coherence-bound series: the fraction of serialized-drain ops the directory-region
// ownership split could NOT retire in owner sub-rounds (lower is better; the gate catches
// it creeping back up). Scale the trace with MIND_BENCH_SCALE.
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
  uint64_t grouped_ops = 0;
  uint64_t drained_ops = 0;
  uint64_t owner_drained = 0;  // Subset of drained_ops retired in owner sub-rounds.

  // Fraction of drained (serialized-phase) ops that still had to execute one at a time
  // through the global merge step after directory-region ownership carved out the
  // owner sub-rounds. Shard-count invariant (the drain composition is bit-identical
  // across shard counts).
  [[nodiscard]] double SerializedFraction() const {
    return drained_ops == 0
               ? 0.0
               : 1.0 - static_cast<double>(owner_drained) / static_cast<double>(drained_ops);
  }
};

void CollectShards(ReplayEngine& engine, Timed* out) {
  for (const ShardReport& sr : engine.shard_reports()) {
    out->parallel_hits += sr.parallel_hits;
    out->grouped_ops += sr.grouped_ops;
    out->drained_ops += sr.drained_ops;
    out->owner_drained += sr.owner_drained;
  }
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
// latencies and (pre-groups) every committed op paid a virtual Commit +
// FifoResource::Acquire round-trip. The per-blade ChannelGroup replays the merged lock
// queue once per round instead; this series is the regression guard for that path.
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
  CollectShards(engine, &out);
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
  CollectShards(engine, &out);
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
                        "grouped", "owner drain", "sim ms"});
    table.PrintHeader();
    Timed last;
    auto add = [&](const std::string& name, Timed t) {
      const double ns_per_op = t.wall_ns / static_cast<double>(ops);
      table.PrintRow(name, TablePrinter::Fmt(t.wall_ns / 1e6, 1),
                     TablePrinter::Fmt(ns_per_op, 1), TablePrinter::Fmt(1e3 / ns_per_op, 2),
                     t.parallel_hits, t.grouped_ops,
                     std::to_string(t.owner_drained) + "/" + std::to_string(t.drained_ops),
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
    if (tag == "tf_coherence_bound") {
      // The region-ownership payoff metric on the drain-dominated series: the fraction of
      // serialized-phase ops that still retired one at a time through the global merge
      // step. Lower is better, so the trajectory gate (fail above 1.25x baseline) catches
      // a change that quietly re-serializes owner sub-round work. Deterministic for a
      // fixed trace scale and shard-count invariant (see SerializedFraction).
      std::printf("drain serialized fraction: %.3f (owner sub-rounds retired %llu of "
                  "%llu drained ops)\n",
                  last.SerializedFraction(),
                  static_cast<unsigned long long>(last.owner_drained),
                  static_cast<unsigned long long>(last.drained_ops));
      results.push_back(
          bench::BenchResult{"FigReplayWallclock/" + tag + "/drain_serialized_fraction",
                             last.SerializedFraction(), last.drained_ops});
    }
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
