// Prefetch coverage figure: policy × workload sweep of the pattern-aware prefetcher
// (src/prefetch/prefetch.h) across all three systems.
//
// Workloads pick the four access shapes that discriminate a swap-path prefetcher:
//   stream  — sequential private scan far past the cache: every op would fault; both
//             policies should cover most faults (high coverage).
//   strided — fixed stride-7 scan (page-coprime, so the whole set cycles): kNextN's
//             +1 readahead wastes fetches, kMajorityStride locks onto the stride.
//   chase   — deterministic RNG-permuted pointer chase: no majority stride exists, the
//             stride policy should (correctly) sit out, coverage ~0.
//   zipf    — zipfian shared table: the hot head caches, the random tail is
//             unpredictable; coverage ~0 without harming the hit path.
//
// Rows print coverage (useful / would-be faults), accuracy (useful / issued), the raw
// issued/useful/late counters, and the simulated makespan speedup vs the same system
// with prefetching off. Appends `FigPrefetchCoverage/*` coverage entries (percent in the
// value slot) to the trajectory file named by MIND_BENCH_JSON. Scale ops with
// MIND_BENCH_SCALE.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace mind {
namespace {

constexpr uint64_t kPrivatePages = 24'576;  // 96 MB per thread vs a 32 MB cache.
constexpr uint64_t kCacheBytes = 32ull << 20;

WorkloadSpec BaseSpec(int blades) {
  WorkloadSpec s;
  s.num_blades = blades;
  s.threads_per_blade = 1;
  s.private_pages_per_thread = kPrivatePages;
  s.private_write_fraction = 0.3;
  s.accesses_per_thread = bench::ScaledOps(30'000);
  s.think_time = 600;
  s.seed = 31;
  return s;
}

WorkloadSpec StreamSpec(int blades) {
  WorkloadSpec s = BaseSpec(blades);
  s.name = "stream";
  s.private_pattern = Pattern::kSequential;
  return s;
}

WorkloadSpec StridedSpec(int blades) {
  WorkloadSpec s = BaseSpec(blades);
  s.name = "strided";
  s.private_pattern = Pattern::kStrided;
  s.stride_pages = 7;  // Coprime with the segment size: the scan covers every page.
  return s;
}

WorkloadSpec ChaseSpec(int blades) {
  WorkloadSpec s = BaseSpec(blades);
  s.name = "chase";
  s.private_pattern = Pattern::kPointerChase;
  return s;
}

WorkloadSpec ZipfSpec(int blades) {
  WorkloadSpec s = BaseSpec(blades);
  s.name = "zipf";
  s.private_pages_per_thread = 0;
  s.shared_pages = 262'144;  // 1 GB zipfian table, read-only (no coherence noise).
  s.shared_pattern = Pattern::kZipfian;
  s.zipf_theta = 0.99;
  s.shared_access_fraction = 1.0;
  s.shared_write_fraction = 0.0;
  return s;
}

std::unique_ptr<MemorySystem> MakeSystem(const std::string& which, int blades) {
  if (which == "MIND") {
    RackConfig c = bench::PaperRackConfig(blades);
    c.compute_cache_bytes = kCacheBytes;
    return std::make_unique<MindSystem>(c);
  }
  if (which == "GAM") {
    GamConfig c = bench::PaperGamConfig(blades);
    c.compute_cache_bytes = kCacheBytes;
    return std::make_unique<GamSystem>(c);
  }
  FastSwapConfig c = bench::PaperFastSwapConfig();
  c.compute_cache_bytes = kCacheBytes;
  return std::make_unique<FastSwapSystem>(c);
}

}  // namespace
}  // namespace mind

int main(int argc, char** argv) {
  using namespace mind;
  (void)argc;
  (void)argv;
  std::vector<bench::BenchResult> results;

  const std::vector<std::string> systems = {"MIND", "GAM", "FastSwap"};
  const std::vector<PrefetchPolicy> policies = {
      PrefetchPolicy::kNone, PrefetchPolicy::kNextN, PrefetchPolicy::kMajorityStride};

  for (const std::string& sys_name : systems) {
    const int blades = sys_name == "FastSwap" ? 1 : 4;
    const std::vector<WorkloadSpec> specs = {StreamSpec(blades), StridedSpec(blades),
                                             ChaseSpec(blades), ZipfSpec(blades)};
    std::printf("\nPrefetch coverage — %s (%d blade%s, miss-heavy working sets)\n",
                sys_name.c_str(), blades, blades == 1 ? "" : "s");
    TablePrinter table({"workload", "policy", "coverage", "accuracy", "issued", "useful",
                        "late", "remote/op", "avg us", "sim ms", "speedup"});
    table.PrintHeader();
    for (const WorkloadSpec& spec : specs) {
      const WorkloadTraces traces = GenerateTraces(spec);
      double none_makespan_ms = 0.0;
      for (const PrefetchPolicy policy : policies) {
        auto sys = MakeSystem(sys_name, blades);
        ReplayOptions opts;
        opts.prefetch = policy;
        ReplayEngine engine(sys.get(), &traces, opts);
        if (const Status s = engine.Setup(); !s.ok()) {
          std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
          return 1;
        }
        const ReplayReport report = engine.Run();
        const double sim_ms = ToMillis(report.makespan);
        if (policy == PrefetchPolicy::kNone) {
          none_makespan_ms = sim_ms;
        }
        const double coverage_pct = 100.0 * report.PrefetchCoverage();
        const double speedup = sim_ms > 0.0 ? none_makespan_ms / sim_ms : 0.0;
        table.PrintRow(spec.name, ToString(policy),
                       TablePrinter::Fmt(coverage_pct, 1) + "%",
                       TablePrinter::Fmt(100.0 * report.prefetch.Accuracy(), 1) + "%",
                       report.prefetch.issued, report.prefetch.useful,
                       report.prefetch.late, TablePrinter::Fmt(report.RemoteAccessesPerOp(), 3),
                       TablePrinter::Fmt(report.avg_latency_us, 2),
                       TablePrinter::Fmt(sim_ms, 2), TablePrinter::Fmt(speedup, 2) + "x");
        // Trajectory: coverage percent for every prefetching row (the figure's headline
        // metric — the acceptance bar is >= 30% on stream/strided for MIND & FastSwap).
        if (policy != PrefetchPolicy::kNone) {
          results.push_back(bench::BenchResult{
              "FigPrefetchCoverage/" + sys_name + "/" + spec.name + "/" +
                  ToString(policy) + "/coverage_pct",
              coverage_pct, report.total_ops});
        }
      }
    }
  }
  bench::AppendTrajectoryEntry(results, "fig-prefetch-coverage");
  return 0;
}
