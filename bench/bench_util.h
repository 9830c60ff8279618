// Shared helpers for the figure benches: system factories with the paper's evaluation
// configuration (§6.3, §7) and a one-call replay runner.
//
// Every bench prints the rows/series of one paper figure. Scale the (simulated) job size
// with MIND_BENCH_SCALE (default 1.0) to trade fidelity for wall-clock time.
#ifndef MIND_BENCH_BENCH_UTIL_H_
#define MIND_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/common/table_printer.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace bench {

inline double Scale() {
  if (const char* s = std::getenv("MIND_BENCH_SCALE"); s != nullptr) {
    const double v = std::atof(s);
    if (v > 0.0) {
      return v;
    }
  }
  return 1.0;
}

inline uint64_t ScaledOps(uint64_t base) {
  const auto v = static_cast<uint64_t>(static_cast<double>(base) * Scale());
  return std::max<uint64_t>(v, 1000);
}

// The paper's evaluation rack: 8 compute blades (10 threads each at full scale), 8 memory
// blade VMs, 512 MB local DRAM per compute blade, 30k directory slots, 45k rules.
//
// The bounded-splitting epoch is scaled with the benches' scaled-down job sizes: the paper
// runs last 60+ seconds (hundreds of 100 ms epochs); our replays last ~100-500 simulated
// milliseconds, so a 5 ms epoch preserves the epochs-per-run ratio the control loop needs.
// Figure 9 (right) sweeps the epoch length explicitly.
inline RackConfig PaperRackConfig(int compute_blades) {
  RackConfig c;
  c.num_compute_blades = compute_blades;
  c.num_memory_blades = 8;
  c.memory_blade_capacity = 8ull << 30;
  c.compute_cache_bytes = 512ull << 20;
  c.directory_slots = 30000;
  c.tcam_rules = 45000;
  c.splitting.epoch_length = 5 * kMillisecond;
  return c;
}

inline GamConfig PaperGamConfig(int compute_blades) {
  GamConfig c;
  c.num_compute_blades = compute_blades;
  c.num_memory_blades = 8;
  c.compute_cache_bytes = 512ull << 20;
  return c;
}

inline FastSwapConfig PaperFastSwapConfig() {
  FastSwapConfig c;
  c.num_memory_blades = 8;
  c.compute_cache_bytes = 512ull << 20;
  return c;
}

inline std::unique_ptr<MindSystem> MakeMind(int blades, std::string label = "MIND") {
  return std::make_unique<MindSystem>(PaperRackConfig(blades), std::move(label));
}

inline std::unique_ptr<MindSystem> MakeMindPso(int blades) {
  RackConfig c = PaperRackConfig(blades);
  c.consistency = ConsistencyModel::kPso;
  return std::make_unique<MindSystem>(c, "MIND-PSO");
}

inline std::unique_ptr<MindSystem> MakeMindPsoPlus(int blades) {
  RackConfig c = PaperRackConfig(blades);
  c.consistency = ConsistencyModel::kPso;
  c.directory_slots = 10'000'000;  // "Infinite" directory capacity (§7.1).
  return std::make_unique<MindSystem>(c, "MIND-PSO+");
}

// MIND_PREFETCH=<none|nextn|stride> opts every RunWorkload replay into that prefetch
// policy (kNone — no prefetching — remains the default).
inline PrefetchPolicy PrefetchPolicyFromEnv() {
  if (const char* s = std::getenv("MIND_PREFETCH"); s != nullptr) {
    if (auto p = ParsePrefetchPolicy(s); p.has_value()) {
      return *p;
    }
    // Fail fast: silently running a long sweep with the wrong policy is worse.
    std::fprintf(stderr, "bench: unknown MIND_PREFETCH \"%s\" (want none|nextn|stride)\n",
                 s);
    std::exit(2);
  }
  return PrefetchPolicy::kNone;
}

// `--prefetch=<none|nextn|stride>` on a bench/example command line, with MIND_PREFETCH
// as the fallback.
inline PrefetchPolicy PrefetchFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--prefetch=", 11) == 0) {
      if (auto p = ParsePrefetchPolicy(argv[i] + 11); p.has_value()) {
        return *p;
      }
      std::fprintf(stderr, "unknown --prefetch \"%s\" (want none|nextn|stride)\n",
                   argv[i] + 11);
      std::exit(2);
    }
  }
  return PrefetchPolicyFromEnv();
}

// MIND_TRACE=FILE opts every RunWorkload replay into TraceScope recording and writes the
// Chrome trace_event JSON to FILE (second and later replays in the same bench get a
// numeric suffix so they don't clobber each other). Empty value: fail fast, exit 2.
inline std::string TracePathFromEnv() {
  if (const char* s = std::getenv("MIND_TRACE"); s != nullptr) {
    if (*s == '\0') {
      std::fprintf(stderr, "bench: MIND_TRACE must name an output file\n");
      std::exit(2);
    }
    return s;
  }
  return {};
}

// `--trace=FILE` on an example command line, with MIND_TRACE as the fallback.
inline std::string TraceFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      if (argv[i][8] == '\0') {
        std::fprintf(stderr, "--trace needs an output file (--trace=FILE)\n");
        std::exit(2);
      }
      return argv[i] + 8;
    }
  }
  return TracePathFromEnv();
}

// MIND_PROFILE=<0|1> opts every RunWorkload replay into the wall-clock phase profiler.
inline bool ProfileFromEnv() {
  if (const char* s = std::getenv("MIND_PROFILE"); s != nullptr) {
    if (std::strcmp(s, "1") == 0 || std::strcmp(s, "on") == 0) {
      return true;
    }
    if (std::strcmp(s, "0") == 0 || std::strcmp(s, "off") == 0) {
      return false;
    }
    std::fprintf(stderr, "bench: unknown MIND_PROFILE \"%s\" (want 0|1|on|off)\n", s);
    std::exit(2);
  }
  return false;
}

// `--profile` on an example command line, with MIND_PROFILE as the fallback.
inline bool ProfileFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      return true;
    }
  }
  return ProfileFromEnv();
}

// Per-phase wall-clock breakdown after a profiled run: one line per lane that recorded
// anything, the channel lane first, the serial lane last.
inline void PrintPhaseProfile(const PhaseProfiler& prof) {
  std::printf("phase profile (wall clock):\n");
  for (size_t l = 0; l < prof.num_lanes(); ++l) {
    const PhaseProfiler::Lane& lane = prof.lane(l);
    uint64_t lane_total = 0;
    for (int p = 0; p < PhaseProfiler::kNumPhases; ++p) {
      lane_total += lane.total_ns[p];
    }
    if (lane_total == 0) {
      continue;
    }
    std::printf(l == prof.serial_lane() ? "  serial :" : "  channel:");
    for (int p = 0; p < PhaseProfiler::kNumPhases; ++p) {
      if (lane.count[p] == 0) {
        continue;
      }
      std::printf(" %s %.2fms/%llu",
                  PhaseProfiler::PhaseName(static_cast<PhaseProfiler::Phase>(p)),
                  static_cast<double>(lane.total_ns[p]) / 1e6,
                  static_cast<unsigned long long>(lane.count[p]));
    }
    std::printf("\n");
  }
}

// Writes the run's trace (plus profiler lanes, when present) to `path` and prints one
// accounting line. Call after Run() — the engine finalizes the scope there.
inline void WriteTraceReportLine(const ReplayEngine& engine, const std::string& path) {
  const TraceScope* scope = engine.trace_scope();
  if (scope == nullptr || !scope->finalized()) {
    return;
  }
  if (!scope->WriteChromeJsonFile(path, engine.profiler())) {
    std::fprintf(stderr, "bench: cannot write trace to %s\n", path.c_str());
    std::exit(2);
  }
  std::printf("[trace] %s: %zu semantic + %zu execution events, digest %016llx, "
              "dropped %llu\n",
              path.c_str(), scope->semantic_events(), scope->execution_events(),
              static_cast<unsigned long long>(scope->SemanticDigest()),
              static_cast<unsigned long long>(scope->dropped()));
}

// One accounting line per replayed system when prefetching was on: the coverage /
// accuracy numbers the prefetch figure plots, attached to the system's report.
inline void PrintPrefetchReportLine(const ReplayReport& report, PrefetchPolicy policy) {
  if (policy == PrefetchPolicy::kNone) {
    return;
  }
  const PrefetchStats& p = report.prefetch;
  std::printf("[prefetch] %-8s %-10s policy=%-6s issued=%llu useful=%llu late=%llu "
              "evicted=%llu stale=%llu rearmed=%llu coverage=%.1f%% accuracy=%.1f%%\n",
              report.system.c_str(), report.workload.c_str(), ToString(policy),
              static_cast<unsigned long long>(p.issued),
              static_cast<unsigned long long>(p.useful),
              static_cast<unsigned long long>(p.late),
              static_cast<unsigned long long>(p.evicted_unused),
              static_cast<unsigned long long>(p.discarded_stale),
              static_cast<unsigned long long>(p.rearmed),
              100.0 * report.PrefetchCoverage(), 100.0 * p.Accuracy());
}

// Generates traces for `spec`, replays them on `sys`, returns the report. Replay runs
// through the channel engine, which is checked against the per-op oracle in
// tests/replay_conformance.h. A sampler opens no channels (exact global observation
// points), which leaves the results unchanged. The MIND_PREFETCH env override (see
// PrefetchPolicyFromEnv) opts the replay into a prefetch policy and prints the
// per-system accounting line.
inline ReplayReport RunWorkload(MemorySystem& sys, const WorkloadSpec& spec,
                                ReplayEngine::Sampler sampler = nullptr,
                                SimTime sample_interval = 10 * kMillisecond) {
  const WorkloadTraces traces = GenerateTraces(spec);
  ReplayOptions opts;
  opts.prefetch = PrefetchPolicyFromEnv();
  const std::string trace_path = TracePathFromEnv();
  opts.trace = !trace_path.empty();
  opts.profile = ProfileFromEnv();
  ReplayEngine engine(&sys, &traces, opts);
  const Status s = engine.Setup();
  if (!s.ok()) {
    std::fprintf(stderr, "replay setup failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  ReplayReport report = engine.Run(std::move(sampler), sample_interval);
  PrintPrefetchReportLine(report, opts.prefetch);
  if (opts.trace) {
    // A bench replays many workload/system pairs; suffix every trace after the first so
    // one MIND_TRACE value yields one file per replay instead of the last one standing.
    static int traced_runs = 0;
    const std::string path =
        traced_runs == 0 ? trace_path : trace_path + "." + std::to_string(traced_runs);
    ++traced_runs;
    WriteTraceReportLine(engine, path);
  }
  if (opts.profile && engine.profiler() != nullptr) {
    PrintPhaseProfile(*engine.profiler());
  }
  return report;
}

// ---------------------------------------------------------------------------
// BENCH_*.json trajectory emitter (shared by microbench_core and the wall-clock figure
// bench): appends one labeled entry per run so perf accumulates across PRs.
// ---------------------------------------------------------------------------

struct BenchResult {
  std::string name;
  double ns_per_op = 0.0;
  uint64_t iterations = 0;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {  // Control characters are illegal inside JSON strings.
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Serializes one trajectory entry, indented to sit inside the "entries" array.
inline std::string SerializeEntry(const std::string& label,
                                  const std::vector<BenchResult>& results) {
  std::ostringstream os;
  os << "    {\n";
  os << "      \"label\": \"" << JsonEscape(label) << "\",\n";
  os << "      \"unix_time\": " << static_cast<long long>(std::time(nullptr)) << ",\n";
  os << "      \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    char ns[64];
    std::snprintf(ns, sizeof(ns), "%.3f", results[i].ns_per_op);
    os << "        {\"name\": \"" << JsonEscape(results[i].name) << "\", \"ns_per_op\": " << ns
       << ", \"iterations\": " << results[i].iterations << "}"
       << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "      ]\n";
  os << "    }";
  return os.str();
}

// Appends the entry to the trajectory file named by MIND_BENCH_JSON, creating it when
// absent. Recording is opt-in: with the variable unset nothing is written, so a local run
// never touches the committed trajectory. The writer always emits the same shape (see
// bench/README.md), so the merge is a suffix splice.
inline void AppendTrajectoryEntry(const std::vector<BenchResult>& results,
                                  const char* default_label = "run") {
  if (results.empty()) {
    return;
  }
  const char* path_env = std::getenv("MIND_BENCH_JSON");
  if (path_env == nullptr) {
    std::fprintf(stderr,
                 "bench: MIND_BENCH_JSON is unset; trajectory entry not recorded\n");
    return;
  }
  const std::string path = path_env;
  const char* label_env = std::getenv("MIND_BENCH_LABEL");
  const std::string label = label_env != nullptr ? label_env : default_label;
  const std::string entry = SerializeEntry(label, results);

  std::string existing;
  if (std::ifstream in(path); in.good()) {
    std::ostringstream buf;
    buf << in.rdbuf();
    existing = buf.str();
  }

  std::string out;
  const std::string suffix = "\n  ]\n}";
  if (existing.empty()) {
    out = "{\n  \"schema\": \"mind-microbench-v1\",\n  \"entries\": [\n" + entry + "\n  ]\n}\n";
  } else {
    const size_t splice = existing.rfind(suffix);
    if (splice == std::string::npos) {
      // Never truncate a file we cannot parse — it may hold the committed multi-PR
      // trajectory with line endings or formatting this writer did not produce.
      std::fprintf(stderr,
                   "bench: %s does not end with the mind-microbench-v1 shape; "
                   "refusing to overwrite (entry not recorded)\n",
                   path.c_str());
      return;
    }
    const std::string prefix = existing.substr(0, splice);
    const bool empty_array = !prefix.empty() && prefix.back() == '[';
    out = prefix + (empty_array ? "\n" : ",\n") + entry + "\n  ]\n}\n";
  }

  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  f << out;
  std::fprintf(stderr, "bench: appended entry \"%s\" (%zu benchmarks) to %s\n", label.c_str(),
               results.size(), path.c_str());
}

}  // namespace bench
}  // namespace mind

#endif  // MIND_BENCH_BENCH_UTIL_H_
