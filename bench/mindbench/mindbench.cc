// mindbench: replays one pinned workload (workloads.h) several times and reports the
// simulator's replay speed, set-up time and memory, the simulated results, and with
// --trace a per-layer breakdown of where the host time went. README.md has the metric
// dictionary; run.py builds this program and drives it.
//
//   mindbench --workload=NAME [--seed=N] [--seconds=S] [--trace] [--smoke] [--out=FILE]
//
// One run has three phases:
//   1. Timed reps at default ReplayOptions (1 shard, channels, groups, owner drain). Each
//      rep is GenerateTraces -> construct the system -> ReplayEngine::Setup (set-up time),
//      then Run (replay time), with no tracing or profiling. Caches start empty, so
//      warm-up misses are part of every rep. With --seconds, reps repeat until S seconds
//      have passed (at least kMinReps); otherwise kDefaultReps (kSmokeReps with --smoke).
//   2. Decorated reps (traced_system.h). With --trace, five reps time sampled spans, each
//      right after an untraced reference rep, both with ReplayOptions::profile, and the
//      pair with the median traced/untraced ratio is reported; then one rep times every
//      call, to check the sampled split against. Without --trace, one rep only counts
//      calls and failed accesses.
//   3. With --trace, three 4-shard reps with ReplayOptions::profile for the sharding
//      diagnostics.
// Every rep's ReplayReport and final system metrics are digested, and all digests must
// match: the decorator, the profiler and sharding change nothing simulated. A fixed
// CPU+memory canary is timed before phase 1 and after the last phase, so a caller can
// tell a slow host from slow code, and once before every timed rep, to report that rep's
// replay speed in units of the canary (replay_per_canary).
//
// The result, with every metric by name and unit, goes to --out as JSON; a readable
// summary goes to stdout.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench/mindbench/traced_system.h"
#include "bench/mindbench/workloads.h"
#include "src/workload/replay.h"

namespace mindbench {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;
constexpr int kDefaultReps = 7;
constexpr int kSmokeReps = 2;
constexpr int kTracedReps = 5;
constexpr int kCanaryPasses = 9;
constexpr int kShard4Reps = 3;
constexpr uint64_t kSmokeDivisor = 20;

double SecondsBetween(uint64_t t0_ns, uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double CurrentRssMb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r"); f != nullptr) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux.
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("model name")) {
      const size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
      return value == std::string::npos ? "unknown" : line.substr(value);
    }
  }
  return "unknown";
}

// A fixed CPU+memory workload: a pointer chase over one random cycle through a 256 KB
// buffer, mixing every hop into an accumulator. It depends on nothing the benchmark
// measures, so changes in its time are changes in the host. The buffer fits in L2: a chase
// over a buffer that spills into a shared L3 varied by ±15% between back-to-back passes on
// a quiet VM.
class Canary {
 public:
  Canary() : next_(kSlots) {
    std::iota(next_.begin(), next_.end(), 0u);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle through every slot.
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  // One pass of 4M hops.
  double PassMs() const {
    uint64_t acc = 0;
    for (const uint32_t v : next_) {  // Same cache state whatever ran before.
      acc += v;
    }
    const uint64_t t0 = SpanRecorder::NowNs();
    uint32_t p = 0;
    for (uint32_t step = 0; step < kSteps; ++step) {
      p = next_[p];
      acc = acc * 6364136223846793005ull + p;
    }
    asm volatile("" : : "r"(acc));
    return static_cast<double>(SpanRecorder::NowNs() - t0) / 1e6;
  }

  double MedianMs(int passes) const {
    std::vector<double> ms;
    for (int i = 0; i < passes; ++i) {
      ms.push_back(PassMs());
    }
    return Median(ms);
  }

 private:
  static constexpr uint32_t kSlots = 1u << 16;
  static constexpr uint32_t kSteps = 4'000'000;
  std::vector<uint32_t> next_;
};

// FNV-1a over the simulated outputs of one rep.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  [[nodiscard]] uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

// What one rep leaves behind: host timings, execution shape, and the simulated results.
struct Rep {
  double generate_s = 0.0;
  double system_s = 0.0;
  double engine_s = 0.0;
  double replay_s = 0.0;
  double rss_after_setup_mb = 0.0;
  double rss_after_run_mb = 0.0;
  double canary_ms = 0.0;  // Canary pass just before the rep (timed reps only).
  uint64_t trace_ops = 0;
  uint64_t digest = 0;
  mind::ReplayReport report;
  uint64_t parallel_hits = 0;
  uint64_t grouped_ops = 0;
  uint64_t drained_ops = 0;
  uint64_t owner_drained = 0;
  // PhaseProfiler lane totals (profiled reps only).
  double scan_ms = 0.0;
  double commit_ms = 0.0;
  double serial_drain_ms = 0.0;
  double barrier_ms = 0.0;
  // Final system metrics (engine registry, "system/..."), for the simulated metrics.
  uint64_t write_upgrades = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t dir_capacity_evictions = 0;
  uint64_t evict_writebacks = 0;
  uint64_t multicast_ops = 0;
  double max_port_util = 0.0;

  [[nodiscard]] double setup_s() const { return generate_s + system_s + engine_s; }
  [[nodiscard]] double replay_mops() const {
    return static_cast<double>(report.total_ops) / replay_s / 1e6;
  }
  // Replay speed in units of the canary: thousands of ops replayed in the time one canary
  // pass took just before the rep. A host that slows both down by the same factor leaves
  // it unchanged.
  [[nodiscard]] double replay_per_canary() const { return replay_mops() * canary_ms; }
};

uint64_t RegistryCounter(const mind::MetricsRegistry& reg, std::string_view name) {
  const mind::MetricsRegistry::Entry* e = reg.Find(name);
  return e == nullptr ? 0 : e->counter;
}

// Digest of everything simulated: the report's counters, fault and prefetch accounting,
// makespan and full latency histogram, plus every final "system/" registry entry (rack,
// splitting and fabric state). Execution-shape counters (shards, channel vs drain ops)
// are deliberately left out: they differ between modes while the results may not.
void DigestAndCollect(Rep* rep, const mind::MetricsRegistry& reg) {
  const mind::ReplayReport& r = rep->report;
  Digest d;
  d.U64(r.makespan);
  d.U64(r.total_ops);
  const mind::SystemCounters& c = r.counters;
  for (const uint64_t v : {c.total_accesses, c.local_hits, c.remote_accesses, c.invalidations,
                           c.pages_flushed, c.false_invalidations, c.breakdown_sums.fault,
                           c.breakdown_sums.network, c.breakdown_sums.inv_queue,
                           c.breakdown_sums.inv_tlb, c.breakdown_sums.fabric_wait}) {
    d.U64(v);
  }
  const mind::PrefetchStats& p = r.prefetch;
  for (const uint64_t v : {p.issued, p.useful, p.late, p.evicted_unused, p.discarded_stale,
                           p.rearmed, p.throttled}) {
    d.U64(v);
  }
  const mind::FaultCounters& f = r.fault;
  for (const uint64_t v : {f.timeouts, f.retransmissions, f.resets_triggered,
                           f.pages_flushed_by_reset, f.drains_completed,
                           f.drain_pages_migrated, f.stalled_deliveries}) {
    d.U64(v);
  }
  // Histogram holds only uint64_t fields, so its object bytes are its full state.
  d.Bytes(&r.latency_histogram, sizeof(r.latency_histogram));

  std::ostringstream text;
  reg.ExportText(text);
  std::istringstream lines(text.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.starts_with("system/")) {
      continue;
    }
    d.Bytes(line.data(), line.size());
    const size_t space = line.find(' ');
    const std::string_view name = std::string_view(line).substr(0, space);
    if (name.starts_with("system/fabric/") && name.ends_with("/utilization")) {
      rep->max_port_util = std::max(rep->max_port_util, std::atof(line.c_str() + space + 1));
    }
  }
  rep->digest = d.value();
  rep->write_upgrades = RegistryCounter(reg, "system/rack/write_upgrades");
  rep->splits = RegistryCounter(reg, "system/splitting/splits");
  rep->merges = RegistryCounter(reg, "system/splitting/merges");
  rep->dir_capacity_evictions = RegistryCounter(reg, "system/rack/directory_capacity_evictions");
  rep->evict_writebacks = RegistryCounter(reg, "system/rack/evict_writebacks");
  rep->multicast_ops = RegistryCounter(reg, "system/fabric/multicast_operations");
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 0.0;  // > 0: repeat timed reps for this long.
  bool trace = false;
  bool smoke = false;
  std::string out;
};

mind::WorkloadSpec SpecFor(const Workload& w, const Options& o) {
  mind::WorkloadSpec spec = w.spec();
  if (o.seed_set) {
    spec.seed = o.seed;
  }
  if (o.smoke) {
    spec.accesses_per_thread /= kSmokeDivisor;
  }
  return spec;
}

// One rep. `rec` non-null decorates the system (1-shard replays only).
Rep RunRep(const Workload& w, const mind::WorkloadSpec& spec, mind::ReplayOptions opts,
           SpanRecorder* rec) {
  Rep rep;
  const uint64_t t0 = SpanRecorder::NowNs();
  const mind::WorkloadTraces traces = mind::GenerateTraces(spec);
  const uint64_t t1 = SpanRecorder::NowNs();
  std::unique_ptr<mind::MemorySystem> system = w.make_system();
  if (rec != nullptr) {
    system = std::make_unique<TracedSystem>(std::move(system), rec);
  }
  const uint64_t t2 = SpanRecorder::NowNs();
  mind::ReplayEngine engine(system.get(), &traces, opts);
  if (const mind::Status s = engine.Setup(); !s.ok()) {
    std::fprintf(stderr, "mindbench: %s: Setup failed: %s\n", spec.name.c_str(),
                 s.ToString().c_str());
    std::exit(1);
  }
  const uint64_t t3 = SpanRecorder::NowNs();
  rep.rss_after_setup_mb = CurrentRssMb();
  if (rec != nullptr) {
    rec->Arm(true);
  }
  const uint64_t t4 = SpanRecorder::NowNs();
  rep.report = engine.Run();
  const uint64_t t5 = SpanRecorder::NowNs();
  if (rec != nullptr) {
    rec->Arm(false);
  }
  rep.rss_after_run_mb = CurrentRssMb();
  rep.generate_s = SecondsBetween(t0, t1);
  rep.system_s = SecondsBetween(t1, t2);
  rep.engine_s = SecondsBetween(t2, t3);
  rep.replay_s = SecondsBetween(t4, t5);
  rep.trace_ops = traces.TotalOps();
  for (const mind::ShardReport& sr : engine.shard_reports()) {
    rep.parallel_hits += sr.parallel_hits;
    rep.grouped_ops += sr.grouped_ops;
    rep.drained_ops += sr.drained_ops;
    rep.owner_drained += sr.owner_drained;
  }
  if (const mind::PhaseProfiler* prof = engine.profiler(); prof != nullptr) {
    auto lane_ms = [&](size_t lane, mind::PhaseProfiler::Phase phase) {
      return static_cast<double>(prof->lane(lane).total_ns[static_cast<size_t>(phase)]) / 1e6;
    };
    rep.scan_ms = lane_ms(0, mind::PhaseProfiler::Phase::kScan);
    rep.commit_ms = lane_ms(0, mind::PhaseProfiler::Phase::kCommit);
    rep.serial_drain_ms = lane_ms(prof->serial_lane(), mind::PhaseProfiler::Phase::kSerialDrain);
    rep.barrier_ms = lane_ms(prof->serial_lane(), mind::PhaseProfiler::Phase::kBarrierWait);
  }
  DigestAndCollect(&rep, *engine.metrics());
  return rep;
}

// Accounting checks every rep must pass on its own, besides the shared digest.
bool RepConsistent(const Rep& rep) {
  const mind::ReplayReport& r = rep.report;
  return r.total_ops == rep.trace_ops && r.latency_histogram.count() == r.total_ops &&
         r.counters.total_accesses == r.total_ops &&
         rep.parallel_hits + rep.drained_ops == r.total_ops;
}

// --- JSON output -------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "\n  }";
}

std::string ListJson(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Num(v[i]);
  }
  return out + "]";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// --- Metrics -----------------------------------------------------------------------

// Per-rep values of the host metrics that are medians over the timed reps.
struct Samples {
  std::vector<double> replay_mops;
  std::vector<double> replay_per_canary;
  std::vector<double> setup_s;
  std::vector<double> canary_ms;
};

Samples TimedSamples(const std::vector<Rep>& timed) {
  Samples s;
  for (const Rep& r : timed) {
    s.replay_mops.push_back(r.replay_mops());
    s.replay_per_canary.push_back(r.replay_per_canary());
    s.setup_s.push_back(r.setup_s());
    s.canary_ms.push_back(r.canary_ms);
  }
  return s;
}

std::vector<Metric> EndToEnd(const std::vector<Rep>& timed, double peak_rss_mb) {
  const Samples s = TimedSamples(timed);
  const mind::ReplayReport& sim = timed.front().report;
  return {
      {"replay_mops", Median(s.replay_mops), "Mop/s"},
      {"replay_per_canary", Median(s.replay_per_canary), "kop/canary"},
      {"setup_s", Median(s.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_mops", sim.throughput_mops, "Mop/s"},
      {"sim_mean_us", sim.avg_latency_us, "us"},
  };
}

// Simulated metrics: deterministic for a (workload, seed), identical in every rep.
void AppendSimulated(const Rep& rep, uint64_t failed, std::vector<Metric>* out) {
  const mind::ReplayReport& r = rep.report;
  const double ops = static_cast<double>(r.total_ops);
  const mind::SystemCounters& c = r.counters;
  const mind::LatencyBreakdown& b = c.breakdown_sums;
  const double per_kop = 1000.0 / ops;
  const mind::Histogram& h = r.latency_histogram;
  const double attributed = static_cast<double>(b.Total());
  out->insert(out->end(), {
      {"sim.local_hit_frac", static_cast<double>(c.local_hits) / ops, "ratio"},
      {"sim.remote_per_op", r.RemoteAccessesPerOp(), "count/op"},
      {"sim.invalidations_per_op", r.InvalidationsPerOp(), "count/op"},
      {"sim.false_inv_frac",
       Ratio(static_cast<double>(c.false_invalidations), static_cast<double>(c.pages_flushed)),
       "ratio"},
      {"sim.pages_flushed_per_op", r.FlushedPagesPerOp(), "count/op"},
      {"sim.multicast_per_kop", static_cast<double>(rep.multicast_ops) * per_kop, "count/kop"},
      {"sim.write_upgrades_per_kop", static_cast<double>(rep.write_upgrades) * per_kop,
       "count/kop"},
      {"sim.splits_per_kop", static_cast<double>(rep.splits) * per_kop, "count/kop"},
      {"sim.merges_per_kop", static_cast<double>(rep.merges) * per_kop, "count/kop"},
      {"sim.dir_capacity_evictions", static_cast<double>(rep.dir_capacity_evictions), "count"},
      {"sim.evict_writebacks_per_kop", static_cast<double>(rep.evict_writebacks) * per_kop,
       "count/kop"},
      {"sim.max_port_util", rep.max_port_util, "ratio"},
      {"sim.fault_ns_per_op", static_cast<double>(b.fault) / ops, "ns"},
      {"sim.network_ns_per_op", static_cast<double>(b.network) / ops, "ns"},
      {"sim.inv_queue_ns_per_op", static_cast<double>(b.inv_queue) / ops, "ns"},
      {"sim.inv_tlb_ns_per_op", static_cast<double>(b.inv_tlb) / ops, "ns"},
      {"sim.fabric_wait_ns_per_op", static_cast<double>(b.fabric_wait) / ops, "ns"},
      {"sim.unattributed_ns_per_op", (static_cast<double>(h.sum()) - attributed) / ops, "ns"},
      {"sim.p50_us", static_cast<double>(h.Percentile(0.50)) / 1e3, "us"},
      {"sim.p99_us", static_cast<double>(h.Percentile(0.99)) / 1e3, "us"},
      {"sim.p999_us", static_cast<double>(h.Percentile(0.999)) / 1e3, "us"},
      {"sim.latency_samples", static_cast<double>(h.count()), "count"},
      {"failed_frac", static_cast<double>(failed) / ops, "ratio"},
  });
}

struct TraceInputs {
  const std::vector<Rep>* timed = nullptr;
  const Rep* traced = nullptr;
  const Rep* reference = nullptr;  // The untraced rep run just before `traced`.
  const SpanRecorder* rec = nullptr;
  const SpanRecorder* full = nullptr;  // The rep that timed every call.
  Calibration cal;
  const std::vector<Rep>* shard4 = nullptr;
};

// Checks of the traced breakdown that do not follow from how it is built. Self time is
// the traced Run time minus every span and the probes' cost, so self + spans equals the
// traced Run whatever the spans are; these compare the spans with other measurements.
struct AttributionCheck {
  // Share of the span time that the sampled breakdown puts under another span kind than
  // the rep that timed every call does (half the sum of the per-kind share differences,
  // in %). Shares, not totals, so that a host slowdown between the two reps cancels.
  double residual_pct = 0.0;
  // Spans over the time of the code around their calls, in the traced rep itself: the
  // whole Run less the probes' cost (above 1 exactly when self time is negative), the
  // scan and commit lanes for channel and group calls, and the serial-drain lane for
  // Access and Eligible. Above 1, the spans claim more time than the code around them
  // took.
  double run_share = 0.0;
  double channel_lane_share = 0.0;
  double drain_lane_share = 0.0;

  // Sampling error allowed before a share above 1 counts as a wrong breakdown.
  static constexpr double kMaxShare = 1.05;

  [[nodiscard]] bool ok() const {
    return run_share <= kMaxShare && channel_lane_share <= kMaxShare &&
           drain_lane_share <= kMaxShare;
  }
};

std::vector<Metric> PerLayer(const TraceInputs& in, AttributionCheck* check) {
  const std::vector<Rep>& timed = *in.timed;
  const Rep& tr = *in.traced;
  const SpanRecorder& rec = *in.rec;
  const double ops = static_cast<double>(tr.report.total_ops);

  std::vector<double> replay_s;
  std::vector<double> generate_ms;
  std::vector<double> system_ms;
  std::vector<double> engine_ms;
  for (const Rep& r : timed) {
    replay_s.push_back(r.replay_s);
    generate_ms.push_back(r.generate_s * 1e3);
    system_ms.push_back(r.system_s * 1e3);
    engine_ms.push_back(r.engine_s * 1e3);
  }
  const double untraced_ns = in.reference->replay_s * 1e9;
  const double traced_ns = tr.replay_s * 1e9;

  auto est = [&](Span s) { return rec.EstimatedNs(s); };
  auto calls = [&](Span s) { return static_cast<double>(rec.totals(s).calls); };
  auto mean_ns = [&](Span s) { return Ratio(est(s), calls(s)); };
  double children_ns = 0.0;
  for (size_t s = 0; s < kNumSpans; ++s) {
    children_ns += est(static_cast<Span>(s));
  }
  // What the probes themselves added to the engine's time: a forwarding hop per call,
  // the clock reads outside the recorded span per timed call, and the warm-up reads.
  const double instrument_ns =
      static_cast<double>(rec.calls()) * in.cal.forward_ns +
      static_cast<double>(rec.timed()) * in.cal.probe_ns +
      static_cast<double>(rec.warm_up_reads() * in.cal.clock_ns);
  const double self_ns = traced_ns - children_ns - instrument_ns;

  double full_ns = 0.0;
  for (size_t s = 0; s < kNumSpans; ++s) {
    full_ns += in.full->EstimatedNs(static_cast<Span>(s));
  }
  double moved = 0.0;
  for (size_t s = 0; s < kNumSpans; ++s) {
    const auto span = static_cast<Span>(s);
    moved += std::abs(Ratio(est(span), children_ns) - Ratio(in.full->EstimatedNs(span), full_ns));
  }
  auto sum_ns = [&](std::initializer_list<Span> spans) {
    double ns = 0.0;
    for (const Span s : spans) {
      ns += est(s);
    }
    return ns;
  };
  check->residual_pct = moved / 2.0 * 100.0;
  check->run_share = Ratio(children_ns, traced_ns - instrument_ns);
  check->channel_lane_share =
      Ratio(sum_ns({Span::kSubmit, Span::kRunValid, Span::kCommit, Span::kValidMask,
                    Span::kCommitMerged}),
            (tr.scan_ms + tr.commit_ms) * 1e6);
  check->drain_lane_share =
      Ratio(sum_ns({Span::kEligible, Span::kAccessHit, Span::kAccessFetch, Span::kAccessWave}),
            tr.serial_drain_ms * 1e6);

  const SpanRecorder::Ops& o = rec.ops;
  std::vector<double> shard4_s;
  std::vector<double> barrier_share;
  for (const Rep& r : *in.shard4) {
    shard4_s.push_back(r.replay_s);
    barrier_share.push_back(Ratio(r.barrier_ms / 1e3, r.replay_s));
  }

  // Profiler lanes as the untraced reference rep saw them.
  const Rep& ref = *in.reference;
  std::vector<Metric> m = {
      {"replay.self_ns_per_op", self_ns / ops, "ns"},
      {"replay.scan_ms", ref.scan_ms, "ms"},
      {"replay.commit_ms", ref.commit_ms, "ms"},
      {"replay.serial_drain_ms", ref.serial_drain_ms, "ms"},
      {"replay.channel_ops_frac", static_cast<double>(tr.parallel_hits) / ops, "ratio"},
      {"replay.grouped_ops_frac", static_cast<double>(tr.grouped_ops) / ops, "ratio"},
      {"replay.drained_ops_frac", static_cast<double>(tr.drained_ops) / ops, "ratio"},
      {"replay.owner_drained_frac", static_cast<double>(tr.owner_drained) / ops, "ratio"},
      {"replay.shard4_speedup", Ratio(Median(replay_s), Median(shard4_s)), "x"},
      {"replay.shard4_barrier_share", Median(barrier_share), "ratio"},
      {"setup.generate_ms", Median(generate_ms), "ms"},
      {"setup.system_ms", Median(system_ms), "ms"},
      {"setup.engine_ms", Median(engine_ms), "ms"},
      {"mem.rss_after_setup_mb", timed.front().rss_after_setup_mb, "MB"},
      {"mem.rss_after_run_mb", timed.front().rss_after_run_mb, "MB"},
      {"channel.submit_ns_per_op", est(Span::kSubmit) / ops, "ns"},
      {"channel.commit_ns_per_op", est(Span::kCommit) / ops, "ns"},
      {"channel.run_valid_ns_per_op", est(Span::kRunValid) / ops, "ns"},
      {"channel.run_valid_calls_per_op", calls(Span::kRunValid) / ops, "count/op"},
      {"channel.waste_frac",
       o.accepted == 0 ? 0.0
                       : 1.0 - static_cast<double>(o.channel_committed + o.group_committed) /
                                   static_cast<double>(o.accepted),
       "ratio"},
      {"group.valid_mask_ns", mean_ns(Span::kValidMask), "ns"},
      {"group.valid_mask_calls_per_op", calls(Span::kValidMask) / ops, "count/op"},
      {"group.commit_merged_ns_per_op", est(Span::kCommitMerged) / ops, "ns"},
      {"owner.eligible_ns", mean_ns(Span::kEligible), "ns"},
      {"owner.eligible_calls_per_op", calls(Span::kEligible) / ops, "count/op"},
      {"owner.eligible_true_frac",
       Ratio(static_cast<double>(o.eligible_true), calls(Span::kEligible)), "ratio"},
      {"access.hit_ns", mean_ns(Span::kAccessHit), "ns"},
      {"access.fetch_ns", mean_ns(Span::kAccessFetch), "ns"},
      {"access.wave_ns", mean_ns(Span::kAccessWave), "ns"},
      {"access.hit_calls_per_op", calls(Span::kAccessHit) / ops, "count/op"},
      {"access.fetch_calls_per_op", calls(Span::kAccessFetch) / ops, "count/op"},
      {"access.wave_calls_per_op", calls(Span::kAccessWave) / ops, "count/op"},
      {"misc.ns_per_op", est(Span::kMisc) / ops, "ns"},
      {"trace_overhead_pct", (traced_ns - untraced_ns) / untraced_ns * 100.0, "%"},
      {"attribution_residual_pct", check->residual_pct, "%"},
  };
  AppendSimulated(tr, o.failed, &m);
  return m;
}

std::vector<double> ReplaySeconds(const std::vector<Rep>& reps) {
  std::vector<double> s;
  for (const Rep& r : reps) {
    s.push_back(r.replay_s);
  }
  return s;
}

struct Result {
  std::array<double, 2> canary_ms = {0.0, 0.0};  // Before phase 1, after phase 3.
  int executions = 0;
  bool digest_ok = true;
  bool accounting_ok = true;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  AttributionCheck attribution;
  // Replay seconds of the reps outside phase 1, for reading the traced breakdown.
  std::vector<double> reference_s;
  std::vector<double> decorated_s;
  std::vector<double> fully_timed_s;
  std::vector<double> shard4_s;
};

// The result file: host stamp, correctness, every metric, per-rep samples and the
// traced rep's span aggregates, next to the totals of the rep that timed every call.
bool WriteResult(const std::string& path, const mind::WorkloadSpec& spec, const Options& opt,
                 const std::vector<Rep>& timed, const SpanRecorder& rec,
                 const SpanRecorder& full, const Calibration& cal, const Result& res) {
  const uint64_t ops = timed.front().report.total_ops;
  const Samples samples = TimedSamples(timed);
  std::string spans = "{";
  for (size_t s = 0; s < kNumSpans; ++s) {
    const auto span = static_cast<Span>(s);
    const SpanRecorder::Totals& t = rec.totals(span);
    spans += std::string(s == 0 ? "\n    " : ",\n    ") + Quote(SpanName(span)) +
             ": {\"parent\": \"run\", \"calls\": " + std::to_string(t.calls) +
             ", \"timed\": " + std::to_string(t.timed) +
             ", \"estimated_ns\": " + Num(rec.EstimatedNs(span)) +
             ", \"fully_timed_ns\": " + Num(full.EstimatedNs(span)) + "}";
  }
  spans += "\n  }";
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(timed.front().digest));
  std::ofstream f(path, std::ios::trunc);
  f << "{\n"
    << "  \"workload\": " << Quote(spec.name) << ",\n"
    << "  \"seed\": " << spec.seed << ",\n"
    << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
    << "  \"traced\": " << (opt.trace ? "true" : "false") << ",\n"
    << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << Quote(CpuModel()) << ", \"compiler\": " << Quote(MINDBENCH_COMPILER)
    << ", \"build_type\": " << Quote(MINDBENCH_BUILD_TYPE) << "},\n"
    << "  \"reps\": {\"timed\": " << timed.size() << ", \"reference\": "
    << res.reference_s.size() << ", \"decorated\": " << res.decorated_s.size()
    << ", \"fully_timed\": " << res.fully_timed_s.size()
    << ", \"shard4\": " << res.shard4_s.size() << "},\n"
    << "  \"ops_per_rep\": " << ops << ",\n"
    << "  \"canary_ms\": [" << Num(res.canary_ms[0]) << ", " << Num(res.canary_ms[1]) << "],\n"
    << "  \"digest\": \"" << digest_hex << "\",\n"
    << "  \"digest_ok\": " << (res.digest_ok ? "true" : "false") << ",\n"
    << "  \"accounting_ok\": " << (res.accounting_ok ? "true" : "false") << ",\n"
    << "  \"attempted\": " << ops * timed.size() << ",\n"
    << "  \"failed\": " << rec.ops.failed * timed.size() << ",\n"
    << "  \"end_to_end\": " << MetricsJson(res.e2e) << ",\n"
    << "  \"per_layer\": " << MetricsJson(res.layers) << ",\n"
    << "  \"samples\": {\"replay_mops\": " << ListJson(samples.replay_mops)
    << ", \"replay_per_canary\": " << ListJson(samples.replay_per_canary)
    << ", \"setup_s\": " << ListJson(samples.setup_s)
    << ", \"canary_ms\": " << ListJson(samples.canary_ms)
    << ", \"reference_replay_s\": " << ListJson(res.reference_s)
    << ", \"decorated_replay_s\": " << ListJson(res.decorated_s)
    << ", \"fully_timed_replay_s\": " << ListJson(res.fully_timed_s)
    << ", \"shard4_replay_s\": " << ListJson(res.shard4_s) << "},\n"
    << "  \"attribution\": {\"ok\": " << (opt.trace && res.attribution.ok() ? "true" : "false")
    << ", \"residual_pct\": " << Num(res.attribution.residual_pct)
    << ", \"run_share\": " << Num(res.attribution.run_share)
    << ", \"channel_lane_share\": " << Num(res.attribution.channel_lane_share)
    << ", \"drain_lane_share\": " << Num(res.attribution.drain_lane_share) << "},\n"
    << "  \"calibration\": {\"clock_ns\": " << cal.clock_ns
    << ", \"forward_ns\": " << Num(cal.forward_ns) << ", \"probe_ns\": " << Num(cal.probe_ns)
    << "},\n"
    << "  \"spans\": " << spans << "\n"
    << "}\n";
  return f.good();
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&](std::string_view key) -> const char* {
      return a.substr(0, key.size()) == key ? argv[i] + key.size() : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o->workload = v;
    } else if (const char* v = value("--seed=")) {
      o->seed = std::strtoull(v, nullptr, 10);
      o->seed_set = true;
    } else if (const char* v = value("--seconds=")) {
      o->seconds = std::atof(v);
    } else if (const char* v = value("--out=")) {
      o->out = v;
    } else if (a == "--trace") {
      o->trace = true;
    } else if (a == "--smoke") {
      o->smoke = true;
    } else {
      std::fprintf(stderr, "mindbench: unknown argument %s\n", argv[i]);
      return false;
    }
  }
  return o->seconds >= 0.0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  const Workload* w = FindWorkload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "mindbench: --workload must be one of:");
    for (const Workload& k : kWorkloads) {
      std::fprintf(stderr, " %.*s", static_cast<int>(k.name.size()), k.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (opt.smoke) {
    opt.seconds = 0.0;
  }
  const int reps = opt.smoke ? kSmokeReps : kDefaultReps;
  const mind::WorkloadSpec spec = SpecFor(*w, opt);
  const Calibration cal = Calibrate();
  const Canary canary;
  const double canary_before_ms = canary.MedianMs(kCanaryPasses);

  // Phase 1: timed reps.
  std::vector<Rep> timed;
  const uint64_t phase_start = SpanRecorder::NowNs();
  for (;;) {
    const double canary_ms = canary.PassMs();
    timed.push_back(RunRep(*w, spec, mind::ReplayOptions{}, nullptr));
    timed.back().canary_ms = canary_ms;
    const int n = static_cast<int>(timed.size());
    const bool done =
        opt.seconds > 0.0
            ? n >= kMaxReps ||
                  (n >= kMinReps &&
                   SecondsBetween(phase_start, SpanRecorder::NowNs()) >= opt.seconds)
            : n >= reps;
    if (done) {
      break;
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // Phase 2: decorated reps. Traced, each runs right after an untraced reference rep, so
  // the overhead compares two reps made under nearly the same host conditions; the pair
  // with the median traced/untraced ratio is reported. Both run with the PhaseProfiler,
  // whose lanes the traced rep's spans are checked against and the reference rep's are
  // reported.
  mind::ReplayOptions profiled;
  profiled.profile = true;
  const int decorated_reps = opt.trace && !opt.smoke ? kTracedReps : 1;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  std::vector<Rep> decorated;
  std::vector<Rep> reference;
  for (int i = 0; i < decorated_reps; ++i) {
    if (opt.trace) {
      reference.push_back(RunRep(*w, spec, profiled, nullptr));
    }
    recorders.push_back(std::make_unique<SpanRecorder>(
        opt.trace ? SpanRecorder::Mode::kSample : SpanRecorder::Mode::kCount, cal.clock_ns));
    decorated.push_back(RunRep(*w, spec, opt.trace ? profiled : mind::ReplayOptions{},
                               recorders.back().get()));
  }
  auto slowdown = [&](size_t i) {
    return opt.trace ? decorated[i].replay_s / reference[i].replay_s : 1.0;
  };
  std::vector<size_t> order(decorated.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return slowdown(a) < slowdown(b); });
  const size_t mid = order[order.size() / 2];
  const SpanRecorder& rec = *recorders[mid];
  // The rep that times every call: its span split carries no sampling error, at the
  // price of the clock reads, so the sampled split is checked against it.
  SpanRecorder full(SpanRecorder::Mode::kAlways, cal.clock_ns);
  std::vector<Rep> fully_timed;
  if (opt.trace) {
    fully_timed.push_back(RunRep(*w, spec, mind::ReplayOptions{}, &full));
  }

  // Phase 3 (traced runs): the 4-shard diagnostics.
  std::vector<Rep> shard4;
  if (opt.trace) {
    mind::ReplayOptions sharded = profiled;
    sharded.shards = 4;
    for (int i = 0; i < (opt.smoke ? 1 : kShard4Reps); ++i) {
      shard4.push_back(RunRep(*w, spec, sharded, nullptr));
    }
  }

  Result res;
  res.canary_ms = {canary_before_ms, canary.MedianMs(kCanaryPasses)};
  // Correctness: one digest across every execution, and consistent accounting.
  res.reference_s = ReplaySeconds(reference);
  res.decorated_s = ReplaySeconds(decorated);
  res.fully_timed_s = ReplaySeconds(fully_timed);
  res.shard4_s = ReplaySeconds(shard4);
  for (const std::vector<Rep>* group :
       {&timed, &reference, &decorated, &fully_timed, &shard4}) {
    for (const Rep& r : *group) {
      res.digest_ok &= r.digest == timed.front().digest;
      res.accounting_ok &= RepConsistent(r);
      ++res.executions;
    }
  }
  res.e2e = EndToEnd(timed, peak_rss_mb);
  if (opt.trace) {
    res.layers = PerLayer(
        TraceInputs{&timed, &decorated[mid], &reference[mid], &rec, &full, cal, &shard4},
        &res.attribution);
  }

  const uint64_t ops = timed.front().report.total_ops;
  std::printf("mindbench %s: %llu ops, seed %llu, %zu timed reps%s\n", spec.name.c_str(),
              static_cast<unsigned long long>(ops), static_cast<unsigned long long>(spec.seed),
              timed.size(), opt.smoke ? " (smoke)" : "");
  std::printf("digest %016llx across %d executions: %s; accounting: %s; failed ops: %llu\n",
              static_cast<unsigned long long>(timed.front().digest), res.executions,
              res.digest_ok ? "identical" : "MISMATCH", res.accounting_ok ? "ok" : "INCONSISTENT",
              static_cast<unsigned long long>(rec.ops.failed));
  std::printf("canary %.1f ms before, %.1f ms after\n", res.canary_ms[0], res.canary_ms[1]);
  PrintMetrics("end-to-end (median over timed reps):", res.e2e);
  if (opt.trace) {
    PrintMetrics("per-layer (median traced rep, 4-shard reps, timed-rep medians):", res.layers);
    const AttributionCheck& a = res.attribution;
    std::printf("attribution: %s (spans / the time around them: run %.3f, channel lanes "
                "%.3f, drain lane %.3f; sampled split vs fully timed split %.2f%%)\n",
                a.ok() ? "ok" : "SUSPECT", a.run_share, a.channel_lane_share,
                a.drain_lane_share, a.residual_pct);
  }
  if (!opt.out.empty() && !WriteResult(opt.out, spec, opt, timed, rec, full, cal, res)) {
    std::fprintf(stderr, "mindbench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return res.digest_ok && res.accounting_ok ? 0 : 1;
}

}  // namespace
}  // namespace mindbench

int main(int argc, char** argv) { return mindbench::Main(argc, argv); }
