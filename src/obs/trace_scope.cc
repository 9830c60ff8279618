#include "src/obs/trace_scope.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "src/obs/phase_profiler.h"

namespace mind {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAccessSpan: return "access";
    case TraceEventKind::kInvalidationWave: return "inv-wave";
    case TraceEventKind::kDirectorySplit: return "dir-split";
    case TraceEventKind::kDirectoryMerge: return "dir-merge";
    case TraceEventKind::kFaultTimeout: return "fault-timeout";
    case TraceEventKind::kFaultReset: return "fault-reset";
    case TraceEventKind::kFaultStall: return "fault-stall";
    case TraceEventKind::kBladeDrainBegin: return "blade-drain-begin";
    case TraceEventKind::kBladeDrainEnd: return "blade-drain-end";
    case TraceEventKind::kMigrateRange: return "migrate-range";
    case TraceEventKind::kPrefetchIssue: return "prefetch-issue";
    case TraceEventKind::kPrefetchUseful: return "prefetch-useful";
    case TraceEventKind::kPrefetchDiscard: return "prefetch-discard";
    case TraceEventKind::kWaveIssue: return "wave-issue";
    case TraceEventKind::kGroupCommit: return "group-commit";
  }
  return "?";
}

void TraceScope::Finalize() {
  if (finalized_) {
    return;
  }
  merged_.clear();
  merged_.reserve(control_.size() + execution_.size());
  control_.ForEach([&](const TraceEvent& e) { merged_.push_back(e); });
  execution_.ForEach([&](const TraceEvent& e) { merged_.push_back(e); });
  std::stable_sort(merged_.begin(), merged_.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     if (x.clock != y.clock) return x.clock < y.clock;
                     if (x.tid != y.tid) return x.tid < y.tid;
                     return static_cast<uint8_t>(x.kind) < static_cast<uint8_t>(y.kind);
                   });
  finalized_ = true;
}

uint64_t TraceScope::dropped() const { return control_.dropped() + execution_.dropped(); }

namespace {

void AppendLe64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

}  // namespace

std::string TraceScope::SemanticBytes() const {
  std::string out;
  out.reserve(control_.size() * 56);
  control_.ForEach([&](const TraceEvent& e) {
    if (!IsSemanticEvent(e.kind)) {
      return;
    }
    AppendLe64(&out, e.clock);
    AppendLe64(&out, e.dur);
    AppendLe64(&out, e.a);
    AppendLe64(&out, e.b);
    AppendLe64(&out, e.c);
    AppendLe64(&out, e.d);
    AppendLe64(&out, (static_cast<uint64_t>(e.tid) << 24) |
                         (static_cast<uint64_t>(e.blade) << 8) |
                         static_cast<uint64_t>(e.kind));
  });
  return out;
}

uint64_t TraceScope::SemanticDigest() const {
  // FNV-1a, 64-bit.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : SemanticBytes()) {
    h ^= static_cast<uint8_t>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

size_t TraceScope::semantic_events() const {
  size_t n = 0;
  control_.ForEach([&](const TraceEvent& e) { n += IsSemanticEvent(e.kind) ? 1 : 0; });
  return n;
}

size_t TraceScope::execution_events() const {
  size_t n = 0;
  control_.ForEach([&](const TraceEvent& e) { n += IsSemanticEvent(e.kind) ? 0 : 1; });
  return n + execution_.size();
}

namespace {

// Chrome's trace_event timebase is microseconds; keep ns precision with three
// decimals. Buffered snprintf keeps the writer allocation-light.
void AppendMicros(std::string* out, uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out->append(buf);
}

void AppendEvent(std::string* out, const TraceEvent& e, bool* first) {
  if (!*first) out->append(",\n");
  *first = false;
  out->append("{\"name\":\"");
  out->append(TraceEventKindName(e.kind));
  out->append("\",\"cat\":\"");
  out->append(IsSemanticEvent(e.kind) ? "semantic" : "execution");
  out->append("\",\"ph\":\"");
  out->append(e.dur > 0 ? "X" : "i");
  out->append("\",\"ts\":");
  AppendMicros(out, e.clock);
  if (e.dur > 0) {
    out->append(",\"dur\":");
    AppendMicros(out, e.dur);
  } else {
    out->append(",\"s\":\"t\"");  // Instant scope: thread.
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ",\"pid\":%u,\"tid\":%u,\"args\":{\"a\":%llu,\"b\":%llu,\"c\":%llu,"
                "\"d\":%llu}}",
                static_cast<unsigned>(e.blade), static_cast<unsigned>(e.tid),
                static_cast<unsigned long long>(e.a), static_cast<unsigned long long>(e.b),
                static_cast<unsigned long long>(e.c),
                static_cast<unsigned long long>(e.d));
  out->append(buf);
}

void AppendMeta(std::string* out, unsigned pid, const char* name, bool* first) {
  if (!*first) out->append(",\n");
  *first = false;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":%u,\"tid\":0,"
                "\"args\":{\"name\":\"%s\"}}",
                pid, name);
  out->append(buf);
}

// Profiler lanes render as their own process so wall-clock time never mixes
// with the simulated timeline.
constexpr unsigned kProfilerPid = 9000;

void AppendProfiler(std::string* out, const PhaseProfiler& prof, bool* first) {
  AppendMeta(out, kProfilerPid, "phase profiler (host wall-clock)", first);
  for (size_t lane = 0; lane < prof.num_lanes(); ++lane) {
    for (const PhaseProfiler::Interval& iv : prof.lane(lane).intervals) {
      if (!*first) out->append(",\n");
      *first = false;
      out->append("{\"name\":\"");
      out->append(PhaseProfiler::PhaseName(iv.phase));
      out->append(lane == prof.serial_lane() ? " (serial)" : "");
      out->append("\",\"cat\":\"profile\",\"ph\":\"X\",\"ts\":");
      AppendMicros(out, iv.start_ns);
      out->append(",\"dur\":");
      AppendMicros(out, iv.dur_ns == 0 ? 1 : iv.dur_ns);
      char buf[64];
      std::snprintf(buf, sizeof buf, ",\"pid\":%u,\"tid\":%u,\"args\":{}}", kProfilerPid,
                    static_cast<unsigned>(lane));
      out->append(buf);
    }
  }
}

}  // namespace

void TraceScope::WriteChromeJson(std::ostream& os, const PhaseProfiler* profiler) const {
  std::string out;
  out.reserve(merged_.size() * 160 + 4096);
  out.append("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  uint64_t max_blade = 0;
  for (const TraceEvent& e : merged_) {
    max_blade = e.blade > max_blade ? e.blade : max_blade;
  }
  for (uint64_t b = 0; b <= max_blade; ++b) {
    char name[32];
    std::snprintf(name, sizeof name, "blade %llu", static_cast<unsigned long long>(b));
    AppendMeta(&out, static_cast<unsigned>(b), name, &first);
  }
  for (const TraceEvent& e : merged_) {
    AppendEvent(&out, e, &first);
  }
  if (profiler != nullptr) {
    AppendProfiler(&out, *profiler, &first);
  }
  char tail[128];
  std::snprintf(tail, sizeof tail,
                "\n],\"otherData\":{\"semanticDigest\":\"%016llx\",\"dropped\":%llu}}\n",
                static_cast<unsigned long long>(SemanticDigest()),
                static_cast<unsigned long long>(dropped()));
  out.append(tail);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

bool TraceScope::WriteChromeJsonFile(const std::string& path,
                                     const PhaseProfiler* profiler) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return false;
  }
  WriteChromeJson(f, profiler);
  f.flush();
  return static_cast<bool>(f);
}

}  // namespace mind
