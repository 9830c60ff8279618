// Unit tests for the src/obs/ machinery itself: TraceSink ring-buffer overflow,
// TraceScope merge order and digest algebra, Histogram::Summary, the MetricsRegistry
// (upsert, sampling bounds, text/JSON export) and the PhaseProfiler storage discipline.
// End-to-end determinism of traced replay lives in trace_determinism_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/phase_profiler.h"
#include "src/obs/trace.h"
#include "src/obs/trace_scope.h"

namespace mind {
namespace {

TraceEvent MakeEvent(TraceEventKind kind, SimTime clock, uint64_t a = 0,
                     ThreadId tid = 0, ComputeBladeId blade = 0) {
  TraceEvent e;
  e.kind = kind;
  e.clock = clock;
  e.a = a;
  e.tid = tid;
  e.blade = blade;
  return e;
}

// --- TraceSink -------------------------------------------------------------------------

TEST(TraceSink, RingOverflowDropsOldestKeepsNewest) {
  TraceSink sink(/*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    sink.Emit(MakeEvent(TraceEventKind::kAccessSpan, /*clock=*/i, /*a=*/i));
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_emitted(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  std::vector<uint64_t> seen;
  sink.ForEach([&](const TraceEvent& e) { seen.push_back(e.a); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{6, 7, 8, 9}));  // Oldest-first survivors.
}

TEST(TraceSink, ForEachIsEmissionOrderedBelowCapacity) {
  TraceSink sink(16);
  sink.Emit(MakeEvent(TraceEventKind::kAccessSpan, 30));
  sink.Emit(MakeEvent(TraceEventKind::kAccessSpan, 10));  // Out of clock order: fine.
  sink.Emit(MakeEvent(TraceEventKind::kAccessSpan, 20));
  std::vector<SimTime> clocks;
  sink.ForEach([&](const TraceEvent& e) { clocks.push_back(e.clock); });
  EXPECT_EQ(clocks, (std::vector<SimTime>{30, 10, 20}));
  EXPECT_EQ(sink.dropped(), 0u);
}

// --- TraceScope ------------------------------------------------------------------------

TEST(TraceScope, FinalizeMergesByClockThenTidStable) {
  TraceScope scope;
  scope.control()->Emit(MakeEvent(TraceEventKind::kInvalidationWave, 100, 1, /*tid=*/2));
  scope.execution()->Emit(MakeEvent(TraceEventKind::kGroupCommit, 100, 3, /*tid=*/1));
  scope.execution()->Emit(MakeEvent(TraceEventKind::kGroupCommit, 50, 2, /*tid=*/1));
  scope.Finalize();
  ASSERT_EQ(scope.merged().size(), 3u);
  EXPECT_EQ(scope.merged()[0].clock, 50u);
  EXPECT_EQ(scope.merged()[1].clock, 100u);
  EXPECT_EQ(scope.merged()[1].tid, 1u);  // (clock, tid) order within the tie.
  EXPECT_EQ(scope.merged()[2].tid, 2u);
  EXPECT_EQ(scope.semantic_events(), 1u);
  EXPECT_EQ(scope.execution_events(), 2u);
}

TEST(TraceScope, SemanticBytesIgnoresExecutionEventsAndMailboxContents) {
  TraceScope a;
  TraceScope b;
  for (const SimTime t : {10u, 20u, 30u}) {
    a.control()->Emit(MakeEvent(TraceEventKind::kAccessSpan, t, t * 7));
    b.control()->Emit(MakeEvent(TraceEventKind::kAccessSpan, t, t * 7));
  }
  // Execution noise lands differently per mode — the witness must not see it.
  a.execution()->Emit(MakeEvent(TraceEventKind::kGroupCommit, 15, 99));
  b.execution()->Emit(MakeEvent(TraceEventKind::kGroupCommit, 25, 42));
  b.control()->Emit(MakeEvent(TraceEventKind::kGroupCommit, 5, 7));  // Filtered by kind.
  EXPECT_EQ(a.SemanticBytes(), b.SemanticBytes());
  EXPECT_EQ(a.SemanticDigest(), b.SemanticDigest());
  EXPECT_NE(a.SemanticBytes(), std::string());
}

TEST(TraceScope, SemanticBytesOrderSensitive) {
  TraceScope a;
  TraceScope b;
  a.control()->Emit(MakeEvent(TraceEventKind::kAccessSpan, 10));
  a.control()->Emit(MakeEvent(TraceEventKind::kFaultTimeout, 20));
  b.control()->Emit(MakeEvent(TraceEventKind::kFaultTimeout, 20));
  b.control()->Emit(MakeEvent(TraceEventKind::kAccessSpan, 10));
  EXPECT_NE(a.SemanticBytes(), b.SemanticBytes());  // Emission order IS the witness.
}

TEST(TraceScope, ChromeJsonSkeletonValid) {
  TraceScope scope;
  TraceEvent span = MakeEvent(TraceEventKind::kAccessSpan, 1500, 0xdead, 3, 1);
  span.dur = 2500;  // -> "X" with ts=1.500, dur=2.500.
  scope.control()->Emit(span);
  scope.control()->Emit(MakeEvent(TraceEventKind::kDirectorySplit, 3000));  // Instant.
  scope.Finalize();
  std::ostringstream os;
  scope.WriteChromeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"access\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dir-split\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"semanticDigest\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a JSON parser
  // (tools/trace_export.py --validate does the real parse in CI).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// --- Histogram::Summary ----------------------------------------------------------------

TEST(HistogramSummary, MatchesIndividualQueries) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean, h.Mean());
  EXPECT_EQ(s.p50, h.Percentile(0.50));
  EXPECT_EQ(s.p90, h.Percentile(0.90));
  EXPECT_EQ(s.p99, h.Percentile(0.99));
  EXPECT_EQ(s.p999, h.Percentile(0.999));
  EXPECT_EQ(HistogramSummary{}, Histogram{}.Summary());  // Empty histogram: all zeros.
}

// --- MetricsRegistry -------------------------------------------------------------------

TEST(MetricsRegistry, UpsertAndFind) {
  MetricsRegistry reg;
  reg.SetCounter("a/b/ops", 7);
  reg.SetCounter("a/b/ops", 9);  // Last write wins.
  reg.SetGauge("a/b/rate", 1.5);
  ASSERT_NE(reg.Find("a/b/ops"), nullptr);
  EXPECT_EQ(reg.Find("a/b/ops")->counter, 9u);
  EXPECT_DOUBLE_EQ(reg.Find("a/b/rate")->gauge, 1.5);
  EXPECT_EQ(reg.Find("missing"), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, SampleSeriesIsBoundedAndScalarOnly) {
  MetricsRegistry reg;
  reg.SetCounter("x", 1);
  Histogram h;
  h.Record(10);
  reg.SetSummary("lat", h.Summary());
  for (size_t i = 0; i < MetricsRegistry::kMaxSamples + 5; ++i) {
    reg.SetCounter("x", i);
    reg.Sample(static_cast<SimTime>(i));
  }
  EXPECT_EQ(reg.series().size(), MetricsRegistry::kMaxSamples);
  EXPECT_EQ(reg.samples_skipped(), 5u);
  const auto& p0 = reg.series().front();
  ASSERT_EQ(p0.values.size(), 1u);  // The summary is not part of the series.
  EXPECT_EQ(p0.values[0].first, "x");
}

TEST(MetricsRegistry, ExportsAreDeterministicallyOrdered) {
  MetricsRegistry reg;
  reg.SetCounter("z/last", 1);
  reg.SetCounter("a/first", 2);
  reg.SetGauge("m/mid", 0.25);
  std::ostringstream text;
  reg.ExportText(text);
  const std::string t = text.str();
  EXPECT_LT(t.find("a/first"), t.find("m/mid"));
  EXPECT_LT(t.find("m/mid"), t.find("z/last"));
  std::ostringstream json;
  reg.ExportJson(json);
  const std::string j = json.str();
  EXPECT_LT(j.find("a/first"), j.find("m/mid"));
  EXPECT_LT(j.find("m/mid"), j.find("z/last"));
  EXPECT_NE(j.find("\"metrics\""), std::string::npos);
  EXPECT_NE(j.find("\"series\""), std::string::npos);
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), std::count(j.begin(), j.end(), '}'));
}

// --- PhaseProfiler ---------------------------------------------------------------------

TEST(PhaseProfiler, LanesAccumulateAndBound) {
  PhaseProfiler prof;
  EXPECT_EQ(prof.num_lanes(), 2u);
  EXPECT_EQ(prof.serial_lane(), 1u);
  const uint64_t start = prof.Begin();
  prof.End(PhaseProfiler::kChannelLane, PhaseProfiler::Phase::kScan, start);
  prof.End(prof.serial_lane(), PhaseProfiler::Phase::kSerialDrain, start);
  EXPECT_EQ(prof.lane(0).count[static_cast<size_t>(PhaseProfiler::Phase::kScan)], 1u);
  EXPECT_EQ(prof.lane(1).count[static_cast<size_t>(PhaseProfiler::Phase::kSerialDrain)],
            1u);
  EXPECT_EQ(prof.lane(0).intervals.size(), 1u);
  EXPECT_EQ(prof.lane(1).intervals.size(), 1u);
}

}  // namespace
}  // namespace mind
