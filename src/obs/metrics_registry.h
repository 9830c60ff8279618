// MetricsRegistry: one hierarchical named-metric tree over every counter block
// in the repo (SystemCounters, FaultCounters, PrefetchStats, RackStats,
// bounded-splitting stats, replay-report fields), with epoch-boundary
// time-series snapshots and a single JSON/text exporter.
//
// Names are '/'-separated paths ("mind/counters/local_hits",
// "replay/latency/p99"). Storage is a std::map so iteration — and therefore
// every export — is in deterministic lexicographic order (the determinism
// contract bans ordering results by unordered-container iteration).
//
// Determinism: the registry itself is passive storage. When the replay engine
// samples it on the serialized drain path, the sampled values are functions of
// the serialized op stream only, so the time series is identical with tracing
// or profiling on or off. The registry is never read or written from parallel
// phases.
#ifndef MIND_SRC_OBS_METRICS_REGISTRY_H_
#define MIND_SRC_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"

namespace mind {

class MetricsRegistry {
 public:
  enum class Kind : uint8_t { kCounter, kGauge, kSummary };

  struct Entry {
    Kind kind = Kind::kCounter;
    uint64_t counter = 0;
    double gauge = 0.0;
    HistogramSummary summary;
  };

  // Upserts by name; the last write wins, so collectors can refresh in place.
  void SetCounter(std::string_view name, uint64_t v);
  void SetGauge(std::string_view name, double v);
  void SetSummary(std::string_view name, const HistogramSummary& s);

  [[nodiscard]] const Entry* Find(std::string_view name) const;
  [[nodiscard]] size_t size() const { return entries_.size(); }
  void Clear();

  // Appends one time-series point capturing every scalar entry (counters and
  // gauges; summaries are skipped — they are end-of-run artifacts). Bounded:
  // past kMaxSamples the point is counted as skipped rather than stored, so a
  // long run cannot grow memory without bound.
  static constexpr size_t kMaxSamples = 512;
  void Sample(SimTime now);
  struct SeriesPoint {
    SimTime at = 0;
    std::vector<std::pair<std::string, double>> values;  // Sorted by name.
  };
  [[nodiscard]] const std::vector<SeriesPoint>& series() const { return series_; }
  [[nodiscard]] uint64_t samples_skipped() const { return samples_skipped_; }

  // Exporters. Text is aligned "name value" lines (plus summary expansions);
  // JSON is {"metrics": {...}, "series": [...]}. Both iterate the map, so the
  // output order is deterministic and identical between the two.
  void ExportText(std::ostream& os) const;
  void ExportJson(std::ostream& os) const;

 private:
  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<SeriesPoint> series_;
  uint64_t samples_skipped_ = 0;
};

}  // namespace mind

#endif  // MIND_SRC_OBS_METRICS_REGISTRY_H_
