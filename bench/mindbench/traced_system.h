// TracedSystem: a MemorySystem decorator that counts every call the replay engine makes
// into a system during ReplayEngine::Run and times spans around them. One replay's host
// time then splits into the engine's own work (Run minus every system call) and each layer
// it drives: AccessChannel Submit/RunValid/Commit, ChannelGroup ValidMask/CommitMerged,
// OwnerDrainOps Eligible, and per-op Access split by outcome (local hit, fetch without an
// invalidation wave, wave).
//
// Every call is forwarded unchanged, so a decorated replay is bit-identical to an
// undecorated one; mindbench checks that by digest on every run. Channels, groups and
// owner drains handed out by the inner system are wrapped too. ChannelGroup::Add unwraps
// to the inner channel, because the in-tree groups static_cast their members.
//
// Spans are kept in memory as per-kind aggregates, each with the same parent (Run), and
// written out by the caller at exit. The recorder is single-threaded: decorate only
// 1-shard replays. Owner-parallel AccessOwned calls, which run on worker threads, are
// forwarded unrecorded.
//
// Timing cost. A steady_clock pair costs ~20-40 ns, which is as much as a channel-hit
// Access or an Eligible call. So each call site is timed on every call for its first
// kWarmupCalls calls, and afterwards, while its estimated mean span stays below
// kDenseSpanNs, once every kSparseRate calls on average, after random gaps (a host-side
// xorshift draw, independent of the simulation). Each timed span counts for every call of
// the gap it ends, so the totals stay unbiased when a site changes rate. Sampling a
// heavy-tailed site would make its totals swing by the weight of one rare, long call, so
// two kinds of call are always timed instead: Access calls at or past the next
// time-driven serial event (a bounded-splitting epoch or a scheduled fault event, which
// such a call runs first; the decorator sees those times when the engine asks for them),
// and the rare calls of the kMisc site (CollectMetrics, AdvanceTo, opens, ...). The
// clock's own cost is calibrated and subtracted from every timed span, and the cost the
// probes add to the engine's time is calibrated too (Calibrate), so that the engine's
// self time does not count it.
#ifndef MIND_BENCH_MINDBENCH_TRACED_SYSTEM_H_
#define MIND_BENCH_MINDBENCH_TRACED_SYSTEM_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/memory_system.h"

namespace mindbench {

// One aggregated span kind; every span's parent is ReplayEngine::Run.
enum class Span : uint8_t {
  kSubmit,        // AccessChannel::Submit
  kRunValid,      // AccessChannel::RunValid
  kCommit,        // AccessChannel::Commit
  kValidMask,     // ChannelGroup::ValidMask
  kCommitMerged,  // ChannelGroup::CommitMerged
  kEligible,      // OwnerDrainOps::Eligible
  kAccessHit,     // MemorySystem::Access returning a local hit
  kAccessFetch,   // ... a miss without an invalidation wave
  kAccessWave,    // ... a miss that triggered an invalidation wave
  kMisc,          // Every other call made during Run (boundaries, counters, opens, ...)
};
inline constexpr size_t kNumSpans = 10;

inline const char* SpanName(Span s) {
  static constexpr std::array<const char*, kNumSpans> kNames = {
      "submit", "run_valid", "commit",      "valid_mask", "commit_merged",
      "eligible", "access_hit", "access_fetch", "access_wave", "misc"};
  return kNames[static_cast<size_t>(s)];
}

// Call sites that decide independently whether to time a call. The three Access spans
// share one: the outcome is known only after the call returns. kBoundary and kMisc both
// record into Span::kMisc.
enum class Site : uint8_t {
  kSubmit, kRunValid, kCommit, kValidMask, kCommitMerged, kEligible, kAccess,
  kBoundary,  // The engine's frequent, trivial boundary queries: sampled.
  kMisc,      // Rare calls, some of them long: always timed.
};
inline constexpr size_t kNumSites = 9;

class SpanRecorder {
 public:
  // kCount forwards and counts (the audit replay); kSample times as described above;
  // kAlways times every call (calibration, and the rep the sampled totals are checked
  // against).
  enum class Mode : uint8_t { kCount, kSample, kAlways };

  struct Totals {
    uint64_t calls = 0;
    uint64_t timed = 0;
    // Timed span time, clock cost subtracted, each span weighted by the number of calls
    // it stands for: an unbiased estimate of the total.
    double estimated_ns = 0.0;
  };

  // Op-level counts gathered at the same boundaries.
  struct Ops {
    uint64_t accepted = 0;          // Ops Submit accepted onto the channel path.
    uint64_t channel_committed = 0; // Ops applied by AccessChannel::Commit.
    uint64_t group_committed = 0;   // Ops applied by ChannelGroup::CommitMerged.
    uint64_t eligible_true = 0;     // Eligible calls that returned true.
    uint64_t failed = 0;            // Access calls whose status was not OK.
  };

  struct Probe {
    uint64_t start_ns = 0;
    Site site = Site::kMisc;
    uint32_t weight = 0;  // 0: not timed; else the number of calls this one stands for.
    bool always = false;  // Timed outside the site's sampling.
  };

  explicit SpanRecorder(Mode mode, uint64_t clock_cost_ns = 0)
      : mode_(mode), clock_cost_ns_(clock_cost_ns) {}

  // Only calls made while armed (around Run) are recorded.
  void Arm(bool armed) { armed_ = armed; }

  // `always` times the call outside the site's sampling (see the file comment).
  Probe Begin(Site site, bool always = false) {
    Probe p;
    p.site = site;
    if (!armed_ || mode_ == Mode::kCount) {
      return p;
    }
    if (always) {
      p.weight = 1;
      p.always = true;
      p.start_ns = NowNs();
      return p;
    }
    SiteState& s = sites_[static_cast<size_t>(site)];
    if (--s.countdown != 0) {
      return p;
    }
    // This call stands for the `gap` calls since the site's last timed call. Sparse sites
    // draw the next gap uniformly from [1, 2 * kSparseRate - 1].
    p.weight = s.gap;
    s.gap = s.sparse ? 1 + static_cast<uint32_t>(NextRandom() % (2 * kSparseRate - 1)) : 1;
    s.countdown = s.gap;
    if (p.weight > 1) {
      // After a stretch of untimed calls the first clock read runs cold and took ~20-30
      // ns longer than the calibrated cost; a throwaway read warms it.
      (void)NowNs();
      ++warm_up_reads_;
    }
    p.start_ns = NowNs();
    return p;
  }

  void End(const Probe& p, Span span) {
    if (!armed_) {
      return;
    }
    Totals& t = totals_[static_cast<size_t>(span)];
    ++t.calls;
    if (p.weight == 0) {
      return;
    }
    const uint64_t raw = NowNs() - p.start_ns;
    const double ns = static_cast<double>(raw > clock_cost_ns_ ? raw - clock_cost_ns_ : 0);
    ++t.timed;
    t.estimated_ns += ns * p.weight;
    if (p.always) {
      return;
    }
    SiteState& s = sites_[static_cast<size_t>(p.site)];
    ++s.timed;
    s.represented += p.weight;
    s.estimated_ns += ns * p.weight;
    if (mode_ == Mode::kSample && p.site != Site::kMisc && s.timed >= kWarmupCalls) {
      s.sparse = s.estimated_ns < static_cast<double>(kDenseSpanNs * s.represented);
    }
  }

  // Time-driven serial events, as last reported by the system: Access calls at or past
  // the earlier of the two are always timed.
  void NoteSerialBoundary(mind::SimTime t) { serial_boundary_ = t; }
  void NoteFaultEvent(mind::SimTime t) { fault_event_ = t; }
  [[nodiscard]] bool AtSerialEvent(mind::SimTime now) const {
    return now >= std::min(serial_boundary_, fault_event_);
  }

  [[nodiscard]] const Totals& totals(Span s) const { return totals_[static_cast<size_t>(s)]; }

  // Estimated total ns of a span kind. A kind that was called but never sampled (a rare
  // outcome) borrows its call site's mean.
  [[nodiscard]] double EstimatedNs(Span span) const {
    const Totals& t = totals(span);
    if (t.timed > 0 || t.calls == 0) {
      return t.estimated_ns;
    }
    const SiteState& s = sites_[static_cast<size_t>(SiteOf(span))];
    return s.represented == 0 ? 0.0
                              : static_cast<double>(t.calls) * s.estimated_ns /
                                    static_cast<double>(s.represented);
  }

  // Calls recorded and calls timed across every span kind.
  [[nodiscard]] uint64_t calls() const {
    uint64_t n = 0;
    for (const Totals& t : totals_) n += t.calls;
    return n;
  }
  [[nodiscard]] uint64_t timed() const {
    uint64_t n = 0;
    for (const Totals& t : totals_) n += t.timed;
    return n;
  }
  [[nodiscard]] uint64_t warm_up_reads() const { return warm_up_reads_; }

  Ops ops;

  static uint64_t NowNs() {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now().time_since_epoch())
                                     .count());
  }

  static constexpr uint64_t kWarmupCalls = 64;
  static constexpr uint64_t kDenseSpanNs = 2000;
  static constexpr uint32_t kSparseRate = 64;

 private:
  struct SiteState {
    uint32_t countdown = 1;  // Calls until the next timed one.
    uint32_t gap = 1;        // Length of the current gap between timed calls.
    bool sparse = false;
    uint64_t timed = 0;
    uint64_t represented = 0;  // Calls the timed ones stand for (sum of their gaps).
    double estimated_ns = 0.0;
  };

  static Site SiteOf(Span s) {
    switch (s) {
      case Span::kSubmit: return Site::kSubmit;
      case Span::kRunValid: return Site::kRunValid;
      case Span::kCommit: return Site::kCommit;
      case Span::kValidMask: return Site::kValidMask;
      case Span::kCommitMerged: return Site::kCommitMerged;
      case Span::kEligible: return Site::kEligible;
      case Span::kAccessHit:
      case Span::kAccessFetch:
      case Span::kAccessWave: return Site::kAccess;
      case Span::kMisc: return Site::kBoundary;
    }
    return Site::kMisc;
  }

  uint64_t NextRandom() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  Mode mode_;
  uint64_t clock_cost_ns_;
  bool armed_ = false;
  uint64_t warm_up_reads_ = 0;
  mind::SimTime serial_boundary_ = mind::FaultPlane::kNever;
  mind::SimTime fault_event_ = mind::FaultPlane::kNever;
  uint64_t rng_ = 0x2545f4914f6cdd1dull;
  std::array<Totals, kNumSpans> totals_{};
  std::array<SiteState, kNumSites> sites_{};
};

// RAII span around one forwarded call.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, Site site, Span span)
      : rec_(rec), probe_(rec->Begin(site)), span_(span) {}
  ~SpanScope() { rec_->End(probe_, span_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  SpanRecorder::Probe probe_;
  Span span_;
};

class TracedChannel final : public mind::AccessChannel {
 public:
  TracedChannel(std::unique_ptr<mind::AccessChannel> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  [[nodiscard]] mind::AccessChannel* inner() const { return inner_.get(); }

  MIND_PARALLEL_PHASE mind::SubmitResult Submit(const mind::LocalOp* ops, size_t n,
                                                mind::SimTime clock, mind::SimTime think,
                                                mind::Completion* completions) override {
    mind::SubmitResult r;
    {
      SpanScope span(rec_, Site::kSubmit, Span::kSubmit);
      r = inner_->Submit(ops, n, clock, think, completions);
    }
    rec_->ops.accepted += r.accepted;
    return r;
  }

  MIND_PARALLEL_PHASE [[nodiscard]] bool RunValid() const override {
    SpanScope span(rec_, Site::kRunValid, Span::kRunValid);
    return inner_->RunValid();
  }

  MIND_PARALLEL_PHASE void Commit(mind::Completion* completions, size_t n,
                                  mind::SimTime clock) override {
    {
      SpanScope span(rec_, Site::kCommit, Span::kCommit);
      inner_->Commit(completions, n, clock);
    }
    rec_->ops.channel_committed += n;
  }

 private:
  std::unique_ptr<mind::AccessChannel> inner_;
  SpanRecorder* rec_;
};

class TracedGroup final : public mind::ChannelGroup {
 public:
  TracedGroup(std::unique_ptr<mind::ChannelGroup> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  size_t Add(mind::AccessChannel* channel) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    // Every channel the engine registers came from TracedSystem::OpenChannel.
    return inner_->Add(static_cast<TracedChannel*>(channel)->inner());
  }

  MIND_PARALLEL_PHASE [[nodiscard]] uint64_t ValidMask() const override {
    SpanScope span(rec_, Site::kValidMask, Span::kValidMask);
    return inner_->ValidMask();
  }

  MIND_PARALLEL_PHASE uint64_t CommitMerged(mind::GroupLane* lanes, size_t n,
                                            mind::SimTime horizon, mind::SimTime think,
                                            mind::Histogram& hist) override {
    uint64_t committed = 0;
    {
      SpanScope span(rec_, Site::kCommitMerged, Span::kCommitMerged);
      committed = inner_->CommitMerged(lanes, n, horizon, think, hist);
    }
    rec_->ops.group_committed += committed;
    return committed;
  }

 private:
  std::unique_ptr<mind::ChannelGroup> inner_;
  SpanRecorder* rec_;
};

class TracedOwnerDrain final : public mind::OwnerDrainOps {
 public:
  TracedOwnerDrain(std::unique_ptr<mind::OwnerDrainOps> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  MIND_PARALLEL_PHASE [[nodiscard]] bool Eligible(mind::ThreadId tid,
                                                  mind::ComputeBladeId blade,
                                                  mind::VirtAddr va, mind::AccessType type,
                                                  mind::SimTime now) const override {
    bool eligible = false;
    {
      SpanScope span(rec_, Site::kEligible, Span::kEligible);
      eligible = inner_->Eligible(tid, blade, va, type, now);
    }
    rec_->ops.eligible_true += eligible ? 1 : 0;
    return eligible;
  }
  MIND_SERIALIZED_PATH [[nodiscard]] mind::SimTime MinEligibleCost() const override {
    SpanScope span(rec_, Site::kBoundary, Span::kMisc);
    return inner_->MinEligibleCost();
  }
  MIND_SERIALIZED_PATH [[nodiscard]] mind::SimTime NextSerialBoundary() const override {
    mind::SimTime t = 0;
    {
      SpanScope span(rec_, Site::kBoundary, Span::kMisc);
      t = inner_->NextSerialBoundary();
    }
    rec_->NoteSerialBoundary(t);
    return t;
  }
  // Runs on worker threads of multi-shard replays, which the recorder does not support.
  MIND_PARALLEL_PHASE mind::AccessResult AccessOwned(int shard, mind::ThreadId tid,
                                                     mind::ComputeBladeId blade,
                                                     mind::VirtAddr va, mind::AccessType type,
                                                     mind::SimTime now) override {
    return inner_->AccessOwned(shard, tid, blade, va, type, now);
  }
  MIND_SERIALIZED_PATH void Fold() override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    inner_->Fold();
  }

 private:
  std::unique_ptr<mind::OwnerDrainOps> inner_;
  SpanRecorder* rec_;
};

class TracedSystem final : public mind::MemorySystem {
 public:
  TracedSystem(std::unique_ptr<mind::MemorySystem> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  [[nodiscard]] std::string name() const override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    return inner_->name();
  }
  [[nodiscard]] int num_compute_blades() const override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    return inner_->num_compute_blades();
  }
  mind::Result<mind::VirtAddr> Alloc(uint64_t size) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    return inner_->Alloc(size);
  }
  mind::Result<mind::ThreadId> RegisterThread(mind::ComputeBladeId blade) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    return inner_->RegisterThread(blade);
  }

  MIND_SERIALIZED_PATH mind::AccessResult Access(mind::ThreadId tid,
                                                 mind::ComputeBladeId blade,
                                                 mind::VirtAddr va, mind::AccessType type,
                                                 mind::SimTime now) override {
    const SpanRecorder::Probe probe = rec_->Begin(Site::kAccess, rec_->AtSerialEvent(now));
    mind::AccessResult r = inner_->Access(tid, blade, va, type, now);
    rec_->End(probe, r.triggered_invalidation ? Span::kAccessWave
                     : r.local_hit            ? Span::kAccessHit
                                              : Span::kAccessFetch);
    rec_->ops.failed += r.status.ok() ? 0 : 1;
    return r;
  }

  [[nodiscard]] mind::SystemCounters counters() const override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    return inner_->counters();
  }
  [[nodiscard]] mind::FaultCounters fault_counters() const override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    return inner_->fault_counters();
  }
  [[nodiscard]] mind::SimTime NextScheduledFaultAt() const override {
    mind::SimTime t = 0;
    {
      SpanScope span(rec_, Site::kBoundary, Span::kMisc);
      t = inner_->NextScheduledFaultAt();
    }
    rec_->NoteFaultEvent(t);
    return t;
  }

  std::unique_ptr<mind::AccessChannel> OpenChannel(mind::ThreadId tid,
                                                   mind::ComputeBladeId blade) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    auto inner = inner_->OpenChannel(tid, blade);
    return inner == nullptr ? nullptr
                            : std::make_unique<TracedChannel>(std::move(inner), rec_);
  }
  std::unique_ptr<mind::ChannelGroup> OpenChannelGroup(mind::ComputeBladeId blade) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    auto inner = inner_->OpenChannelGroup(blade);
    return inner == nullptr ? nullptr : std::make_unique<TracedGroup>(std::move(inner), rec_);
  }
  std::unique_ptr<mind::OwnerDrainOps> OpenOwnerDrain(int num_shards) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    auto inner = inner_->OpenOwnerDrain(num_shards);
    return inner == nullptr ? nullptr
                            : std::make_unique<TracedOwnerDrain>(std::move(inner), rec_);
  }

  MIND_SERIALIZED_PATH void AdvanceTo(mind::SimTime now) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    inner_->AdvanceTo(now);
  }
  bool SetPrefetchPolicy(mind::PrefetchPolicy policy) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    return inner_->SetPrefetchPolicy(policy);
  }
  mind::PrefetchStats prefetch_stats() override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    return inner_->prefetch_stats();
  }
  bool SetTraceSink(mind::TraceSink* sink) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    return inner_->SetTraceSink(sink);
  }
  void CollectMetrics(mind::MetricsRegistry* reg, const std::string& prefix) override {
    SpanScope span(rec_, Site::kMisc, Span::kMisc);
    inner_->CollectMetrics(reg, prefix);
  }

 private:
  std::unique_ptr<mind::MemorySystem> inner_;
  SpanRecorder* rec_;
};

// Host-clock costs the recorder needs, measured once per process.
struct Calibration {
  uint64_t clock_ns = 0;      // One steady_clock read, as seen inside a timed span.
  double forward_ns = 0.0;    // Added to the engine per forwarded, untimed call.
  double probe_ns = 0.0;      // Added to the engine per timed call, beyond clock_ns.
};

namespace detail {

// A do-nothing channel the calibration loops call through the decorator.
class NullChannel final : public mind::AccessChannel {
 public:
  MIND_PARALLEL_PHASE mind::SubmitResult Submit(const mind::LocalOp*, size_t, mind::SimTime,
                                                mind::SimTime, mind::Completion*) override {
    return {};
  }
  MIND_PARALLEL_PHASE [[nodiscard]] bool RunValid() const override { return true; }
  MIND_PARALLEL_PHASE void Commit(mind::Completion*, size_t, mind::SimTime) override {}
};

// Hides the dynamic type from the optimizer so each call stays a virtual call.
inline mind::AccessChannel* Opaque(mind::AccessChannel* p) {
  asm volatile("" : "+r"(p));
  return p;
}

// Median ns per call of `calls` RunValid calls through `ch`, over several batches.
inline double NsPerCall(mind::AccessChannel* ch, int calls) {
  std::vector<double> batches;
  uint64_t sink = 0;
  for (int b = 0; b < 9; ++b) {
    const uint64_t t0 = SpanRecorder::NowNs();
    for (int i = 0; i < calls; ++i) {
      sink += Opaque(ch)->RunValid() ? 1 : 0;
    }
    batches.push_back(static_cast<double>(SpanRecorder::NowNs() - t0) / calls);
  }
  asm volatile("" : : "r"(sink));
  std::nth_element(batches.begin(), batches.begin() + 4, batches.end());
  return batches[4];
}

}  // namespace detail

inline Calibration Calibrate() {
  Calibration c;
  std::vector<uint64_t> pairs(1 << 15);
  for (uint64_t& d : pairs) {
    const uint64_t t0 = SpanRecorder::NowNs();
    d = SpanRecorder::NowNs() - t0;
  }
  std::nth_element(pairs.begin(), pairs.begin() + pairs.size() / 2, pairs.end());
  c.clock_ns = pairs[pairs.size() / 2];

  constexpr int kCalls = 200'000;
  detail::NullChannel direct;
  SpanRecorder counting(SpanRecorder::Mode::kCount);
  SpanRecorder timing(SpanRecorder::Mode::kAlways, c.clock_ns);
  counting.Arm(true);
  timing.Arm(true);
  TracedChannel counted(std::make_unique<detail::NullChannel>(), &counting);
  TracedChannel timed(std::make_unique<detail::NullChannel>(), &timing);
  const double d = detail::NsPerCall(&direct, kCalls);
  const double f = detail::NsPerCall(&counted, kCalls);
  const double t = detail::NsPerCall(&timed, kCalls);
  c.forward_ns = std::max(0.0, f - d);
  c.probe_ns = std::max(0.0, t - f - static_cast<double>(c.clock_ns));
  return c;
}

}  // namespace mindbench

#endif  // MIND_BENCH_MINDBENCH_TRACED_SYSTEM_H_
