// detlint-expect: clean
// The compliant shape of everything the other fixtures get wrong: draws on the
// serialized path only, parallel counters in per-lane scratch folded on the
// serialized path, justified allow/mailbox markers, sorted unordered iteration,
// and tagged contract overrides.
#include <cstdint>
#include <unordered_map>
#include <vector>

#define MIND_PARALLEL_PHASE
#define MIND_SERIALIZED_PATH

// detlint: mailbox(stats_)  -- per-engine scratch, folded on the serialized path.

namespace mind {

using SimTime = uint64_t;

class Rng {
 public:
  MIND_SERIALIZED_PATH uint64_t NextBelow(uint64_t bound);
};

struct Scratch {
  uint64_t hits = 0;
};

struct EngineStats {
  uint64_t useful = 0;
};

class System {
 public:
  // Serialized reference path: draws are fine here.
  MIND_SERIALIZED_PATH void DrainOne() { victim_ = rng_.NextBelow(64); }

  // Parallel phase: counters go to the lane's scratch mailbox...
  MIND_PARALLEL_PHASE void CommitRun(Scratch& scratch, uint64_t n) {
    scratch.hits += n;
    ++stats_.useful;  // ...and stats_ is a declared per-engine mailbox.
  }

  // ...and Fold merges them on the serialized path.
  MIND_SERIALIZED_PATH void Fold(const Scratch& scratch) {
    total_hits_ += scratch.hits;
  }

  std::vector<uint64_t> SortedRegions() const {
    std::vector<uint64_t> out;
    // detlint: allow(unordered-iteration): collected then sorted below.
    for (const auto& [region, count] : regions_) {
      out.push_back(region);
    }
    SortAscending(out);
    return out;
  }

 private:
  static void SortAscending(std::vector<uint64_t>& v);

  Rng rng_;
  EngineStats stats_;
  uint64_t victim_ = 0;
  uint64_t total_hits_ = 0;
  std::unordered_map<uint64_t, uint64_t> regions_;
};

}  // namespace mind
