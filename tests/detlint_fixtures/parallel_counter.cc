// detlint-expect: parallel-counter
// A parallel phase bumping the system-global counter block instead of writing
// per-lane scratch: totals would depend on where the round horizon fell.
#include <cstdint>

#define MIND_PARALLEL_PHASE

namespace mind {

struct SystemCounters {
  uint64_t total_accesses = 0;
  uint64_t local_hits = 0;
};

class System {
 public:
  MIND_PARALLEL_PHASE void CommitRun(uint64_t n) {
    counters_.total_accesses += n;  // BAD: global counters, no Fold barrier.
    ++counters_.local_hits;         // BAD: same.
  }

 private:
  SystemCounters counters_;
};

}  // namespace mind
