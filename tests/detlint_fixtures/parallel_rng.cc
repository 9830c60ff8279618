// detlint-expect: parallel-rng
// A parallel-phase root drawing from the seeded Rng directly: the draw sequence
// would then depend on where the round horizon fell, breaking bit-identical replay.
#include <cstdint>

#define MIND_PARALLEL_PHASE
#define MIND_SERIALIZED_PATH

namespace mind {

class Rng {
 public:
  MIND_SERIALIZED_PATH bool NextBool(double p);
  MIND_SERIALIZED_PATH uint64_t Next();
};

class Channel {
 public:
  MIND_PARALLEL_PHASE void CommitPhase() {
    if (rng_.NextBool(0.5)) {  // BAD: RNG draw inside a parallel phase.
      ++committed_;
    }
  }

 private:
  Rng rng_;
  uint64_t committed_ = 0;
};

}  // namespace mind
