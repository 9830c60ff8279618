// detlint-expect: parallel-serialized-call
// A parallel phase calling onto a serialized-path function (a drain-only
// mutation entry point) without an allow marker stating the confinement
// argument.
#include <cstdint>

#define MIND_PARALLEL_PHASE
#define MIND_SERIALIZED_PATH

namespace mind {

class Directory {
 public:
  MIND_SERIALIZED_PATH void ApplyInvalidation(uint64_t region);
};

class Channel {
 public:
  MIND_PARALLEL_PHASE void OwnerPhase(uint64_t region) {
    directory_.ApplyInvalidation(region);  // BAD: serialized-path callee.
  }

 private:
  Directory directory_;
};

}  // namespace mind
