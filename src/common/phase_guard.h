// Dynamic mirror of the MIND_SERIALIZED_PATH / MIND_PARALLEL_PHASE static contract
// (src/common/thread_annotations.h, docs/determinism.md).
//
// The replay engine brackets every parallel phase execution (channel scan/commit) in a
// ParallelPhaseScope. Serialized-only primitives — above
// all Rng draws — assert MIND_ASSERT_SERIALIZED_CONTEXT() at their entry, so a contract
// violation that slips past tools/detlint.py (e.g. a draw behind a function pointer the
// linter cannot follow) still dies loudly in any debug/sanitizer build instead of
// silently breaking bit-identical replay. Release builds (NDEBUG) compile the check out.
#ifndef MIND_SRC_COMMON_PHASE_GUARD_H_
#define MIND_SRC_COMMON_PHASE_GUARD_H_

#include <cassert>

namespace mind {
namespace detail {
inline thread_local bool g_in_parallel_phase = false;
}  // namespace detail

// True while the calling thread is executing inside a parallel phase.
inline bool InParallelPhase() { return detail::g_in_parallel_phase; }

// RAII bracket the phase executor places around parallel-phase work. Nests safely
// (restores the previous value), though phases do not currently nest.
class ParallelPhaseScope {
 public:
  ParallelPhaseScope() : prev_(detail::g_in_parallel_phase) {
    detail::g_in_parallel_phase = true;
  }
  ~ParallelPhaseScope() { detail::g_in_parallel_phase = prev_; }

  ParallelPhaseScope(const ParallelPhaseScope&) = delete;
  ParallelPhaseScope& operator=(const ParallelPhaseScope&) = delete;

 private:
  bool prev_;
};

// Entry assertion for MIND_SERIALIZED_PATH primitives whose misuse would break
// determinism (Rng draws, fault-plane loss decisions).
#define MIND_ASSERT_SERIALIZED_CONTEXT()                      \
  assert(!::mind::InParallelPhase() &&                        \
         "serialized-path primitive called inside a parallel " \
         "phase; see docs/determinism.md")

}  // namespace mind

#endif  // MIND_SRC_COMMON_PHASE_GUARD_H_
