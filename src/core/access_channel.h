// AccessChannel: the batched submit/complete data-plane contract of the replay emulator.
//
// MIND's switch processes memory traffic as batched packet streams, not one call at a time
// (§4, §5); the emulator's system boundary mirrors that. A channel is a per-(thread, blade)
// submission object handed out by a MemorySystem: the replay engine streams runs of resolved
// ops into Submit, receives typed Completion records for the leading blade-local prefix, and
// later applies their side effects with Commit. The split is classify/commit:
//
//   * Submit CLASSIFIES: it walks the run and accepts the longest leading prefix in which
//     every op completes entirely within the channel's blade — a local cache hit whose
//     outcome depends on nothing another blade can change — WITHOUT mutating any state.
//     Each accepted op gets a Completion (latency + typed CommitToken); the op that stops
//     the run (fault, upgrade, permission miss) is NOT consumed and must be replayed through
//     MemorySystem::Access on the serialized drain.
//   * Commit APPLIES: LRU recency, dirty bits, per-blade service-resource occupancy —
//     everything a serial Access would have mutated for those hits. It may only touch state
//     owned by the channel's blade plus thread-private state of the channel's thread.
//
// Validity is tracked at 2 MB cache-region granularity: Submit records a version stamp for
// every region the accepted run depends on, and RunValid() re-checks only those stamps. A
// coherence event that invalidates pages of a *shared* region therefore does not kill a
// peeked run over *private* regions of the same blade — the fix for the coherence-dense
// sharded-replay regression (see ROADMAP "finer sharded-replay invalidation").
//
// Phase discipline (docs/determinism.md): the engine calls Submit/RunValid/Commit ahead
// of global order, in channel rounds between serialized drains.
//   * Commit may only touch state of the channel's blade and thread, so commits of
//     different blades within one round commute with each other and with the round's
//     position relative to other blades' coherence events below the horizon.
//   * Neither Submit nor Commit may bump the system's SystemCounters: the engine accounts
//     committed channel ops itself (total_accesses + local_hits), and the merged report
//     adds them to the system's serialized-phase counter delta.
#ifndef MIND_SRC_CORE_ACCESS_CHANNEL_H_
#define MIND_SRC_CORE_ACCESS_CHANNEL_H_

#include <cstddef>
#include <cstdint>

#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/core/access.h"

namespace mind {

// Opaque-but-typed commit handle for one classified op. The payload is system-defined (the
// in-tree systems store a tagged DramCache frame pointer: bit 0 = write); the engine only
// stores and returns it. Replaces the former `void** hints` raw-pointer plumbing.
struct CommitToken {
  uint64_t bits = 0;
};

// One accepted op of a submitted run.
struct Completion {
  // Thread-visible latency. Final when the run's SubmitResult says latency_final;
  // otherwise a lower bound that Commit rewrites in place.
  SimTime latency = 0;
  CommitToken token;
};

// Per-run summary returned by Submit.
struct SubmitResult {
  // Length of the accepted leading all-local prefix (0 = the very next op needs the drain).
  size_t accepted = 0;
  // Clock after op accepted-1, advancing by latency + think per op. Exact when
  // latency_final; otherwise a lower bound (safe as an epoch-barrier horizon).
  SimTime end_clock = 0;
  // Nonzero: every accepted op has exactly this latency, so the caller may account the run
  // in O(1) (histogram RecordN + pure horizon arithmetic). Zero: consult per-op latencies.
  // A nonzero uniform latency implies latency_final.
  SimTime uniform_latency = 0;
  // True: completion latencies (and end_clock) are exact as submitted, and Commit may be
  // called with any prefix length. False: latencies depend on blade state that evolves as
  // same-blade ops commit (e.g. GAM's per-blade library lock under multi-thread
  // contention); the caller must commit op by op, passing each op's start clock, and read
  // the finalized latency back from the Completion.
  bool latency_final = true;
};

class Histogram;

class AccessChannel {
 public:
  virtual ~AccessChannel() = default;

  // Classifies a run of `n` consecutive ops for this channel's thread starting at `clock`
  // with `think` time between ops. Fills completions[0..accepted): tokens always; latency
  // fields always written for a latency_final run that is not reported uniform, but MAY
  // be left unwritten for a uniform run (the reported uniform value applies to every op,
  // which is what lets callers account such runs in O(1)) and for a non-latency_final
  // run (they would only be lower bounds; the commit pass — per-op Commit or a group
  // merge — writes the exact values). Mutates nothing outside the channel's own
  // bookkeeping; records the region stamps RunValid() checks.
  MIND_PARALLEL_PHASE virtual SubmitResult Submit(const LocalOp* ops, size_t n, SimTime clock,
                                                  SimTime think, Completion* completions) = 0;

  // True while every piece of state the last Submit's classification depends on is
  // unchanged — checked via the per-2MB-region state versions stamped at Submit (plus any
  // blade-global epochs such as the protection-table version). While true, the accepted
  // run may keep committing across rounds; once false, the remainder must be resubmitted.
  MIND_PARALLEL_PHASE [[nodiscard]] virtual bool RunValid() const = 0;

  // Applies the side effects of the first `n` completions of the last submitted run (or of
  // its next uncommitted ops, when committing a run in pieces — the channel is positionless:
  // `completions` points at the piece, `clock` is the start clock of its first op). For
  // latency_final runs the recorded latencies are authoritative; otherwise n must be 1 and
  // completions[0].latency is rewritten with the exact value.
  MIND_PARALLEL_PHASE virtual void Commit(Completion* completions, size_t n,
                                          SimTime clock) = 0;
};

// --- Per-blade channel groups -----------------------------------------------
//
// MIND's fabric sees the *merged* per-blade access stream, not per-thread slices (§4, §5);
// ChannelGroup is the aggregation layer that restores that view to the commit path. One
// group spans every same-blade channel a replay shard owns. Each round the engine still
// Submits per thread (classification of a thread's run is thread-local by construction),
// but validation and commit happen per *blade*:
//
//   * ValidMask re-checks every member's submitted run in one pass — the blade-global
//     epochs (e.g. the protection-table version) are compared once per blade instead of
//     once per thread, then each member's region stamps against the one cache.
//   * CommitMerged merges the members' uncommitted runs into a single (clock, thread)
//     ordered stream and commits its horizon-eligible prefix as one batch: one virtual
//     call per blade per round instead of one per op. Latencies that per-thread Submit
//     could only lower-bound (GAM's per-blade library lock under intra-blade contention)
//     are finalized exactly here, in the same single pass — the group replays the lock
//     queue over the merged stream and advances the blade's FIFO resource once per batch,
//     so grouped ops report exact latencies instead of op-at-a-time commit-finalization.
//
// The same phase discipline as AccessChannel applies: a group call may only touch state
// owned by its blade plus member-thread-private state, and never bumps SystemCounters
// (the engine accounts committed ops itself). Groups support up to kMaxGroupLanes
// members; the engine falls back to per-thread commits beyond that.

// One member thread's slice of a group commit round. The engine fills the top block from
// the member's submitted-run state; CommitMerged writes the bottom block back.
struct GroupLane {
  // Engine-filled:
  size_t member = 0;            // Member slot from ChannelGroup::Add.
  size_t thread_index = 0;      // Global thread index: the (clock, thread) merge tie-break.
  SimTime clock = 0;            // Thread frontier at the first uncommitted op.
  SimTime uniform_latency = 0;  // From the member's SubmitResult (0: per-op latencies).
  Completion* comps = nullptr;  // Uncommitted slice of the member's submitted run.
  size_t count = 0;             // Ops available in the slice.
  // Written by CommitMerged:
  size_t committed = 0;         // Leading ops committed (start clock strictly below horizon).
  SimTime end_clock = 0;        // Thread frontier after the committed prefix.
  SimTime last_start = 0;       // Start clock of the lane's last committed op.
  uint64_t latency_sum = 0;     // Sum of finalized latencies over the committed prefix.
};

class ChannelGroup {
 public:
  static constexpr size_t kMaxGroupLanes = 64;  // ValidMask is one word.

  virtual ~ChannelGroup() = default;

  // Registers a member channel (must belong to this group's blade and have been handed
  // out by the same system). Returns the member slot used by GroupLane::member and
  // ValidMask. Members are registered once, before the first round.
  virtual size_t Add(AccessChannel* channel) = 0;

  // One validity pass for the whole blade: blade-global epochs checked once, then every
  // member's last-submitted region stamps. Bit m of the result = member m's run is still
  // valid. The bit of a member that never submitted is unspecified; the engine's own run
  // bookkeeping gates actual reuse.
  MIND_PARALLEL_PHASE [[nodiscard]] virtual uint64_t ValidMask() const = 0;

  // Merges the lanes' uncommitted runs in (clock, thread_index) order and commits every
  // op whose start clock lies strictly below `horizon` as one batch: per-op side effects
  // (LRU recency, dirty bits, prefetched-touch classification) apply in exactly the order
  // serial per-op replay would produce, and latencies are finalized against live blade
  // state where Submit could only bound them. Latency accounting goes straight into
  // `hist` — uniform lanes in O(1) via Histogram::RecordN, per-op otherwise — and the
  // per-lane outcome scatters back into `lanes`. Returns total ops committed.
  MIND_PARALLEL_PHASE virtual uint64_t CommitMerged(GroupLane* lanes, size_t n,
                                                    SimTime horizon, SimTime think,
                                                    Histogram& hist) = 0;
};

}  // namespace mind

#endif  // MIND_SRC_CORE_ACCESS_CHANNEL_H_
