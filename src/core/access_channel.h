// AccessChannel: the batched submit/complete data-plane contract of the replay emulator.
//
// MIND's switch processes memory traffic as batched packet streams, not one call at a time
// (§4, §5); the emulator's system boundary mirrors that. A channel is a per-(thread, blade)
// submission object handed out by a MemorySystem; a ChannelGroup (below) spans a blade's
// channels. There is one validate/commit path: the replay engine streams runs of resolved
// ops into each thread's channel, then validates and commits them per blade through the
// blade's group. The split is classify/commit:
//
//   * Submit CLASSIFIES: it walks the run and accepts the longest leading prefix in which
//     every op completes entirely within the channel's blade — a local cache hit whose
//     outcome depends on nothing another blade can change — WITHOUT mutating any state.
//     Each accepted op gets a Completion (typed CommitToken, plus its latency when Submit
//     can know it); the op that stops the run (fault, upgrade, permission miss) is NOT
//     consumed and must be replayed through MemorySystem::Access on the serialized drain.
//   * ChannelGroup::CommitMerged APPLIES: LRU recency, dirty bits, per-blade
//     service-resource occupancy — everything a serial Access would have mutated for
//     those hits — and finalizes every latency Submit could only bound.
//
// Validity is tracked at 2 MB cache-region granularity: Submit records a version stamp for
// every region the accepted run depends on, and ChannelGroup::ValidMask re-checks only
// those stamps. A coherence event that invalidates pages of a *shared* region therefore
// does not kill a peeked run over *private* regions of the same blade, which keeps
// coherence-dense traces from collapsing onto the serialized drain.
//
// Phase discipline (docs/determinism.md): the engine calls Submit/ValidMask/CommitMerged
// ahead of global order, in channel rounds between serialized drains.
//   * A group commit may only touch state of the group's blade and its member threads,
//     so commits of different blades within one round commute with each other and with
//     the round's position relative to other blades' coherence events below the horizon.
//   * Neither Submit nor a group call may bump the system's SystemCounters: the engine
//     accounts committed channel ops itself (total_accesses + local_hits), and the merged
//     report adds them to the system's serialized-phase counter delta.
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
  // Thread-visible latency: written by Submit when it is exact at classification time
  // (and the run is not uniform), otherwise by CommitMerged once the merged per-blade
  // stream fixes it.
  SimTime latency = 0;
  CommitToken token;
};

// Per-run summary returned by Submit.
struct SubmitResult {
  // Length of the accepted leading all-local prefix (0 = the very next op needs the drain).
  size_t accepted = 0;
  // Clock after op accepted-1, advancing by latency + think per op: exact, or a lower
  // bound when latencies depend on blade state that evolves as same-blade ops commit
  // (GAM's per-blade library lock). Either is safe as an epoch-barrier horizon.
  SimTime end_clock = 0;
  // Nonzero: every accepted op has exactly this latency, so the group commit accounts the
  // run in O(1) (histogram RecordN). Zero: per-op latencies, final after CommitMerged.
  SimTime uniform_latency = 0;
};

class Histogram;

class AccessChannel {
 public:
  virtual ~AccessChannel() = default;

  // Classifies a run of `n` consecutive ops for this channel's thread starting at `clock`
  // with `think` time between ops. Fills completions[0..accepted): tokens always; latency
  // fields MAY be left unwritten for a uniform run (the reported uniform value applies to
  // every op) and whenever Submit can only bound them (the group commit writes the exact
  // values). Mutates nothing outside the channel's own bookkeeping; records the region
  // stamps ChannelGroup::ValidMask checks.
  MIND_PARALLEL_PHASE virtual SubmitResult Submit(const LocalOp* ops, size_t n, SimTime clock,
                                                  SimTime think, Completion* completions) = 0;

  // Per-thread validation and commit. The engine never calls either: runs validate
  // through ChannelGroup::ValidMask and commit through ChannelGroup::CommitMerged. They
  // stay declared so that existing decorators which forward them keep compiling; the
  // defaults report the run invalid and apply nothing.
  MIND_PARALLEL_PHASE [[nodiscard]] virtual bool RunValid() const { return false; }
  MIND_PARALLEL_PHASE virtual void Commit(Completion* /*completions*/, size_t /*n*/,
                                          SimTime /*clock*/) {}
};

// --- Per-blade channel groups -----------------------------------------------
//
// MIND's fabric sees the *merged* per-blade access stream, not per-thread slices (§4, §5);
// ChannelGroup is the aggregation layer that restores that view to the commit path. One
// group spans every channel of one blade — one member or many. Each
// round the engine still Submits per thread (classification of a thread's run is
// thread-local by construction), but validation and commit happen per *blade*:
//
//   * ValidMask re-checks every member's submitted run in one pass — the blade-global
//     epochs (e.g. the protection-table version) are compared once per blade instead of
//     once per thread, then each member's region stamps against the one cache.
//   * CommitMerged merges the members' uncommitted runs into a single (clock, thread)
//     ordered stream and commits its horizon-eligible prefix as one batch: one virtual
//     call per blade per round instead of one per op. Latencies that per-thread Submit
//     could only lower-bound (GAM's per-blade library lock) are finalized exactly here, in
//     the same single pass — the group replays the lock queue over the merged stream and
//     advances the blade's FIFO resource once per batch.
//
// The same phase discipline as AccessChannel applies: a group call may only touch state
// owned by its blade plus member-thread-private state, and never bumps SystemCounters
// (the engine accounts committed ops itself). Groups support up to kMaxGroupLanes
// members; the threads of a blade with more channels (or of a blade the system hands no
// group for) ride the serialized drain.

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
