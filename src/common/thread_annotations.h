// Determinism phase tags — the vocabulary of the contract that docs/determinism.md
// states in prose and tools/detlint.py enforces mechanically. They mark which side of
// the replay engine's determinism contract a function executes on:
//
//   MIND_SERIALIZED_PATH  — runs only on the global (clock, thread)-ordered drain or in
//                           single-owner setup/teardown. May draw from seeded Rng
//                           streams and mutate global SystemCounters / histograms.
//   MIND_PARALLEL_PHASE   — runs ahead of global order in a channel scan/commit phase.
//                           Must not draw RNG and must not touch global counters: the
//                           phase's work is committed before the serialized drain runs,
//                           so anything order-sensitive would diverge across shard
//                           counts.
//
// Under Clang they expand to [[clang::annotate]] so libclang-based tooling sees them in
// the AST; under any compiler the macro token itself is what tools/detlint.py's regex
// frontend keys on. Lambdas cannot take attributes portably — tag them with a trailing
// comment on the definition line instead: `auto f = [&] { ... };  // MIND_PARALLEL_PHASE`.
#ifndef MIND_SRC_COMMON_THREAD_ANNOTATIONS_H_
#define MIND_SRC_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define MIND_SERIALIZED_PATH [[clang::annotate("mind::serialized_path")]]
#define MIND_PARALLEL_PHASE [[clang::annotate("mind::parallel_phase")]]
#else
#define MIND_SERIALIZED_PATH
#define MIND_PARALLEL_PHASE
#endif

#endif  // MIND_SRC_COMMON_THREAD_ANNOTATIONS_H_
