#include "src/workload/generators.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace mind {

namespace {

// The zipfian table for one segment, or null when its pattern is not zipfian. The table
// depends only on the page count and theta, and building it costs one pow() per page
// (ZipfianGenerator's Zeta), so each segment's table is built once per trace and shared
// by every thread's IndexGen; ZipfianGenerator::Next is const.
std::unique_ptr<const ZipfianGenerator> ZipfTable(Pattern pattern, uint64_t pages,
                                                  double theta) {
  if (pattern != Pattern::kZipfian) {
    return nullptr;
  }
  return std::make_unique<const ZipfianGenerator>(std::max<uint64_t>(pages, 1), theta);
}

// Stateful per-thread page-index generator for one segment. `zipf` is the segment's
// shared table (ZipfTable), non-null exactly when the pattern is kZipfian; it must
// outlive the generator.
class IndexGen {
 public:
  IndexGen(Pattern pattern, uint64_t pages, const ZipfianGenerator* zipf, uint64_t seed,
           uint64_t stride_pages = 4)
      : pattern_(pattern),
        pages_(std::max<uint64_t>(pages, 1)),
        stride_(std::max<uint64_t>(stride_pages % pages_, 1)),
        zipf_(zipf) {
    assert((pattern_ == Pattern::kZipfian) == (zipf_ != nullptr));
    if (pattern_ == Pattern::kPointerChase) {
      // Sattolo's algorithm yields a uniformly random *cyclic* permutation, so following
      // next = perm[current] walks every page exactly once before returning to the
      // start — a deterministic pointer chase with no exploitable stride.
      Rng perm_rng(seed * 0x9e3779b97f4a7c15ull + 1);
      perm_.resize(pages_);
      for (uint64_t i = 0; i < pages_; ++i) {
        perm_[i] = i;
      }
      for (uint64_t i = pages_ - 1; i >= 1; --i) {
        const uint64_t j = perm_rng.NextBelow(i);  // j < i: Sattolo, not Fisher-Yates.
        std::swap(perm_[i], perm_[j]);
      }
    }
    cursor_ = seed % pages_;  // Stagger sequential/strided scans across threads.
  }

  uint64_t Next(Rng& rng) {
    switch (pattern_) {
      case Pattern::kSequential:
        return cursor_++ % pages_;
      case Pattern::kUniform:
        return rng.NextBelow(pages_);
      case Pattern::kZipfian:
        return zipf_->Next(rng);
      case Pattern::kStrided: {
        const uint64_t page = cursor_;
        cursor_ = (cursor_ + stride_) % pages_;
        return page;
      }
      case Pattern::kPointerChase:
        cursor_ = perm_[cursor_];
        return cursor_;
    }
    return 0;
  }

 private:
  Pattern pattern_;
  uint64_t pages_;
  uint64_t stride_;
  uint64_t cursor_ = 0;
  const ZipfianGenerator* zipf_;  // Not owned; kZipfian only.
  std::vector<uint64_t> perm_;    // kPointerChase only.
};

}  // namespace

WorkloadTraces GenerateTraces(const WorkloadSpec& spec) {
  WorkloadTraces traces;
  traces.name = spec.name;
  traces.num_blades = spec.num_blades;
  traces.think_time = spec.think_time;

  // Segment layout: [0] shared, [1] metadata, [2 + t] private segment of thread t.
  traces.segments.push_back(SegmentSpec{std::max<uint64_t>(spec.shared_pages, 1)});
  traces.segments.push_back(SegmentSpec{std::max<uint64_t>(spec.metadata_pages, 1)});
  const int threads = spec.total_threads();
  for (int t = 0; t < threads; ++t) {
    traces.segments.push_back(SegmentSpec{std::max<uint64_t>(spec.private_pages_per_thread, 1)});
  }

  const bool has_shared = spec.shared_pages > 0 && spec.shared_access_fraction > 0.0;
  const bool has_private = spec.private_pages_per_thread > 0;
  const bool has_metadata = spec.metadata_pages > 0 && spec.metadata_touch_prob > 0.0;

  // Per-blade partitions of the shared segment for the partitioned (Native-KVS) mode.
  const uint64_t partition_pages =
      spec.partitioned && spec.num_blades > 0
          ? std::max<uint64_t>(spec.shared_pages / static_cast<uint64_t>(spec.num_blades), 1)
          : 0;

  const uint64_t shared_gen_pages = spec.partitioned ? partition_pages : spec.shared_pages;
  const auto shared_zipf = ZipfTable(spec.shared_pattern, shared_gen_pages, spec.zipf_theta);
  const auto private_zipf =
      ZipfTable(spec.private_pattern, spec.private_pages_per_thread, spec.zipf_theta);
  // Metadata pages are few and hot: zipfian regardless of the main pattern.
  const auto metadata_zipf = ZipfTable(Pattern::kZipfian, spec.metadata_pages, 0.99);

  traces.threads.resize(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    Rng rng(spec.seed * 1000003ull + static_cast<uint64_t>(t));
    const int blade = t % spec.num_blades;

    IndexGen shared_gen(spec.shared_pattern, shared_gen_pages, shared_zipf.get(),
                        static_cast<uint64_t>(t) * 7919, spec.stride_pages);
    IndexGen private_gen(spec.private_pattern, spec.private_pages_per_thread,
                         private_zipf.get(), static_cast<uint64_t>(t) * 104729,
                         spec.stride_pages);
    IndexGen metadata_gen(Pattern::kZipfian, spec.metadata_pages, metadata_zipf.get(),
                          static_cast<uint64_t>(t));

    auto& ops = traces.threads[static_cast<size_t>(t)].ops;
    ops.reserve(spec.accesses_per_thread + static_cast<uint64_t>(
                    spec.metadata_touch_prob * static_cast<double>(spec.accesses_per_thread)));

    for (uint64_t i = 0; i < spec.accesses_per_thread; ++i) {
      const bool go_shared = has_shared && (!has_private || rng.NextBool(spec.shared_access_fraction));
      TraceOp op;
      if (go_shared) {
        uint64_t page = shared_gen.Next(rng);
        if (spec.partitioned) {
          // Mostly the issuing blade's partition; occasionally anywhere (cross-partition op).
          if (rng.NextBool(spec.partition_locality)) {
            page = static_cast<uint64_t>(blade) * partition_pages + (page % partition_pages);
          } else {
            page = rng.NextBelow(spec.shared_pages);
          }
          page = std::min(page, spec.shared_pages - 1);
        }
        op = TraceOp{0, page, rng.NextBool(spec.shared_write_fraction) ? AccessType::kWrite
                                                                       : AccessType::kRead};
      } else if (has_private) {
        op = TraceOp{static_cast<uint32_t>(2 + t), private_gen.Next(rng),
                     rng.NextBool(spec.private_write_fraction) ? AccessType::kWrite
                                                               : AccessType::kRead};
      } else {
        continue;  // Degenerate spec: nothing to access.
      }
      ops.push_back(op);

      // Memcached-style bookkeeping: the LRU list touch is a *write* to hot shared metadata
      // even when the operation itself is a GET — the root cause of M_C's poor inter-blade
      // scaling in the paper (§7.1).
      if (has_metadata && rng.NextBool(spec.metadata_touch_prob)) {
        ops.push_back(TraceOp{1, metadata_gen.Next(rng), AccessType::kWrite});
      }
    }
  }
  return traces;
}

// ---------------------------------------------------------------------------
// Paper workload presets. Totals are fixed per job so adding blades/threads is *strong*
// scaling, as in the paper's runtime-based figures.
// ---------------------------------------------------------------------------

namespace {
uint64_t PerThread(uint64_t total, int threads) {
  return std::max<uint64_t>(total / static_cast<uint64_t>(std::max(threads, 1)), 1000);
}
}  // namespace

WorkloadSpec TfSpec(int blades, int threads_per_blade, uint64_t accesses_per_thread) {
  WorkloadSpec s;
  s.name = "TF";
  s.num_blades = blades;
  s.threads_per_blade = threads_per_blade;
  const int threads = s.total_threads();
  // ~384 MB of activations/gradients partitioned across workers, streamed sequentially
  // (sized to fit one blade's 512 MB cache together with the hot parameter set, as the
  // paper's TF working set does); 64 MB of shared model parameters, read-mostly with
  // sparse updates.
  s.private_pages_per_thread = PerThread(98'304, threads);
  s.private_pattern = Pattern::kSequential;
  s.private_write_fraction = 0.50;
  s.shared_pages = 16'384;
  s.shared_pattern = Pattern::kUniform;
  s.shared_access_fraction = 0.25;
  s.shared_write_fraction = 0.024;  // TF's shared-write volume baseline (GC is ~2.5x this).
  s.accesses_per_thread = accesses_per_thread;
  s.think_time = 1000;  // Compute-heavy: convolutions dominate between memory touches.
  s.seed = 11;
  return s;
}

WorkloadSpec GcSpec(int blades, int threads_per_blade, uint64_t accesses_per_thread) {
  WorkloadSpec s;
  s.name = "GC";
  s.num_blades = blades;
  s.threads_per_blade = threads_per_blade;
  const int threads = s.total_threads();
  // 256 MB shared graph (vertex + rank arrays) traversed with power-law skew; per-thread
  // edge streaming buffers. The hot graph caches well, so the dominant scaling cost is
  // coherence waste: random, contentious shared writes (~2.5x TF's shared-write volume)
  // invalidate widely-cached regions, dropping and re-fetching their pages.
  s.private_pages_per_thread = PerThread(262'144, threads);
  s.private_pattern = Pattern::kSequential;
  s.private_write_fraction = 0.30;
  s.shared_pages = 131'072;
  s.shared_pattern = Pattern::kZipfian;
  s.zipf_theta = 0.97;
  s.shared_access_fraction = 0.60;
  s.shared_write_fraction = 0.035;
  s.accesses_per_thread = accesses_per_thread;
  s.think_time = 250;
  s.seed = 13;
  return s;
}

WorkloadSpec MemcachedASpec(int blades, int threads_per_blade, uint64_t accesses_per_thread) {
  WorkloadSpec s;
  s.name = "MA";
  s.num_blades = blades;
  s.threads_per_blade = threads_per_blade;
  // 1 GB shared hash table under zipfian YCSB-A (50% GET / 50% SET), plus hot shared LRU
  // metadata written on most operations.
  s.private_pages_per_thread = 512;
  s.private_pattern = Pattern::kUniform;
  s.private_write_fraction = 0.50;
  s.shared_pages = 262'144;
  s.shared_pattern = Pattern::kZipfian;
  s.zipf_theta = 0.99;
  s.shared_access_fraction = 0.95;
  s.shared_write_fraction = 0.50;
  s.metadata_pages = 128;
  s.metadata_touch_prob = 0.40;
  s.accesses_per_thread = accesses_per_thread;
  s.think_time = 200;
  s.seed = 17;
  return s;
}

WorkloadSpec MemcachedCSpec(int blades, int threads_per_blade, uint64_t accesses_per_thread) {
  WorkloadSpec s = MemcachedASpec(blades, threads_per_blade, accesses_per_thread);
  s.name = "MC";
  s.shared_write_fraction = 0.0;  // YCSB-C: 100% reads...
  s.metadata_touch_prob = 0.40;   // ...but the LRU-touch writes remain (§7.1).
  s.seed = 19;
  return s;
}

WorkloadSpec NativeKvsSpec(int blades, int threads_per_blade, double read_ratio,
                           uint64_t accesses_per_thread, uint64_t table_pages) {
  WorkloadSpec s;
  s.name = read_ratio >= 1.0 ? "KVS-C" : "KVS-A";
  s.num_blades = blades;
  s.threads_per_blade = threads_per_blade;
  // Native KVS partitions its state across blades (better than Memcached, §7.1) and has no
  // shared LRU bookkeeping.
  s.private_pages_per_thread = 256;
  s.private_write_fraction = 0.2;
  s.shared_pages = table_pages;
  s.shared_pattern = Pattern::kZipfian;
  s.zipf_theta = 0.99;
  s.shared_access_fraction = 0.95;
  s.shared_write_fraction = 1.0 - read_ratio;
  s.partitioned = true;
  s.partition_locality = 0.85;
  s.accesses_per_thread = accesses_per_thread;
  s.think_time = 200;
  s.seed = 23;
  return s;
}

WorkloadSpec MicroSpec(int blades, double read_ratio, double sharing_ratio,
                       uint64_t total_pages, uint64_t accesses_per_thread) {
  WorkloadSpec s;
  s.name = "micro";
  s.num_blades = blades;
  s.threads_per_blade = 1;
  const int threads = s.total_threads();
  // `sharing_ratio` of accesses go to a region shared by all threads; the rest to
  // per-thread private slices. Uniform-random pattern over 400k pages total (§7.2).
  s.shared_pages = static_cast<uint64_t>(sharing_ratio * static_cast<double>(total_pages));
  const uint64_t private_total = total_pages - s.shared_pages;
  s.private_pages_per_thread = threads > 0 ? private_total / static_cast<uint64_t>(threads) : 0;
  s.private_pattern = Pattern::kUniform;
  s.shared_pattern = Pattern::kUniform;
  s.shared_access_fraction = sharing_ratio;
  s.shared_write_fraction = 1.0 - read_ratio;
  s.private_write_fraction = 1.0 - read_ratio;
  s.accesses_per_thread = accesses_per_thread;
  s.think_time = 0;
  s.seed = 29;
  return s;
}

}  // namespace mind
