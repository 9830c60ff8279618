// mindbench's four pinned traffic mixes and the system configurations they replay on.
//
// Every spec and config is spelled out here rather than taken from the library presets
// (TfSpec, MemcachedASpec) or bench/bench_util.h, so a change to a preset or to the figure
// benches cannot silently change what this benchmark measures. The racks are the paper's
// evaluation rack (§7): 8 memory blades, 512 MB of DRAM cache per compute blade, 30k
// directory slots, 45k match-action rules, and a 5 ms bounded-splitting epoch (the figure
// benches' scaled epoch, so a replay of a few hundred simulated ms spans many epochs).
//
// Why each workload exists, and what it bypasses, is recorded next to it and in README.md.
#ifndef MIND_BENCH_MINDBENCH_WORKLOADS_H_
#define MIND_BENCH_MINDBENCH_WORKLOADS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string_view>

#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"

namespace mindbench {

inline mind::RackConfig PaperRack() {
  mind::RackConfig c;
  c.num_compute_blades = 8;
  c.num_memory_blades = 8;
  c.memory_blade_capacity = 8ull << 30;
  c.compute_cache_bytes = 512ull << 20;
  c.directory_slots = 30000;
  c.tcam_rules = 45000;
  c.splitting.epoch_length = 5 * mind::kMillisecond;
  return c;
}

inline std::unique_ptr<mind::MemorySystem> MakeMind() {
  return std::make_unique<mind::MindSystem>(PaperRack(), "MIND");
}

inline std::unique_ptr<mind::MemorySystem> MakeGam() {
  mind::GamConfig c;
  c.num_compute_blades = 4;
  c.num_memory_blades = 8;
  c.compute_cache_bytes = 512ull << 20;
  return std::make_unique<mind::GamSystem>(c);
}

// blade_resident: each thread hammers its own 4 MB, so after 8,192 compulsory misses
// (caches start empty) >98% of ops retire through AccessChannel Submit/Commit. The miss
// path, fabric and directory sit nearly idle: this is the harness-speed workload.
inline mind::WorkloadSpec BladeResident() {
  mind::WorkloadSpec s;
  s.name = "blade_resident";
  s.num_blades = 8;
  s.threads_per_blade = 1;
  s.private_pages_per_thread = 1024;
  s.private_pattern = mind::Pattern::kUniform;
  s.private_write_fraction = 0.5;
  s.accesses_per_thread = 1'500'000;
  s.think_time = 200;
  s.seed = 7;
  return s;
}

// tf_stream: TensorFlow's shape — sequential private activations (12,288 pages per
// thread) plus read-mostly shared parameters. Channels sit idle; every op goes through
// the drain's per-op Access and the owner-drain Eligible classifier, so this is the
// workload for the fetch path.
inline mind::WorkloadSpec TfStream() {
  mind::WorkloadSpec s;
  s.name = "tf_stream";
  s.num_blades = 8;
  s.threads_per_blade = 1;
  s.private_pages_per_thread = 98'304 / 8;
  s.private_pattern = mind::Pattern::kSequential;
  s.private_write_fraction = 0.50;
  s.shared_pages = 16'384;
  s.shared_pattern = mind::Pattern::kUniform;
  s.shared_access_fraction = 0.25;
  s.shared_write_fraction = 0.024;
  s.accesses_per_thread = 150'000;
  s.think_time = 1000;
  s.seed = 11;
  return s;
}

// memcached_a: YCSB-A over a zipfian shared table (50% writes) plus hot LRU metadata
// writes on 40% of operations. The same Rack::Access path as tf_stream, but dominated by
// invalidation waves and bounded-splitting churn instead of fetches.
inline mind::WorkloadSpec MemcachedA() {
  mind::WorkloadSpec s;
  s.name = "memcached_a";
  s.num_blades = 8;
  s.threads_per_blade = 1;
  s.private_pages_per_thread = 512;
  s.private_pattern = mind::Pattern::kUniform;
  s.private_write_fraction = 0.50;
  s.shared_pages = 262'144;
  s.shared_pattern = mind::Pattern::kZipfian;
  s.zipf_theta = 0.99;
  s.shared_access_fraction = 0.95;
  s.shared_write_fraction = 0.50;
  s.metadata_pages = 128;
  s.metadata_touch_prob = 0.40;
  s.accesses_per_thread = 40'000;
  s.think_time = 200;
  s.seed = 17;
  return s;
}

// gam_contended: GAM with 4 threads per blade, so every hit queues on the per-blade
// library lock and commits through ChannelGroup::CommitMerged; 2% of ops touch 512 shared
// pages and reach the owner-parallel drain. MIND's rack is not involved.
inline mind::WorkloadSpec GamContended() {
  mind::WorkloadSpec s;
  s.name = "gam_contended";
  s.num_blades = 4;
  s.threads_per_blade = 4;
  s.private_pages_per_thread = 2000;
  s.private_pattern = mind::Pattern::kUniform;
  s.private_write_fraction = 0.5;
  s.shared_pages = 512;
  s.shared_access_fraction = 0.02;
  s.shared_write_fraction = 0.2;
  s.accesses_per_thread = 250'000;
  s.think_time = 200;
  s.seed = 11;
  return s;
}

struct Workload {
  std::string_view name;
  mind::WorkloadSpec (*spec)();
  std::unique_ptr<mind::MemorySystem> (*make_system)();
};

inline constexpr std::array<Workload, 4> kWorkloads = {{
    {"blade_resident", BladeResident, MakeMind},
    {"tf_stream", TfStream, MakeMind},
    {"memcached_a", MemcachedA, MakeMind},
    {"gam_contended", GamContended, MakeGam},
}};

inline const Workload* FindWorkload(std::string_view name) {
  const auto it = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                               [&](const Workload& w) { return w.name == name; });
  return it == kWorkloads.end() ? nullptr : &*it;
}

}  // namespace mindbench

#endif  // MIND_BENCH_MINDBENCH_WORKLOADS_H_
