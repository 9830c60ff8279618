// Figure 8 (center): match-action rules consumed at the switch for address translation and
// memory protection, vs blade count (dataset grows with workers), against conventional
// page-granularity designs with 2 MB and 1 GB pages.
//
// Expected shape (log y): MIND stays nearly constant (one range rule per memory blade, one
// coalesced protection entry per vma) and far under the 45k rule limit; page-based designs
// grow linearly with the dataset, and in the paper 2 MB pages exceed the limit while 1 GB
// pages stay smaller in absolute count but still scale with footprint.
//
// Observed here: MIND uses 24-76 rules, 1 GB pages 1-4, and 2 MB pages 353-2,033, peaking
// at TF on 8 blades. So the linear growth and the ordering reproduce, but 2 MB pages stay
// ~22x under the 45k limit instead of crossing it: the synthetic allocation patterns
// (bench/alloc_patterns.h) model ~4 GB of heap at 8 blades, far below the paper's
// datasets. MIND_BENCH_SCALE does not size these patterns, so the table is the same at
// every scale.
#include <vector>

#include "bench/alloc_patterns.h"
#include "bench/bench_util.h"
#include "src/core/mind.h"

namespace mind {
namespace {

using bench::AllocationPattern;
using bench::kGiB;
using bench::kMiB;
using bench::SimulatePagedPlacement;

constexpr int kThreadsPerBlade = 10;
constexpr uint64_t kRuleLimit = 45'000;

uint64_t MindRules(const std::vector<uint64_t>& allocs) {
  Rack rack(bench::PaperRackConfig(8));
  const ProcessId pid = *rack.Exec("fig8");
  for (uint64_t size : allocs) {
    auto va = rack.Mmap(pid, size, PermClass::kReadWrite);
    if (!va.ok()) {
      std::fprintf(stderr, "mmap failed: %s\n", va.status().ToString().c_str());
      std::abort();
    }
  }
  // Translation + protection rules (the quantities Fig. 8 center plots).
  return rack.translator().rule_count() + rack.protection().rule_count();
}

void RunFigure() {
  PrintSectionHeader(
      "Figure 8 (center): match-action rules for heap (limit = 45000), 8 memory blades");
  TablePrinter table({"workload", "blades", "2MB-pages", "1GB-pages", "MIND"}, 12);
  table.PrintHeader();

  for (const std::string workload : {"TF", "GC", "MA&C"}) {
    for (int blades : {1, 2, 4, 8}) {
      const auto allocs = AllocationPattern(workload, blades * kThreadsPerBlade);
      const auto paged_2m = SimulatePagedPlacement(allocs, 2 * kMiB, 8);
      const auto paged_1g = SimulatePagedPlacement(allocs, 1 * kGiB, 8);
      table.PrintRow(workload, blades, paged_2m.rules, paged_1g.rules, MindRules(allocs));
    }
  }
  std::printf("\n(rule limit: %llu)\n", static_cast<unsigned long long>(kRuleLimit));
}

}  // namespace
}  // namespace mind

int main() {
  mind::RunFigure();
  return 0;
}
