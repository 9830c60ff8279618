// Figure 7 (center): 4 KB IOPS under varying read-write and sharing ratios.
//
// Setup matches §7.2: 8 compute blades x 1 thread, 400k-page working set, uniform-random
// accesses. Expected shape: read ratio 1 or sharing ratio 0 keeps throughput high
// (~1-2 x 10^6 IOPS — pages stay cached); raising both the write fraction and the sharing
// ratio collapses throughput by ~10x (M<->S ping-pong invalidations dominate).
#include <vector>

#include "bench/bench_util.h"

namespace mind {
namespace {

using bench::MakeMind;
using bench::RunWorkload;
using bench::ScaledOps;

void RunFigure() {
  // The paper's 400k-page working set is replayed here at a scaled 150k pages so the
  // scaled-down trace length still warms the caches: at MIND_BENCH_SCALE 1 each thread
  // makes 40k accesses, ~2 per page of its 18.75k-page private slice at sharing ratio 0,
  // where 400k pages would leave most accesses first-touch faults.
  const uint64_t per_thread = ScaledOps(40'000);
  const uint64_t total_pages = 150'000;
  const std::vector<double> ratios = {0.0, 0.25, 0.5, 0.75, 1.0};

  PrintSectionHeader(
      "Figure 7 (center): aggregate 4KB IOPS, 8 blades x 1 thread (scaled working set)");
  TablePrinter table({"read_ratio", "share=0", "share=0.25", "share=0.5", "share=0.75",
                      "share=1.0"},
                     13);
  table.PrintHeader();

  for (double read_ratio : ratios) {
    std::vector<std::string> cells;
    for (double sharing : ratios) {
      auto mind = MakeMind(8);
      const auto report =
          RunWorkload(*mind, MicroSpec(8, read_ratio, sharing, total_pages, per_thread));
      cells.push_back(TablePrinter::Fmt(report.throughput_mops * 1e6, 0));
    }
    table.PrintRow(TablePrinter::Fmt(read_ratio, 2), cells[0], cells[1], cells[2], cells[3],
                   cells[4]);
  }
}

}  // namespace
}  // namespace mind

int main() {
  mind::RunFigure();
  return 0;
}
