// Figure 7 (right): end-to-end remote-access latency decomposition vs blade count.
//
// Setup matches §7.2: sharing ratio fixed at 1 (every page shared by all threads), read
// ratio in {0, 0.5, 1}, 1 thread per blade. Expected shape: the read-only workload stays
// near the S->S latency (~10 us) at every blade count; write-heavy workloads climb
// (~10 -> ~30 us at 8 blades in the paper) as invalidation queueing ("Inv (queue)") and
// synchronous TLB shootdowns ("Inv (TLB)") pile onto the critical path.
#include <vector>

#include "bench/bench_util.h"

namespace mind {
namespace {

using bench::MakeMind;
using bench::RunWorkload;
using bench::ScaledOps;

void RunFigure() {
  const uint64_t per_thread = ScaledOps(40'000);
  // The paper's 400k-page working set, scaled to 150k pages: at MIND_BENCH_SCALE 1 the
  // 8-blade rows make 8 x 40k accesses, ~2 per shared page, where 400k pages would leave
  // most of them first-touch faults. Smaller scales shorten the trace but not the working
  // set, so fewer accesses find a page another blade holds and the write-heavy rows read
  // low: 13.0 us at 8 blades at scale 0.1 against 24.3 us at scale 1 (paper: ~30 us).
  const uint64_t total_pages = 150'000;

  PrintSectionHeader(
      "Figure 7 (right): avg remote-access latency breakdown (us), sharing ratio 1");
  TablePrinter table({"read_ratio", "blades", "total", "pgfault", "network", "inv_queue",
                      "inv_tlb"},
                     11);
  table.PrintHeader();

  for (double read_ratio : {0.0, 0.5, 1.0}) {
    for (int blades : {1, 2, 4, 8}) {
      auto mind = MakeMind(blades);
      const auto report =
          RunWorkload(*mind, MicroSpec(blades, read_ratio, 1.0, total_pages, per_thread));
      const auto& sums = report.counters.breakdown_sums;
      const double n = std::max<double>(1.0, static_cast<double>(report.counters.remote_accesses));
      const double fault = ToMicros(sums.fault) / n;
      const double network = ToMicros(sums.network) / n;
      const double queue = ToMicros(sums.inv_queue) / n;
      const double tlb = ToMicros(sums.inv_tlb) / n;
      table.PrintRow(TablePrinter::Fmt(read_ratio, 1), blades,
                     TablePrinter::Fmt(fault + network + queue + tlb, 2),
                     TablePrinter::Fmt(fault, 2), TablePrinter::Fmt(network, 2),
                     TablePrinter::Fmt(queue, 2), TablePrinter::Fmt(tlb, 2));
    }
  }
}

}  // namespace
}  // namespace mind

int main() {
  mind::RunFigure();
  return 0;
}
