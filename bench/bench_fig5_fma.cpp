// Regenerates Figure 5: FMA throughput (percent of peak) as a function
// of the number of independent FMAs in the loop body and the number of
// threads per core — the cycle-level VSX pipeline simulation.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/machine/machine.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_machine();
  if (auto exit_code = h.start("Figure 5",
                               "FMA %% of peak vs loop FMAs x threads/core"))
    return *exit_code;

  const sim::Machine& machine = h.machine();
  const sim::CoreSim sim = machine.core_sim();

  common::TextTable t({"FMAs in loop", "SMT1", "SMT2", "SMT3", "SMT4",
                       "SMT5", "SMT6", "SMT7", "SMT8", "regs@SMT8"});
  for (const int fmas : {1, 2, 3, 4, 6, 8, 12, 16, 24}) {
    std::vector<std::string> row{std::to_string(fmas)};
    for (int threads = 1; threads <= 8; ++threads) {
      const auto r = sim.run_fma_loop(threads, fmas);
      row.push_back(common::fmt_num(100.0 * r.fraction_of_peak, 0) + "%");
    }
    row.push_back(std::to_string(sim.registers_used(8, fmas)));
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Checks (paper): peak requires FMAs x threads >= 12 (2 VSX pipes x\n"
      "6-cycle latency); odd thread counts dip (thread-set imbalance);\n"
      "the 12-FMA row degrades past 6 threads (12 x 2 x 6 = 144 registers\n"
      "> 128 architected VSX registers).\n");
  return 0;
}
