// Regenerates Figure 3: sustained memory bandwidth (2:1 read:write)
// (a) for a single core as the thread count grows and (b) for a single
// chip as cores x threads grow.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/machine/machine.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_machine();
  sim::CounterRegistry* const counters = h.counters("fig3");
  if (auto exit_code =
          h.start("Figure 3a",
                  "single-core bandwidth vs threads per core (2:1 mix)"))
    return *exit_code;

  const sim::Machine& machine = h.machine();
  const sim::RwMix mix{2, 1};
  // Counter-attachable copy; solves identically to machine.memory().
  sim::MemoryBandwidthModel mem = machine.memory();
  if (counters != nullptr) mem.attach_counters(counters);

  common::TextTable a({"Threads/core", "Bandwidth (GB/s)"});
  for (int t = 1; t <= 8; ++t)
    a.add_row({std::to_string(t),
               common::fmt_num(mem.stream_gbs(1, 1, t, mix), 1)});
  std::printf("%s", a.to_string().c_str());
  std::printf("Paper: a single core peaks at ~26 GB/s.\n\n");

  bench::print_header("Figure 3b",
                      "single-chip bandwidth vs cores and threads (2:1 mix)");
  common::TextTable b({"Cores", "SMT1", "SMT2", "SMT4", "SMT8"});
  for (int cores = 1; cores <= 8; ++cores) {
    std::vector<std::string> row{std::to_string(cores)};
    for (int smt : {1, 2, 4, 8})
      row.push_back(common::fmt_num(
          mem.stream_gbs(1, cores, smt, mix), 0));
    b.add_row(row);
  }
  std::printf("%s", b.to_string().c_str());
  std::printf("Paper: the chip maximum of ~189 GB/s needs all cores AND all "
              "threads.\nModel maximum: %.0f GB/s.\n",
              mem.stream_gbs(1, 8, 8, mix));
  return h.finish(0);
}
