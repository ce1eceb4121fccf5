// Regenerates Figure 4: system random-access read bandwidth (pointer
// chasing, one element per cache line) as a function of SMT level and
// the number of concurrent lists per thread, on all 64 cores.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/machine/machine.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_machine();
  sim::CounterRegistry* const counters = h.counters("fig4");
  if (auto exit_code =
          h.start("Figure 4",
                  "random-access bandwidth vs SMT x lists/thread (64 cores)"))
    return *exit_code;

  const sim::Machine& machine = h.machine();
  // Counter-attachable copy; solves identically to machine.memory().
  sim::MemoryBandwidthModel mem = machine.memory();
  if (counters != nullptr) mem.attach_counters(counters);

  common::TextTable t({"Lists/thread", "SMT1", "SMT2", "SMT4", "SMT8"});
  double best = 0.0;
  for (const int streams : {1, 2, 4, 8, 16}) {
    std::vector<std::string> row{std::to_string(streams)};
    for (const int smt : {1, 2, 4, 8}) {
      const double bw = mem.random_gbs(8, 8, smt, streams);
      best = std::max(best, bw);
      row.push_back(common::fmt_num(bw, 0));
    }
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());

  const double read_peak = machine.spec().peak_read_gbs();
  std::printf(
      "Maximum %.0f GB/s = %.0f%% of the %.0f GB/s read peak (paper: ~500\n"
      "GB/s, 41%%).  Shapes to check: near-linear growth below 4\n"
      "outstanding lines per thread; SMT8 saturates with only 4 lists while\n"
      "SMT4 needs ~16 — the paper's argument for 8-way SMT.\n",
      best, 100.0 * best / read_peak, read_peak);
  return h.finish(0);
}
