// Regenerates Table III: observed memory bandwidth for read:write byte
// mixes from read-only to write-only, modified-STREAM style, with all
// 64 cores x SMT8 active.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/machine/machine.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_machine();
  sim::CounterRegistry* const counters = h.counters("table3");
  if (auto exit_code =
          h.start("Table III",
                  "memory bandwidth vs read:write ratio (64 cores, SMT8)"))
    return *exit_code;

  const sim::Machine& machine = h.machine();
  // Counter-attachable copy; solves identically to machine.memory().
  sim::MemoryBandwidthModel mem = machine.memory();
  if (counters != nullptr) mem.attach_counters(counters);
  struct Row {
    const char* name;
    sim::RwMix mix;
    double paper;
  };
  const Row rows[] = {
      {"Read Only", {1, 0}, 1141}, {"16:1", {16, 1}, 1208},
      {"8:1", {8, 1}, 1267},       {"4:1", {4, 1}, 1375},
      {"2:1", {2, 1}, 1472},       {"1:1", {1, 1}, 894},
      {"1:2", {1, 2}, 748},        {"1:4", {1, 4}, 658},
      {"Write Only", {0, 1}, 589},
  };

  common::TextTable t({"Read:Write ratio", "Model (GB/s)", "Paper (GB/s)",
                       "Model/Paper"});
  for (const Row& r : rows) {
    const double bw = mem.system_stream_gbs(r.mix);
    t.add_row({r.name, common::fmt_num(bw, 0), common::fmt_num(r.paper, 0),
               common::fmt_num(bw / r.paper, 2)});
  }
  std::printf("%s\n", t.to_string().c_str());

  const double peak = machine.spec().peak_mem_gbs();
  const double best = mem.system_stream_gbs({2, 1});
  std::printf("Best mix 2:1 = %.0f GB/s = %.0f%% of the %.0f GB/s spec peak "
              "(paper: 1,472 GB/s, 80%%).\n",
              best, 100.0 * best / peak, peak);
  return h.finish(0);
}
