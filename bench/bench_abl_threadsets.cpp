// Ablation: SMT thread-set pairing.  Compares odd thread counts with
// the split enabled (hardware behaviour) and disabled (ideal shared
// issue) — the odd-SMT dips of Figure 5 vanish without the split.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/core/coresim.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  if (auto exit_code =
          h.start("Ablation",
                  "thread-set split vs shared issue (odd SMT dips)"))
    return *exit_code;

  const sim::CoreSim split{sim::CoreSimConfig{}};
  sim::CoreSimConfig shared_cfg;
  shared_cfg.threadset_split = false;
  const sim::CoreSim shared{shared_cfg};

  common::TextTable t({"Threads", "FMAs/loop", "thread-sets (hw)",
                       "shared pool (ideal)"});
  for (const int fmas : {2, 4, 6}) {
    for (int threads = 2; threads <= 8; ++threads) {
      t.add_row(
          {std::to_string(threads), std::to_string(fmas),
           common::fmt_num(
               100.0 * split.run_fma_loop(threads, fmas).fraction_of_peak,
               0) +
               "%",
           common::fmt_num(
               100.0 * shared.run_fma_loop(threads, fmas).fraction_of_peak,
               0) +
               "%"});
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("With the hardware split, odd thread counts leave one pipe's\n"
              "thread-set under-populated; the shared-pool counterfactual\n"
              "is insensitive to parity.\n");
  return 0;
}
