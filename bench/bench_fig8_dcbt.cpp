// Regenerates Figure 8: achieved read bandwidth (percent of the
// large-block asymptote) for the random-block sequential scan, with
// and without DCBT stream hints.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/sweep.hpp"
#include "ubench/workloads.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_machine();
  sim::CounterRegistry* const reg = h.counters("fig8");
  if (auto exit_code =
          h.start("Figure 8",
                  "random-block scan bandwidth with and without DCBT"))
    return *exit_code;

  const sim::Machine& machine = h.machine();

  const std::uint64_t sizes[] = {512,  1024,  2048,  4096,
                                 8192, 16384, 32768, 65536};
  // Normalize to the best large-block figure, as the paper plots
  // percent of peak.  Sweep grid: (block size) x (plain, DCBT-hinted).
  sim::SweepRunner runner;
  h.arm(runner);
  const auto bw = runner.run_counted(
      2 * std::size(sizes), reg, [&](std::size_t i, sim::CounterRegistry* r) {
        ubench::DcbtOptions opt;
        opt.block_bytes = sizes[i / 2];
        opt.total_bytes = 32ull << 20;
        opt.use_dcbt = (i % 2) != 0;
        opt.counters = r;
        return ubench::dcbt_block_bandwidth_gbs(machine, opt);
      });
  double peak = 0.0;
  std::vector<std::pair<double, double>> results;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    results.emplace_back(bw[2 * i], bw[2 * i + 1]);
    peak = std::max({peak, bw[2 * i], bw[2 * i + 1]});
  }

  common::TextTable t({"Block size", "no DCBT (% peak)", "DCBT (% peak)",
                       "DCBT gain"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto [a, b] = results[i];
    t.add_row({common::fmt_bytes(static_cast<double>(sizes[i])),
               common::fmt_num(100.0 * a / peak, 0) + "%",
               common::fmt_num(100.0 * b / peak, 0) + "%",
               common::fmt_num(100.0 * (b / a - 1.0), 0) + "%"});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Paper: DCBT gains exceed 25%% for small arrays (the hardware\n"
              "detector engages too late) and become negligible for large\n"
              "ones.\n");
  return h.finish(0);
}
