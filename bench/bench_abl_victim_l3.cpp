// Ablation: what does the NUCA victim L3 buy?  Re-runs the Figure 2
// latency probe with lateral cast-out disabled — the 8-64 MB shelf
// should collapse onto the L4 latency.
#include <cstdio>

#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/sweep.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_machine();
  if (auto exit_code =
          h.start("Ablation", "NUCA victim L3 on/off (Fig. 2 mid-range shelf)"))
    return *exit_code;

  const sim::Machine& machine = h.machine();

  auto probe_at = [&](std::uint64_t ws, bool victim) {
    sim::ProbeOptions opts;
    opts.page_bytes = 16ull << 20;
    opts.dscr = 1;
    opts.victim_l3 = victim;
    sim::LatencyProbe probe = machine.probe(opts);
    // Simple cyclic warm + measure at line granularity.
    const std::uint64_t lines = ws / 128;
    for (int pass = 0; pass < 2; ++pass)
      for (std::uint64_t i = 0; i < lines; ++i) probe.access(i * 128);
    const double t0 = probe.now_ns();
    for (std::uint64_t i = 0; i < lines; ++i) probe.access(i * 128);
    return (probe.now_ns() - t0) / static_cast<double>(lines);
  };

  const std::vector<std::uint64_t> sets = {common::mib(4), common::mib(12),
                                           common::mib(24), common::mib(48),
                                           common::mib(96)};
  // Sweep grid: (working set) x (victim on, off), fanned over a pool.
  sim::SweepRunner runner;
  h.arm(runner);
  const auto lat = runner.run(2 * sets.size(), [&](std::size_t i) {
    return probe_at(sets[i / 2], i % 2 == 0);
  });

  common::TextTable t({"Working set", "victim L3 on (ns)",
                       "victim L3 off (ns)", "penalty"});
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const double on = lat[2 * i];
    const double off = lat[2 * i + 1];
    t.add_row({common::fmt_bytes(static_cast<double>(sets[i])),
               common::fmt_num(on, 1), common::fmt_num(off, 1),
               common::fmt_num(100.0 * (off / on - 1.0), 0) + "%"});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Expected: working sets between 8 MB (local L3) and 64 MB\n"
              "(chip L3) pay substantially more without the victim pool;\n"
              "inside the local L3 or beyond the chip there is no change.\n");
  return 0;
}
