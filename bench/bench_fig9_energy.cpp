// Companion to Figure 9: the energy roofline of the E870 (after the
// paper's reference [9], Choi et al., "A roofline model of energy").
// Shows energy per flop, efficiency and machine power across
// intensities, with the four paper kernels marked.
#include <cstdio>

#include "arch/spec.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "roofline/energy.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_spec();
  if (auto exit_code = h.start("Figure 9 (energy companion)",
                               "energy roofline of the E870 (paper ref. [9])"))
    return *exit_code;

  const auto perf = roofline::RooflineModel::from_spec(h.spec().system);
  const roofline::EnergyRoofline energy(perf);

  std::printf(
      "pi = %.0f pJ/flop, epsilon = %.0f pJ/byte, P0 = %.0f W\n"
      "Energy balance eps/pi = %.1f FLOP/byte (performance ridge: %.2f)\n\n",
      energy.params().pj_per_flop, energy.params().pj_per_byte,
      energy.params().constant_watts, energy.energy_balance_oi(),
      perf.ridge_oi());

  common::TextTable t({"OI", "GFLOP/s (perf roof)", "pJ/flop (dynamic)",
                       "pJ/flop (total)", "GFLOP/s/W", "power (W)"});
  for (const auto& point : perf.sweep(1.0 / 32.0, 32.0, 11)) {
    const double oi = point.operational_intensity;
    t.add_row({common::fmt_num(oi, 3), common::fmt_num(point.gflops, 0),
               common::fmt_num(energy.dynamic_pj_per_flop(oi), 0),
               common::fmt_num(energy.total_pj_per_flop(oi), 0),
               common::fmt_num(energy.gflops_per_watt(oi), 2),
               common::fmt_num(energy.power_watts(oi), 0)});
  }
  std::printf("%s\n", t.to_string().c_str());

  common::TextTable k({"Kernel", "OI", "GFLOP/s/W", "share of energy on bytes"});
  for (const auto& kernel : roofline::figure9_kernels()) {
    const double oi = kernel.operational_intensity;
    const double byte_share = (energy.params().pj_per_byte / oi) /
                              energy.dynamic_pj_per_flop(oi);
    k.add_row({kernel.name, common::fmt_num(oi, 2),
               common::fmt_num(energy.gflops_per_watt(oi), 2),
               common::fmt_num(100.0 * byte_share, 0) + "%"});
  }
  std::printf("%s\n", k.to_string().c_str());

  std::printf(
      "Every Figure 9 kernel spends most of its energy moving bytes\n"
      "(SpMV: ~93%%), and the energy balance point sits right of the\n"
      "performance ridge — the energy-side version of the paper's\n"
      "conclusion that data movement, not compute, is the bottleneck a\n"
      "balanced machine must attack.\n");
  return 0;
}
