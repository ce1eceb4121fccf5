// Regenerates Figure 9: the roofline of the E870, including the
// asymmetric write-only roof, the balance point, and the four kernels
// the paper places on it.
#include <cstdio>

#include "arch/spec.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "roofline/roofline.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_spec();
  if (auto exit_code = h.start("Figure 9",
                               "roofline for the IBM Power System E870"))
    return *exit_code;

  const auto model = roofline::RooflineModel::from_spec(h.spec().system);

  std::printf("Compute roof: %.0f GFLOP/s   Memory roof (2:1): %.0f GB/s\n"
              "Write-only roof: %.0f GB/s   Balance point: %.2f FLOP/byte "
              "(paper: 1.2)\n\n",
              model.peak_gflops(), model.mem_gbs(), model.write_only_gbs(),
              model.ridge_oi());

  common::TextTable t({"OI (FLOP/byte)", "Roof (GFLOP/s)",
                       "Write-only roof (GFLOP/s)", "bound"});
  for (const auto& p : model.sweep(1.0 / 64.0, 16.0, 21)) {
    const double wo = model.attainable_gflops(p.operational_intensity, true);
    t.add_row({common::fmt_num(p.operational_intensity, 3),
               common::fmt_num(p.gflops, 0), common::fmt_num(wo, 0),
               p.operational_intensity < model.ridge_oi() ? "memory"
                                                          : "compute"});
  }
  std::printf("%s\n", t.to_string().c_str());

  common::TextTable k({"Kernel", "OI", "Expected peak (GFLOP/s)",
                       "If write-dominated", "Note"});
  for (const auto& kernel : roofline::figure9_kernels()) {
    k.add_row({kernel.name, common::fmt_num(kernel.operational_intensity, 2),
               common::fmt_num(
                   model.attainable_gflops(kernel.operational_intensity), 0),
               common::fmt_num(model.attainable_gflops(
                                   kernel.operational_intensity, true),
                               0),
               kernel.note});
  }
  std::printf("%s\n", k.to_string().c_str());

  std::printf("Paper checks: LBMHD at OI~1 bounds at ~1,843 GFLOP/s on the\n"
              "optimal-mix roof (red diamond) but only ~614 GFLOP/s if\n"
              "write-dominated (red square); the 1.2 balance is far below\n"
              "the 6-7 typical of contemporary systems.\n");
  return 0;
}
