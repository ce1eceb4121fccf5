// Companion to Figure 11: model-*predicted* E870 CSR SpMV performance
// for the suite, from the cache-replay + bandwidth-model predictor.
// Complements bench_fig11_spmv_csr (host-measured): the predicted
// column reproduces the figure's ordering with E870-scale numbers.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "graph/matrices.hpp"
#include "graph/rmat.hpp"
#include "predict/spmv_predict.hpp"
#include "sim/machine/sweep.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  const double size_factor =
      h.number("size-factor", 1.0, 0.01, 16.0, "matrix dimension scale");
  h.select_machine();
  if (auto exit_code = h.start("Figure 11 (model-predicted)",
                               "E870 CSR SpMV prediction per suite matrix"))
    return *exit_code;

  const sim::Machine& machine = h.machine();
  const auto suite = graph::figure11_suite(size_factor);

  // Each suite matrix is one independent cache-replay sweep point.
  sim::SweepRunner runner;
  h.arm(runner);
  const auto predictions = runner.run(suite.size(), [&](std::size_t i) {
    return predict::predict_csr_spmv(suite[i].matrix, machine);
  });

  common::TextTable t({"Matrix", "x hit %", "bytes/nnz", "link R:W",
                       "predicted E870 GFLOP/s", "% of Dense"});
  double dense = 0.0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& entry = suite[i];
    const auto& p = predictions[i];
    if (entry.name == "Dense") dense = p.gflops;
    t.add_row({entry.name,
               common::fmt_num(100.0 * p.x_hit_fraction, 1),
               common::fmt_num(p.bytes_per_nnz, 1),
               common::fmt_num(p.read_to_write, 0) + ":1",
               common::fmt_num(p.gflops, 1),
               dense > 0 ? common::fmt_num(100.0 * p.gflops / dense, 0) + "%"
                         : "-"});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("\nAnd the Figure 12 matrices (R-MAT, CSR baseline):\n\n");
  common::TextTable r({"Scale", "x hit %", "bytes/nnz",
                       "predicted E870 GFLOP/s"});
  const std::vector<int> scales = {14, 16, 18, 20};
  // R-MAT generation + replay both happen inside the sweep point, so
  // the heavy scale-20 matrix never serializes the smaller ones.
  const auto rmat_pred = runner.map(scales, [&](int scale, std::size_t) {
    graph::RmatOptions opt;
    opt.scale = scale;
    opt.edge_factor = 16;
    const auto a = graph::rmat_adjacency(opt);
    return predict::predict_csr_spmv(a, machine);
  });
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const auto& p = rmat_pred[i];
    r.add_row({std::to_string(scales[i]),
               common::fmt_num(100.0 * p.x_hit_fraction, 1),
               common::fmt_num(p.bytes_per_nnz, 1),
               common::fmt_num(p.gflops, 1)});
  }
  std::printf("%s\n", r.to_string().c_str());

  std::printf(
      "Prediction mechanics: structured matrices keep nearly every x\n"
      "gather on chip (bytes/nnz ~ 12-14, near the Dense ceiling); the\n"
      "scale-free ones miss into DRAM and drag a full 128 B line per\n"
      "miss, which is exactly the pathology the paper's two-phase graph\n"
      "SpMV (§V-B2) removes.  The R-MAT table shows the hit rate falling\n"
      "with scale — the Figure 12 decay, from the model's side.\n");
  return 0;
}
