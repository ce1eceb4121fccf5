// Ablation: input-vector placement for CSR SpMV (paper §V-B1).  The
// paper replicates x once per socket instead of distributing it; this
// bench quantifies the choice with the machine model: the effective
// bandwidth feeding the SpMV inner loop when x is socket-local versus
// striped across the machine.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/machine/machine.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_machine();
  if (auto exit_code =
          h.start("Ablation",
                  "SpMV input vector: replicated per socket vs distributed"))
    return *exit_code;

  const sim::Machine& machine = h.machine();
  const auto& noc = machine.noc();
  const auto& mem = machine.memory();

  // Replicated: every access to x (and to the matrix) is socket-local;
  // the chip streams at its local 2:1 figure.
  const double local_gbs = mem.stream_gbs(1, 8, 8, {2, 1});

  // Distributed: 1/8 of x accesses are local, 7/8 cross the fabric and
  // are bounded by the chip's remote-ingest figure.
  const double ingest = noc.interleaved_to_chip_gbs(0);
  const double distributed_gbs =
      1.0 / (0.125 / local_gbs + 0.875 / ingest);

  // SpMV at ~0.25 FLOP/byte: bandwidth is performance.
  common::TextTable t({"Placement", "Effective GB/s per chip",
                       "Predicted SpMV GFLOP/s per chip"});
  t.add_row({"x replicated per socket", common::fmt_num(local_gbs, 0),
             common::fmt_num(0.25 * local_gbs, 1)});
  t.add_row({"x distributed (interleaved)",
             common::fmt_num(distributed_gbs, 0),
             common::fmt_num(0.25 * distributed_gbs, 1)});
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Replication costs at most 16 copies of a small vector but keeps\n"
      "every read local (%.1fx the distributed bandwidth) — the paper's\n"
      "justification for replicating x on each socket.\n",
      local_gbs / distributed_gbs);
  return 0;
}
