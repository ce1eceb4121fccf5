// Regenerates Table II: characteristics of the IBM Power System E870
// under test, plus the §II headline figures for the largest POWER8 SMP.
#include <cstdio>

#include "arch/spec.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_spec();
  if (auto exit_code = h.start("Table II",
                               "characteristics of the E870 under test"))
    return *exit_code;

  const arch::SystemSpec& s = h.spec().system;

  common::TextTable t({"Characteristic", "Value"});
  t.add_row({"System", s.name});
  t.add_row({"Sockets (processor chips)", std::to_string(s.sockets)});
  t.add_row({"Cores per chip", std::to_string(s.cores_per_chip)});
  t.add_row({"Total cores", std::to_string(s.total_cores())});
  t.add_row({"Threads per core (SMT)",
             std::to_string(s.processor.core.smt_threads)});
  t.add_row({"Total hardware threads", std::to_string(s.total_threads())});
  t.add_row({"Clock frequency", common::fmt_num(s.clock_ghz, 2) + " GHz"});
  t.add_row({"Cache line size",
             std::to_string(s.processor.cache_line_bytes) + " B"});
  t.add_row({"L3 per chip",
             common::fmt_bytes(static_cast<double>(
                 s.processor.l3_total_bytes(s.cores_per_chip)))});
  t.add_row({"Centaur chips per socket", std::to_string(s.centaurs_per_chip)});
  t.add_row({"L4 aggregate",
             common::fmt_bytes(static_cast<double>(s.l4_bytes()))});
  t.add_row({"Max memory capacity",
             common::fmt_bytes(static_cast<double>(s.max_dram_bytes()))});
  t.add_row({"Peak DP throughput",
             common::fmt_num(s.peak_dp_gflops(), 0) + " GFLOP/s"});
  t.add_row({"Peak memory bandwidth (2:1 R:W)",
             common::fmt_num(s.peak_mem_gbs(), 0) + " GB/s"});
  t.add_row({"Peak read bandwidth",
             common::fmt_num(s.peak_read_gbs(), 0) + " GB/s"});
  t.add_row({"Peak write bandwidth",
             common::fmt_num(s.peak_write_gbs(), 0) + " GB/s"});
  t.add_row({"Machine balance (FLOP/byte)",
             common::fmt_num(s.balance(), 2)});
  t.add_row({"X-bus per link (unidirectional)",
             common::fmt_num(s.xbus_gbs, 1) + " GB/s"});
  t.add_row({"A-bus per link (unidirectional)",
             common::fmt_num(s.abus_gbs, 1) + " GB/s"});
  std::printf("%s\n", t.to_string().c_str());

  bench::print_header("§II headline", "largest POWER8 SMP (192-way)");
  const arch::SystemSpec big = arch::max_power8_smp();
  common::TextTable top({"Quantity", "Model", "Paper"});
  top.add_row({"Peak DP (GFLOP/s)", common::fmt_num(big.peak_dp_gflops(), 0),
               "6144"});
  top.add_row({"Memory bandwidth (GB/s)",
               common::fmt_num(big.peak_mem_gbs(), 0), "3686"});
  top.add_row({"Memory capacity",
               common::fmt_bytes(static_cast<double>(big.max_dram_bytes())),
               "16 TB"});
  std::printf("%s\n", top.to_string().c_str());
  return 0;
}
