// Regenerates Table I: POWER7 and POWER8 at a glance.
#include <cstdio>

#include "arch/spec.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  if (auto exit_code = h.start("Table I", "POWER7 and POWER8 at a glance"))
    return *exit_code;

  const arch::ProcessorSpec p7 = arch::power7();
  const arch::ProcessorSpec p8v = arch::power8();

  common::TextTable t({"", "POWER7", "POWER8"});
  auto row = [&](const std::string& name, auto get) {
    t.add_row({name, get(p7), get(p8v)});
  };
  row("Threads/core", [](const arch::ProcessorSpec& p) {
    return std::to_string(p.core.smt_threads);
  });
  row("Maximum cores/processor", [](const arch::ProcessorSpec& p) {
    return std::to_string(p.max_cores);
  });
  row("L1 instruction cache/core", [](const arch::ProcessorSpec& p) {
    return common::fmt_bytes(static_cast<double>(p.core.l1i_bytes));
  });
  row("L1 data cache/core", [](const arch::ProcessorSpec& p) {
    return common::fmt_bytes(static_cast<double>(p.core.l1d_bytes));
  });
  row("L2 cache/core", [](const arch::ProcessorSpec& p) {
    return common::fmt_bytes(static_cast<double>(p.core.l2_bytes));
  });
  row("L3 cache/core", [](const arch::ProcessorSpec& p) {
    return common::fmt_bytes(static_cast<double>(p.core.l3_bytes));
  });
  row("L4 cache/processor", [](const arch::ProcessorSpec& p) {
    return p.max_l4_bytes
               ? "up to " + common::fmt_bytes(static_cast<double>(p.max_l4_bytes))
               : std::string("N/A");
  });
  row("Instruction issue/cycle/core", [](const arch::ProcessorSpec& p) {
    return std::to_string(p.core.issue_width);
  });
  row("Instruction completion/cycle/core", [](const arch::ProcessorSpec& p) {
    return std::to_string(p.core.commit_width);
  });
  row("Load/store operations/cycle", [](const arch::ProcessorSpec& p) {
    return std::to_string(p.core.loads_per_cycle) + " load/" +
           std::to_string(p.core.stores_per_cycle) + " store";
  });
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
