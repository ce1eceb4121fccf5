// Regenerates Figure 1: the E870 block diagram, as a link audit plus
// an ASCII rendering of the two four-chip groups (drawn only for
// machines with the E870's 2x4 shape; other --machine selections get
// the link audit alone).
#include <cstdio>

#include "arch/spec.hpp"
#include "arch/topology.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_spec();
  if (auto exit_code = h.start("Figure 1",
                               "high-level block diagram of the E870"))
    return *exit_code;

  const arch::SystemSpec& spec = h.spec().system;

  if (!(spec == arch::e870())) std::printf("Machine: %s\n\n", spec.name.c_str());

  const arch::Topology topo = arch::Topology::from_spec(spec);

  if (spec.total_chips() == 8 && spec.chips_per_group == 4)
    std::printf(
        "  Group 0                     Group 1\n"
        "  CP0 === CP1                 CP4 === CP5\n"
        "   |  \\ /  |      A-bus        |  \\ /  |\n"
        "   |   X   |    (%d links      |   X   |\n"
        "   |  / \\  |      per pair)    |  / \\  |\n"
        "  CP2 === CP3                 CP6 === CP7\n"
        "   CPx --- CP(x+4) pairs cross the midplane\n\n",
        spec.abus_links_per_pair);
  std::printf(
      "  Per chip: %d cores, %d Centaur chips (%.0f GB/s read + %.0f GB/s\n"
      "  write each), X-bus %.1f GB/s/dir, A-bus bundle %.1f GB/s/dir\n\n",
      spec.cores_per_chip, spec.centaurs_per_chip,
      spec.centaur.read_link_gbs * spec.centaurs_per_chip,
      spec.centaur.write_link_gbs * spec.centaurs_per_chip, spec.xbus_gbs,
      spec.abus_gbs * spec.abus_links_per_pair);

  common::TextTable t({"Link", "Kind", "GB/s per direction", "Latency (ns)"});
  int xbus = 0;
  int abus = 0;
  for (const auto& link : topo.links()) {
    (link.kind == arch::LinkKind::kXBus ? xbus : abus) += 1;
    t.add_row({"CP" + std::to_string(link.chip_a) + " <-> CP" +
                   std::to_string(link.chip_b),
               link.kind == arch::LinkKind::kXBus
                   ? "X-bus"
                   : "A-bus x" + std::to_string(spec.abus_links_per_pair),
               common::fmt_num(link.gbs_per_direction, 1),
               common::fmt_num(link.latency_ns, 0)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Audit: %d X-bus links (paper: 3 per chip, full crossbar per "
              "group), %d A-bus bundles (paper: 3 links per partner pair).\n",
              xbus, abus);
  return 0;
}
