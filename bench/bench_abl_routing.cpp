// Ablation: inter-group multipath routing.  Compares the Table IV
// point bandwidths under single-route and two-route policies — the
// paper's counter-intuitive "inter-group beats intra-group" result
// only exists with multipath.
#include <cstdio>

#include "arch/spec.hpp"
#include "arch/topology.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/noc/noc.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  if (auto exit_code = h.start("Ablation",
                               "single-route vs multipath inter-group routing"))
    return *exit_code;

  const arch::Topology topo = arch::Topology::from_spec(arch::e870());
  sim::NocParams single_params;
  single_params.max_routes_inter_group = 1;
  const sim::NocModel multi(topo);
  const sim::NocModel single(topo, single_params);

  common::TextTable t({"Pair", "multipath (GB/s)", "single route (GB/s)",
                       "paper (GB/s)"});
  struct Row {
    int a, b;
    double paper;
  };
  for (const Row& r : {Row{0, 1, 30}, Row{0, 3, 30}, Row{0, 4, 45},
                       Row{0, 5, 45}, Row{0, 7, 45}}) {
    t.add_row({"Chip" + std::to_string(r.a) + " <-> Chip" +
                   std::to_string(r.b),
               common::fmt_num(multi.one_direction_gbs(r.a, r.b), 1),
               common::fmt_num(single.one_direction_gbs(r.a, r.b), 1),
               common::fmt_num(r.paper, 0)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Single-route inter-group traffic would be limited by one\n"
              "A-bus bundle (or one two-hop path); spreading across a route\n"
              "pair is what lifts 0<->4..7 above the intra-group figures.\n");
  return 0;
}
