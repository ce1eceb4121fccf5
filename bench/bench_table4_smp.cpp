// Regenerates Table IV: memory read latency (with and without
// prefetching) and bandwidth between chips, plus the interleaved and
// aggregate rows.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/machine/machine.hpp"
#include "ubench/workloads.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  h.select_machine();
  sim::CounterRegistry* const reg = h.counters("table4");
  if (auto exit_code =
          h.start("Table IV",
                  "SMP interconnect latency (ns) and bandwidth (GB/s)"))
    return *exit_code;

  const sim::Machine& machine = h.machine();
  // Counter-attachable copy; solves identically to machine.noc().  The
  // probe-measured column records through ChaseOptions::counters.
  sim::NocModel noc = machine.noc();
  if (reg != nullptr) noc.attach_counters(reg);

  // Probe-measured latency: an actual pointer chase through the cache
  // simulator against memory homed on each chip (prefetch off, 256 MB
  // working set, huge pages) — the event-level cross-check of the
  // analytic column.
  auto probe_latency = [&](int home) {
    ubench::ChaseOptions opt;
    opt.working_set_bytes = 256ull << 20;
    opt.page_bytes = 16ull << 20;
    opt.home_chip = home;
    opt.warm_accesses = 1u << 20;
    opt.measure_accesses = 1u << 18;
    opt.counters = reg;
    return ubench::chase_latency_ns(machine, opt);
  };

  struct PaperRow {
    int chip;
    double lat, lat_pf, one_dir, bi_dir;
  };
  const PaperRow paper[] = {
      {1, 123, 12, 30, 53}, {2, 125, 15, 30, 53}, {3, 133, 15, 30, 53},
      {4, 213, 16, 45, 87}, {5, 235, 22, 45, 82}, {6, 237, 22, 45, 82},
      {7, 243, 22, 45, 82},
  };

  common::TextTable t({"Chip0 <-> ChipN", "Lat w/o pf", "probe-measured",
                       "Lat w/ pf", "One-dir BW", "Bi-dir BW"});
  for (const auto& row : paper) {
    t.add_row({"Chip0 <-> Chip" + std::to_string(row.chip),
               bench::vs_paper(noc.memory_latency_ns(0, row.chip), row.lat),
               common::fmt_num(probe_latency(row.chip), 0),
               bench::vs_paper(
                   noc.memory_latency_prefetched_ns(0, row.chip), row.lat_pf),
               bench::vs_paper(noc.one_direction_gbs(0, row.chip),
                               row.one_dir),
               bench::vs_paper(noc.bidirection_gbs(0, row.chip), row.bi_dir)});
  }
  std::printf("%s\n", t.to_string().c_str());

  common::TextTable agg({"Scenario", "Model vs paper"});
  const double inter_lat =
      [&] {
        double sum = 0.0;
        for (int c = 0; c < 8; ++c) sum += noc.memory_latency_ns(0, c);
        return sum / 8.0;
      }();
  agg.add_row({"Chip0 <-> interleaved latency (ns)",
               bench::vs_paper(inter_lat, 168)});
  agg.add_row({"Chip0 <-> interleaved bandwidth",
               bench::vs_paper(noc.interleaved_to_chip_gbs(0), 69)});
  agg.add_row({"All-to-all interleaved",
               bench::vs_paper(noc.all_to_all_gbs(), 380)});
  agg.add_row({"X-Bus aggregate",
               bench::vs_paper(noc.xbus_aggregate_gbs(), 632)});
  agg.add_row({"A-Bus aggregate",
               bench::vs_paper(noc.abus_aggregate_gbs(), 206)});
  std::printf("%s\n", agg.to_string().c_str());

  std::printf(
      "Key shapes: intra-group latency ~= half inter-group; chip0<->chip4\n"
      "(direct A bundle) is faster than chip0<->chip5..7; intra-group point\n"
      "bandwidth (single route) is LOWER than inter-group (multipath);\n"
      "X aggregate ~= 3x A aggregate; all-to-all falls in between.\n");
  return h.finish(0);
}
