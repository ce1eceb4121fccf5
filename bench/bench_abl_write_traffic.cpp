// Ablation: where does the 2:1 read:write mix come from?  Traces the
// four STREAM kernels through the cache hierarchy (store-through L1,
// write-allocating store-in L2) and reports the read:write ratio that
// actually reaches the Centaur links, plus the Table III bandwidth
// the mix model predicts at that ratio.
#include <cstdio>

#include "arch/spec.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "sim/cache/hierarchy.hpp"
#include "sim/mem/bandwidth.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  bench::Harness h(argc, argv);
  if (auto exit_code =
          h.start("Ablation",
                  "STREAM kernels through the cache model: link-level R:W"))
    return *exit_code;

  const sim::MemoryBandwidthModel bw(arch::e870());

  struct Kernel {
    const char* name;
    int reads;        ///< source arrays per element
    int writes;       ///< destination arrays per element
    bool allocating;  ///< normal stores (true) or dcbz-style (false)
  };
  const Kernel kernels[] = {
      {"Copy  (c = a)", 1, 1, true},
      {"Scale (b = s*c)", 1, 1, true},
      {"Add   (c = a+b)", 2, 1, true},
      {"Triad (a = b+s*c)", 2, 1, true},
      {"Init  (a = s), stores", 0, 1, true},
      {"Init  (a = s), dcbz", 0, 1, false},
  };

  common::TextTable t({"Kernel", "link reads/line", "link writes/line",
                       "R:W at links", "Table III bandwidth (GB/s)"});
  for (const auto& k : kernels) {
    sim::ChipMemoryModel model(
        sim::HierarchyConfig::from_spec(arch::e870()));
    const std::uint64_t total = common::mib(128) / 128;
    const std::uint64_t lines = total / 2;  // second half = steady state
    for (std::uint64_t l = 0; l < total; ++l) {
      if (l == lines) model.reset_counters();
      for (int r = 0; r < k.reads; ++r)
        model.access((static_cast<std::uint64_t>(r + 1) << 33) + l * 128);
      for (int w = 0; w < k.writes; ++w) {
        const std::uint64_t addr =
            (static_cast<std::uint64_t>(w + 8) << 33) + l * 128;
        if (k.allocating) {
          model.access_write(addr);
        } else {
          // dcbz: establish the line dirty without fetching it.  The
          // model has no dedicated hook; emulate by counting the write
          // side only (skip the allocate read by touching nothing).
          model.access_write(addr);
        }
      }
    }
    auto counters = model.counters();
    if (!k.allocating) {
      // Remove the allocate fetches a dcbz kernel would not issue.
      counters.memlink_line_reads -=
          std::min(counters.memlink_line_reads,
                   static_cast<std::uint64_t>(k.writes) * lines);
    }
    const double reads_per_line =
        static_cast<double>(counters.memlink_line_reads) / lines;
    const double writes_per_line =
        static_cast<double>(counters.memlink_line_writes) / lines;
    const double ratio =
        writes_per_line > 0 ? reads_per_line / writes_per_line : 0.0;
    const double predicted =
        writes_per_line > 0
            ? bw.system_stream_gbs({reads_per_line, writes_per_line})
            : bw.system_stream_gbs({1, 0});
    t.add_row({k.name, common::fmt_num(reads_per_line, 2),
               common::fmt_num(writes_per_line, 2),
               common::fmt_num(ratio, 1) + ":1",
               common::fmt_num(predicted, 0)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Write-allocation makes Copy/Scale land exactly on the 2:1 mix the\n"
      "Centaur links are provisioned for; Add/Triad sit at 3:1, still on\n"
      "the read-rich side.  Only non-allocating (dcbz-style) stores reach\n"
      "the write-only corner the paper measures at 589 GB/s.\n");
  return 0;
}
