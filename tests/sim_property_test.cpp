// Property-based tests over randomized machine configurations
// (tests/proptest.hpp): instead of pinning one calibrated machine,
// these pin the *relationships* that must hold for every well-formed
// POWER8-family configuration the registry or a user JSON can express.
//
// The load-bearing property is the first one: the contract between
// sim::ModelAudit and the simulator is that an audit-clean MachineSpec
// must construct and simulate without tripping a single P8_REQUIRE /
// contract check — the audit pre-diagnoses every structural hazard, so
// bench gates can rely on "audit clean => safe to run".
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <vector>

#include "proptest.hpp"
#include "sim/cache/cache.hpp"
#include "sim/cache/tlb.hpp"
#include "sim/counters.hpp"
#include "sim/machine/spec.hpp"
#include "ubench/workloads.hpp"

namespace {

using namespace p8;

/// A MachineSpec grown from a random registry preset with the
/// structural knobs re-rolled across (and beyond) the plausible
/// POWER8 range.  Some rolls are deliberately invalid — those must be
/// caught by the audit, which is exactly what the first property
/// checks.
sim::MachineSpec random_spec(proptest::Gen& gen) {
  sim::MachineSpec s = sim::machine_spec(sim::machine_names()[static_cast<std::size_t>(
      gen.int_range(0, static_cast<int>(sim::machine_names().size()) - 1))]);
  arch::SystemSpec& sys = s.system;
  sys.sockets = gen.int_range(1, 16);
  sys.chips_per_socket = gen.pick({1, 1, 1, 2});
  sys.cores_per_chip = gen.int_range(1, 12);
  sys.centaurs_per_chip = gen.int_range(1, 8);
  sys.clock_ghz = gen.real_range(2.0, 5.5);
  sys.chips_per_group = gen.pick({1, 2, 3, 4, 6, 8, 16});
  sys.processor.core.smt_threads = gen.pick({1, 2, 4, 8});
  if (gen.chance(0.3)) sys.xbus_gbs = gen.real_range(10.0, 80.0);
  if (gen.chance(0.3)) sys.abus_gbs = gen.real_range(5.0, 30.0);
  if (gen.chance(0.3)) sys.abus_links_per_pair = gen.int_range(1, 4);
  if (gen.chance(0.2)) {
    sys.centaur.read_link_gbs = gen.real_range(5.0, 40.0);
    sys.centaur.write_link_gbs = sys.centaur.read_link_gbs / 2.0;
  }
  if (gen.chance(0.2)) s.mem.stream_latency_ns = gen.real_range(60.0, 300.0);
  if (gen.chance(0.2)) s.noc.ingest_cap_gbs = gen.real_range(30.0, 150.0);
  return s;
}

// ---------------------------------------------------------------------------

TEST(MachineSpecProperty, AuditCleanSpecsSimulateWithoutThrowing) {
  int clean = 0;
  P8_PROP(gen, 200, 0x5eedbea7) {
    const sim::MachineSpec spec = random_spec(gen);
    if (!spec.audit().ok()) continue;  // the audit's job is to reject these
    ++clean;
    try {
      const sim::Machine machine = spec.machine();

      ubench::ChaseOptions opt;
      opt.working_set_bytes = 1u << 16;
      opt.warm_accesses = 1u << 12;
      opt.measure_accesses = 1u << 12;
      EXPECT_GT(ubench::chase_latency_ns(machine, opt), 0.0);

      EXPECT_GT(machine.memory().system_stream_gbs({2, 1}), 0.0);
      const int chips = spec.system.total_chips();
      EXPECT_GT(machine.noc().memory_latency_ns(0, chips - 1), 0.0);
      if (chips > 1) {
        EXPECT_GT(machine.noc().one_direction_gbs(0, chips - 1), 0.0);
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "audit-clean spec threw during simulation: " << e.what()
                    << "\nspec:\n"
                    << spec.to_json();
    }
  }
  // The generator must not make the property vacuous: a healthy share
  // of rolls has to survive the audit.
  EXPECT_GE(clean, 40) << "generator produced too few audit-clean specs";
}

TEST(MachineSpecProperty, AuditNeverThrows) {
  // The dual of the property above: for *any* roll, valid or garbage,
  // the audit itself must diagnose rather than die.
  P8_PROP(gen, 200, 0xabad1dea) {
    sim::MachineSpec spec = random_spec(gen);
    // Push some rolls well outside the plausible range.
    if (gen.chance(0.5)) spec.system.cores_per_chip = gen.int_range(-2, 40);
    if (gen.chance(0.5)) spec.system.clock_ghz = gen.real_range(-1.0, 9.0);
    if (gen.chance(0.3)) spec.mem.read_link_eff = gen.real_range(-0.5, 2.0);
    try {
      (void)spec.audit();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "ModelAudit threw: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------

TEST(CacheProperty, OccupancyNeverExceedsCapacity) {
  P8_PROP(gen, 200, 0xcac4e0cc) {
    const std::uint64_t line = std::uint64_t{1} << gen.int_range(5, 8);
    const unsigned ways = static_cast<unsigned>(gen.int_range(1, 16));
    // Power-of-two set counts (the POWER8 levels) and irregular ones
    // (the division fallback) both must hold the bound.
    const std::uint64_t sets =
        gen.chance(0.5) ? std::uint64_t{1} << gen.int_range(0, 8)
                        : static_cast<std::uint64_t>(gen.int_range(1, 300));
    sim::SetAssocCache cache(sets * ways * line, ways, line);
    const std::uint64_t capacity_lines = sets * ways;

    const std::uint64_t span = sets * ways * line * 8;
    for (int i = 0; i < 512; ++i) {
      cache.touch_install(gen.range(0, span - 1));
      if ((i & 63) == 63) {
        ASSERT_LE(cache.resident_lines(), capacity_lines)
            << "line=" << line << " ways=" << ways << " sets=" << sets;
      }
    }
    EXPECT_LE(cache.resident_lines(), capacity_lines);
  }
}

// ---------------------------------------------------------------------------

TEST(TlbProperty, ReachMonotoneInPageSize) {
  // A trace confined within ERAT reach at page size P stays confined
  // at every larger page size (coarser pages only merge pages), so the
  // steady state has zero ERAT misses at P and everything above it.
  P8_PROP(gen, 200, 0x71b4eac4) {
    const int base_shift = gen.int_range(12, 20);  // 4 KB .. 1 MB
    sim::TlbConfig cfg;
    cfg.erat_entries = static_cast<unsigned>(gen.int_range(4, 64));
    const int pages = gen.int_range(1, static_cast<int>(cfg.erat_entries));

    // Distinct base pages with random in-page offsets.
    std::vector<std::uint64_t> addrs;
    for (int p = 0; p < pages; ++p)
      addrs.push_back((static_cast<std::uint64_t>(gen.range(0, 1u << 20))
                       << base_shift) +
                      gen.range(0, (std::uint64_t{1} << base_shift) - 1));

    for (int shift = base_shift; shift <= 24; shift += 2) {
      cfg.page_bytes = std::uint64_t{1} << shift;
      sim::Tlb tlb(cfg);
      sim::CounterRegistry reg;
      tlb.attach_counters(&reg, "t");
      for (const std::uint64_t a : addrs) tlb.translate(a);  // warm
      const std::uint64_t warm_misses = reg.value("t.erat.miss");
      for (int round = 0; round < 4; ++round)
        for (std::size_t i = 0; i < addrs.size(); ++i)
          tlb.translate(addrs[(i * 7 + static_cast<std::size_t>(round)) %
                              addrs.size()]);
      EXPECT_EQ(reg.value("t.erat.miss"), warm_misses)
          << "steady-state ERAT misses at page size 2^" << shift
          << " with a confined " << pages << "-page trace";
    }
    // Reach arithmetic: strictly larger pages, strictly more reach.
    std::uint64_t prev_reach = 0;
    for (int shift = base_shift; shift <= 24; ++shift) {
      const std::uint64_t reach =
          cfg.erat_entries * (std::uint64_t{1} << shift);
      EXPECT_GT(reach, prev_reach);
      prev_reach = reach;
    }
  }
}

// ---------------------------------------------------------------------------

TEST(NocProperty, RouteLatencySymmetric) {
  // The link table is symmetric (every X-bus/A-bus entry carries the
  // same latency both ways), so the min-latency route metric must be
  // symmetric for every chip pair of every audit-clean machine.
  P8_PROP(gen, 200, 0x0c0ffee0) {
    const sim::MachineSpec spec = random_spec(gen);
    if (!spec.audit().ok()) continue;
    const sim::Machine machine = spec.machine();
    const int chips = spec.system.total_chips();
    for (int probe = 0; probe < 8; ++probe) {
      const int a = gen.int_range(0, chips - 1);
      const int b = gen.int_range(0, chips - 1);
      EXPECT_DOUBLE_EQ(machine.noc().memory_latency_ns(a, b),
                       machine.noc().memory_latency_ns(b, a))
          << "chips " << a << " <-> " << b << " of\n"
          << spec.to_json();
    }
  }
}

}  // namespace
