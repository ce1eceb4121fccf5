// Tests for the cache, TLB and hierarchy simulators.
#include <gtest/gtest.h>

#include <set>

#include "arch/spec.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/cache/cache.hpp"
#include "sim/cache/hierarchy.hpp"
#include "sim/cache/tlb.hpp"

namespace p8::sim {
namespace {

using common::kib;
using common::mib;

// -------------------------------------------------------- SetAssocCache ----

TEST(Cache, MissThenHit) {
  SetAssocCache c(kib(1), 2, 64);
  EXPECT_FALSE(c.access(0).hit);
  EXPECT_TRUE(c.access(0).hit);
  EXPECT_TRUE(c.access(63).hit);   // same line
  EXPECT_FALSE(c.access(64).hit);  // next line
}

TEST(Cache, LruEvictsOldest) {
  // 2-way, one set of interest: lines mapping to set 0 are multiples
  // of sets*line.
  SetAssocCache c(kib(1), 2, 64);  // 8 sets
  const std::uint64_t stride = 8 * 64;
  c.access(0 * stride);
  c.access(1 * stride);
  c.access(0 * stride);            // 0 is now MRU
  const auto r = c.access(2 * stride);
  EXPECT_FALSE(r.hit);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, 1 * stride);  // LRU way went
  EXPECT_TRUE(c.probe(0 * stride));
  EXPECT_FALSE(c.probe(1 * stride));
}

TEST(Cache, ProbeDoesNotTouch) {
  SetAssocCache c(kib(1), 2, 64);
  const std::uint64_t stride = 8 * 64;
  c.access(0 * stride);
  c.access(1 * stride);
  // Probing 0 must NOT refresh it...
  EXPECT_TRUE(c.probe(0 * stride));
  c.access(2 * stride);  // ...so 0 (older) is evicted.
  EXPECT_FALSE(c.probe(0 * stride));
  EXPECT_TRUE(c.probe(1 * stride));
}

TEST(Cache, InstallReturnsEviction) {
  SetAssocCache c(128, 1, 64);  // 2 sets, direct mapped
  EXPECT_EQ(c.install(0), std::nullopt);
  const auto ev = c.install(128);  // same set as 0
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(*ev, 0u);
}

TEST(Cache, InstallExistingRefreshes) {
  SetAssocCache c(kib(1), 2, 64);
  const std::uint64_t stride = 8 * 64;
  c.install(0 * stride);
  c.install(1 * stride);
  c.install(0 * stride);  // refresh, no eviction
  const auto ev = c.install(2 * stride);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(*ev, 1 * stride);
}

TEST(Cache, InvalidateRemoves) {
  SetAssocCache c(kib(1), 2, 64);
  c.access(0);
  EXPECT_TRUE(c.invalidate(0));
  EXPECT_FALSE(c.probe(0));
  EXPECT_FALSE(c.invalidate(0));
}

TEST(Cache, ResidentLinesAndClear) {
  SetAssocCache c(kib(1), 2, 64);
  for (int i = 0; i < 5; ++i) c.access(static_cast<std::uint64_t>(i) * 64);
  EXPECT_EQ(c.resident_lines(), 5u);
  c.clear();
  EXPECT_EQ(c.resident_lines(), 0u);
}

TEST(Cache, CapacityGeometryValidation) {
  EXPECT_THROW(SetAssocCache(100, 2, 64), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(kib(1), 2, 60), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(kib(1), 0, 64), std::invalid_argument);
  // The recency word holds 16 way numbers: 17 ways are refused.
  EXPECT_THROW(SetAssocCache(17 * 64, 17, 64), std::invalid_argument);
  EXPECT_NO_THROW(SetAssocCache(16 * 64, 16, 64));
}

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(CacheGeometry, WorkingSetWithinCapacityAlwaysHitsAfterWarm) {
  const auto [capacity, ways] = GetParam();
  SetAssocCache c(capacity, ways, 128);
  const std::uint64_t lines = capacity / 128;
  // Sequential fill: maps evenly across sets, fits exactly.
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 128);
  for (std::uint64_t i = 0; i < lines; ++i)
    EXPECT_TRUE(c.access(i * 128).hit) << "line " << i;
}

TEST_P(CacheGeometry, WorkingSetTwiceCapacityAlwaysMissesCyclically) {
  const auto [capacity, ways] = GetParam();
  SetAssocCache c(capacity, ways, 128);
  const std::uint64_t lines = 2 * capacity / 128;
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t i = 0; i < lines; ++i) {
      const bool hit = c.access(i * 128).hit;
      if (pass == 1) {
        EXPECT_FALSE(hit) << "line " << i;
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::tuple{kib(64), 8u}, std::tuple{kib(512), 8u},
                      std::tuple{kib(64), 1u}, std::tuple{kib(64), 16u},
                      std::tuple{mib(8), 8u}));

// ------------------------------------------------------------------ TLB ----

TEST(Tlb, EratHitAfterFirstTouch) {
  Tlb tlb(TlbConfig{});
  EXPECT_NE(tlb.translate(0), TlbOutcome::kEratHit);
  EXPECT_EQ(tlb.translate(0), TlbOutcome::kEratHit);
  EXPECT_EQ(tlb.translate(63 * 1024), TlbOutcome::kEratHit);  // same page
}

TEST(Tlb, FirstTouchWalks) {
  Tlb tlb(TlbConfig{});
  EXPECT_EQ(tlb.translate(0), TlbOutcome::kWalk);
}

TEST(Tlb, EratReachIs3MB) {
  // 48 entries x 64 KB pages = 3 MB: a 47-page loop fits, a 64-page
  // loop thrashes the ERAT but still hits the TLB.
  TlbConfig cfg;
  Tlb tlb(cfg);
  const std::uint64_t page = cfg.page_bytes;
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t p = 0; p < 47; ++p) {
      const auto out = tlb.translate(p * page);
      if (pass > 0) {
        EXPECT_EQ(out, TlbOutcome::kEratHit);
      }
    }
  Tlb tlb2(cfg);
  int erat_hits = 0;
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t p = 0; p < 64; ++p) {
      const auto out = tlb2.translate(p * page);
      if (pass == 2) {
        EXPECT_NE(out, TlbOutcome::kWalk);
        erat_hits += out == TlbOutcome::kEratHit ? 1 : 0;
      }
    }
  EXPECT_EQ(erat_hits, 0);  // cyclic sweep over 64 pages defeats 48-LRU
}

TEST(Tlb, HugePagesExtendReach) {
  TlbConfig cfg;
  cfg.page_bytes = 16ull << 20;
  Tlb tlb(cfg);
  // 100 MB working set = 7 huge pages: trivially inside the ERAT.
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t p = 0; p < 7; ++p) {
      const auto out = tlb.translate(p * cfg.page_bytes);
      if (pass == 1) {
        EXPECT_EQ(out, TlbOutcome::kEratHit);
      }
    }
}

TEST(Tlb, PenaltiesOrdered) {
  Tlb tlb(TlbConfig{});
  EXPECT_EQ(tlb.penalty_ns(TlbOutcome::kEratHit), 0.0);
  EXPECT_GT(tlb.penalty_ns(TlbOutcome::kTlbHit), 0.0);
  EXPECT_GT(tlb.penalty_ns(TlbOutcome::kWalk),
            tlb.penalty_ns(TlbOutcome::kTlbHit));
}

// ------------------------------------------------------------- hierarchy ---

HierarchyConfig e870_hierarchy() {
  return HierarchyConfig::from_spec(arch::e870());
}

TEST(Hierarchy, FromSpecGeometry) {
  const auto c = e870_hierarchy();
  EXPECT_EQ(c.l1_bytes, kib(64));
  EXPECT_EQ(c.l2_bytes, kib(512));
  EXPECT_EQ(c.l3_bytes, mib(8));
  EXPECT_EQ(c.chip_cores, 8);
  EXPECT_EQ(c.centaurs, 8);
  EXPECT_EQ(c.line_bytes, 128u);
}

TEST(Hierarchy, FirstAccessComesFromDram) {
  ChipMemoryModel m(e870_hierarchy());
  EXPECT_EQ(m.access(0), ServiceLevel::kDram);
}

TEST(Hierarchy, SecondAccessHitsL1) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  EXPECT_EQ(m.access(0), ServiceLevel::kL1);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  // Push 0 out of the 64 KB L1 by streaming 128 KB, staying inside L2.
  for (std::uint64_t a = 128; a <= kib(128); a += 128) m.access(a);
  EXPECT_EQ(m.access(0), ServiceLevel::kL2);
}

TEST(Hierarchy, L3HitAfterL2Eviction) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  for (std::uint64_t a = 128; a <= mib(1); a += 128) m.access(a);
  EXPECT_EQ(m.access(0), ServiceLevel::kL3Local);
}

TEST(Hierarchy, VictimPoolCatchesL3Evictions) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  // Stream 16 MB: evicts line 0 from the local 8 MB L3 into the
  // lateral victim pool (the other cores' 56 MB).
  for (std::uint64_t a = 128; a <= mib(16); a += 128) m.access(a);
  EXPECT_EQ(m.access(0), ServiceLevel::kL3Remote);
}

TEST(Hierarchy, VictimDisabledFallsToL4) {
  auto cfg = e870_hierarchy();
  cfg.victim_l3 = false;
  ChipMemoryModel m(cfg);
  m.access(0);
  for (std::uint64_t a = 128; a <= mib(16); a += 128) m.access(a);
  // Without lateral cast-out the line is gone from SRAM but the
  // memory-side L4 still holds it.
  EXPECT_EQ(m.access(0), ServiceLevel::kL4);
}

TEST(Hierarchy, L4DisabledFallsToDram) {
  auto cfg = e870_hierarchy();
  cfg.victim_l3 = false;
  cfg.l4_enabled = false;
  ChipMemoryModel m(cfg);
  m.access(0);
  for (std::uint64_t a = 128; a <= mib(16); a += 128) m.access(a);
  EXPECT_EQ(m.access(0), ServiceLevel::kDram);
}

TEST(Hierarchy, RemoteHitMigratesHome) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  for (std::uint64_t a = 128; a <= mib(16); a += 128) m.access(a);
  ASSERT_EQ(m.access(0), ServiceLevel::kL3Remote);
  EXPECT_EQ(m.access(0), ServiceLevel::kL1);  // migrated back up
}

TEST(Hierarchy, PrefetchedInstallHitsL1) {
  ChipMemoryModel m(e870_hierarchy());
  m.install_prefetched(1024);
  EXPECT_EQ(m.access(1024), ServiceLevel::kL1);
}

TEST(Hierarchy, LatenciesAreMonotone) {
  const HierarchyLatencies lat;
  EXPECT_LT(lat.of(ServiceLevel::kL1), lat.of(ServiceLevel::kL2));
  EXPECT_LT(lat.of(ServiceLevel::kL2), lat.of(ServiceLevel::kL3Local));
  EXPECT_LT(lat.of(ServiceLevel::kL3Local), lat.of(ServiceLevel::kL3Remote));
  EXPECT_LT(lat.of(ServiceLevel::kL3Remote), lat.of(ServiceLevel::kL4));
  EXPECT_LT(lat.of(ServiceLevel::kL4), lat.of(ServiceLevel::kDram));
}

TEST(Hierarchy, L4SavesOver30ns) {
  // Paper: "an L4 hit reduces the latency of an L3 miss by over 30 ns".
  const HierarchyLatencies lat;
  EXPECT_GT(lat.of(ServiceLevel::kDram) - lat.of(ServiceLevel::kL4), 30.0);
}

TEST(Hierarchy, LookupDoesNotMutate) {
  ChipMemoryModel m(e870_hierarchy());
  EXPECT_EQ(m.lookup(0), ServiceLevel::kDram);
  EXPECT_EQ(m.lookup(0), ServiceLevel::kDram);
  m.access(0);
  EXPECT_EQ(m.lookup(0), ServiceLevel::kL1);
}

TEST(Hierarchy, ClearResets) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  m.clear();
  EXPECT_EQ(m.access(0), ServiceLevel::kDram);
}

// ------------------------------------------------------ write path ---------

TEST(WritePath, StoreThroughL1NeverDirties) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);               // line cached
  m.access_write(0);         // store hits L1+L2
  // Stream far past every SRAM level; the only dirty copy was in L2,
  // so exactly one line crosses the write link when it finally leaves.
  for (std::uint64_t a = 128; a <= mib(80); a += 128) m.access(a);
  EXPECT_EQ(m.counters().memlink_line_writes, 1u);
}

TEST(WritePath, WriteAllocateFetchesTheLine) {
  ChipMemoryModel m(e870_hierarchy());
  const auto before = m.counters().memlink_line_reads;
  EXPECT_EQ(m.access_write(1 << 20), ServiceLevel::kDram);
  EXPECT_EQ(m.counters().memlink_line_reads, before + 1);
  EXPECT_EQ(m.counters().stores, 1u);
}

TEST(WritePath, RepeatedStoresStayInL2) {
  ChipMemoryModel m(e870_hierarchy());
  m.access_write(0);
  const auto reads = m.counters().memlink_line_reads;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m.access_write(0), ServiceLevel::kL2);
  EXPECT_EQ(m.counters().memlink_line_reads, reads);  // no refetch
  EXPECT_EQ(m.counters().memlink_line_writes, 0u);    // not yet evicted
}

TEST(WritePath, CleanEvictionsCostNoWriteTraffic) {
  ChipMemoryModel m(e870_hierarchy());
  // Read-only streaming far beyond every cache level.
  for (std::uint64_t a = 0; a <= mib(100); a += 128) m.access(a);
  EXPECT_EQ(m.counters().memlink_line_writes, 0u);
  EXPECT_EQ(m.counters().dram_writes, 0u);
  EXPECT_GT(m.counters().memlink_line_reads, 0u);
}

TEST(WritePath, StreamCopyIsTwoToOneAtTheLinks) {
  // c[i] = a[i]: per line, one demand read + one write-allocate read
  // vs one eventual write-back — the mechanism behind the paper's
  // optimal 2:1 read:write ratio (Table III).  The ratio is measured
  // in steady state: a warm phase first fills the SRAM hierarchy with
  // dirty lines so the write-back pipeline is flowing.
  ChipMemoryModel m(e870_hierarchy());
  const std::uint64_t lines = mib(96) / 128;
  const std::uint64_t src = 0;
  const std::uint64_t dst = 1ull << 32;
  for (std::uint64_t l = 0; l < lines; ++l) {
    if (l == lines / 2) m.reset_counters();  // enter steady state
    m.access(src + l * 128);
    m.access_write(dst + l * 128);
  }
  const auto& c = m.counters();
  ASSERT_GT(c.memlink_line_writes, 0u);
  EXPECT_NEAR(c.memlink_read_to_write(), 2.0, 0.2);
}

TEST(WritePath, TriadIsThreeToOneAtTheLinks) {
  ChipMemoryModel m(e870_hierarchy());
  const std::uint64_t lines = mib(96) / 128;
  for (std::uint64_t l = 0; l < lines; ++l) {
    if (l == lines / 2) m.reset_counters();
    m.access((1ull << 32) + l * 128);
    m.access((2ull << 32) + l * 128);
    m.access_write((3ull << 32) + l * 128);
  }
  EXPECT_NEAR(m.counters().memlink_read_to_write(), 3.0, 0.3);
}

TEST(WritePath, CountersReset) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  m.access_write(128);
  m.reset_counters();
  EXPECT_EQ(m.counters().loads, 0u);
  EXPECT_EQ(m.counters().stores, 0u);
  EXPECT_EQ(m.counters().memlink_line_reads, 0u);
}

TEST(WritePath, DirtyLineSurvivesRoundTripThroughL3) {
  ChipMemoryModel m(e870_hierarchy());
  m.access_write(0);  // dirty in L2
  // Push it to L3 (1 MB stream), then touch it again: still no write
  // traffic has left the chip.
  for (std::uint64_t a = 128; a <= mib(1); a += 128) m.access(a);
  EXPECT_EQ(m.counters().memlink_line_writes, 0u);
  EXPECT_EQ(m.access(0), ServiceLevel::kL3Local);
}

TEST(Cache, DirtyTrackingPrimitives) {
  SetAssocCache c(kib(1), 2, 64);
  EXPECT_FALSE(c.mark_dirty(0));  // not present
  c.install_line(0, false);
  EXPECT_FALSE(c.is_dirty(0));
  EXPECT_TRUE(c.mark_dirty(0));
  EXPECT_TRUE(c.is_dirty(0));
  // Refresh with clean does not clear dirty.
  c.install_line(0, false);
  EXPECT_TRUE(c.is_dirty(0));
  // Eviction reports dirty state.
  const std::uint64_t stride = 8 * 64;
  c.install_line(1 * stride, false);
  const auto ev = c.install_line(2 * stride, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 0u);
  EXPECT_TRUE(ev->dirty);
}

// ---------------------------------------------------------- fuzz / props --

TEST(CacheFuzz, RandomOpsPreserveInvariants) {
  // Random interleaving of access/install/invalidate/mark_dirty against
  // a reference map of resident lines.
  common::Xoshiro256 rng(99);
  SetAssocCache cache(kib(4), 4, 64);
  const std::uint64_t kLines = 256;  // 4x the capacity: plenty of churn
  std::set<std::uint64_t> resident;

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t addr = rng.bounded(kLines) * 64;
    switch (rng.bounded(4)) {
      case 0: {
        const auto r = cache.access(addr);
        EXPECT_EQ(r.hit, resident.count(addr / 64 * 64) > 0);
        resident.insert(addr);
        if (r.evicted) {
          EXPECT_EQ(resident.erase(*r.evicted), 1u) << "phantom eviction";
        }
        break;
      }
      case 1: {
        const auto ev = cache.install_line(addr, rng.bounded(2) == 0);
        resident.insert(addr);
        if (ev) {
          EXPECT_EQ(resident.erase(ev->line), 1u);
        }
        break;
      }
      case 2: {
        const bool was = cache.invalidate(addr);
        EXPECT_EQ(was, resident.erase(addr) == 1u);
        break;
      }
      default: {
        const bool found = cache.mark_dirty(addr);
        EXPECT_EQ(found, resident.count(addr) > 0);
        if (found) {
          EXPECT_TRUE(cache.is_dirty(addr));
        }
        break;
      }
    }
    ASSERT_EQ(cache.resident_lines(), resident.size());
    ASSERT_LE(cache.resident_lines(), kib(4) / 64);
  }
}

TEST(HierarchyFuzz, LookupAlwaysConsistentWithAccess) {
  // For a random access stream, lookup() must predict exactly the level
  // the next access() is serviced from.
  common::Xoshiro256 rng(7);
  ChipMemoryModel m(e870_hierarchy());
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t addr = rng.bounded(1u << 18) * 128;
    const ServiceLevel predicted = m.lookup(addr);
    const ServiceLevel actual = m.access(addr);
    ASSERT_EQ(predicted, actual) << "op " << op;
  }
}

TEST(HierarchyFuzz, CountersAreConsistent) {
  common::Xoshiro256 rng(13);
  ChipMemoryModel m(e870_hierarchy());
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  for (int op = 0; op < 30000; ++op) {
    const std::uint64_t addr = rng.bounded(1u << 20) * 128;
    if (rng.bounded(3) == 0) {
      m.access_write(addr);
      ++stores;
    } else {
      m.access(addr);
      ++loads;
    }
  }
  EXPECT_EQ(m.counters().loads, loads);
  EXPECT_EQ(m.counters().stores, stores);
  // DRAM reads are a subset of link reads; write-backs cannot exceed
  // the lines ever dirtied.
  EXPECT_LE(m.counters().dram_reads, m.counters().memlink_line_reads);
  EXPECT_LE(m.counters().memlink_line_writes, stores);
  EXPECT_LE(m.counters().dram_writes, m.counters().memlink_line_writes);
}

TEST(Hierarchy, ToStringNames) {
  EXPECT_STREQ(to_string(ServiceLevel::kL1), "L1");
  EXPECT_STREQ(to_string(ServiceLevel::kDram), "DRAM");
  EXPECT_STREQ(to_string(ServiceLevel::kL3Remote), "L3(remote)");
}

}  // namespace
}  // namespace p8::sim
