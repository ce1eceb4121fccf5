// An independent reference model for the cache and address-translation
// structures, diffed against the simulator's on random operation
// sequences.
//
// The reference is written from the replacement contract in
// docs/MODEL.md §6a, not from the optimised code, and shares nothing
// with it: every set is a std::list of resident lines ordered MRU
// first, a hit splices its line to the front, an install into a full
// set evicts the back, and lines are found by walking the list.  No
// packed words, no way numbers, no recency encoding — so a bug in the
// packed representation cannot hide behind a twin of itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <optional>
#include <vector>

#include "proptest.hpp"
#include "sim/cache/cache.hpp"
#include "sim/cache/tlb.hpp"

namespace p8 {
namespace {

struct RefLine {
  std::uint64_t line = 0;  ///< line-aligned address
  bool dirty = false;
};

/// Set-associative true-LRU cache as a list of resident lines per set.
class RefCache {
 public:
  RefCache(std::uint64_t sets, unsigned ways, std::uint64_t line_bytes)
      : ways_(ways), line_bytes_(line_bytes), sets_(sets) {}

  std::uint64_t line_of(std::uint64_t addr) const {
    return addr / line_bytes_ * line_bytes_;
  }
  std::uint64_t set_of(std::uint64_t addr) const {
    return addr / line_bytes_ % sets_.size();
  }

  bool probe(std::uint64_t addr) const {
    for (const RefLine& l : sets_[set_of(addr)])
      if (l.line == line_of(addr)) return true;
    return false;
  }

  /// Promotes a resident line to MRU; false on a miss.
  bool touch(std::uint64_t addr) {
    auto& set = sets_[set_of(addr)];
    const auto it = find(addr);
    if (it == set.end()) return false;
    set.splice(set.begin(), set, it);
    return true;
  }

  /// The line an install of `addr` would evict: the LRU line of a full
  /// set, nothing while the set has room.
  std::optional<RefLine> victim(std::uint64_t addr) const {
    const auto& set = sets_[set_of(addr)];
    if (set.size() < ways_) return std::nullopt;
    return set.back();
  }

  /// Refreshes a resident line (MRU, dirty OR-ed in) or installs it at
  /// MRU, evicting the LRU line of a full set.
  std::optional<RefLine> install(std::uint64_t addr, bool dirty) {
    auto& set = sets_[set_of(addr)];
    if (const auto it = find(addr); it != set.end()) {
      it->dirty = it->dirty || dirty;
      set.splice(set.begin(), set, it);
      return std::nullopt;
    }
    std::optional<RefLine> evicted;
    if (set.size() == ways_) {
      evicted = set.back();
      set.pop_back();
    }
    set.push_front({line_of(addr), dirty});
    return evicted;
  }

  /// Removes a resident line and returns its dirty state.
  std::optional<bool> take(std::uint64_t addr) {
    auto& set = sets_[set_of(addr)];
    const auto it = find(addr);
    if (it == set.end()) return std::nullopt;
    const bool dirty = it->dirty;
    set.erase(it);
    return dirty;
  }

  bool mark_dirty(std::uint64_t addr) {
    const auto it = find(addr);
    if (it == sets_[set_of(addr)].end()) return false;
    it->dirty = true;
    return true;
  }

  bool is_dirty(std::uint64_t addr) {
    const auto it = find(addr);
    return it != sets_[set_of(addr)].end() && it->dirty;
  }

  void clear() {
    for (auto& set : sets_) set.clear();
  }

  std::uint64_t resident() const {
    std::uint64_t n = 0;
    for (const auto& set : sets_) n += set.size();
    return n;
  }

 private:
  std::list<RefLine>::iterator find(std::uint64_t addr) {
    auto& set = sets_[set_of(addr)];
    auto it = set.begin();
    while (it != set.end() && it->line != line_of(addr)) ++it;
    return it;
  }

  unsigned ways_;
  std::uint64_t line_bytes_;
  std::vector<std::list<RefLine>> sets_;
};

/// Fully associative true-LRU over page numbers (the ERAT).
class RefLru {
 public:
  explicit RefLru(unsigned entries) : entries_(entries) {}

  bool contains(std::uint64_t page) const {
    for (const std::uint64_t p : pages_)
      if (p == page) return true;
    return false;
  }

  /// Hit: promotes to MRU.  Miss: installs at MRU and returns the page
  /// evicted from a full table through `evicted`.
  bool touch_install(std::uint64_t page, std::optional<std::uint64_t>& evicted) {
    evicted.reset();
    for (auto it = pages_.begin(); it != pages_.end(); ++it) {
      if (*it == page) {
        pages_.splice(pages_.begin(), pages_, it);
        return true;
      }
    }
    if (pages_.size() == entries_) {
      evicted = pages_.back();
      pages_.pop_back();
    }
    pages_.push_front(page);
    return false;
  }

  void clear() { pages_.clear(); }
  std::size_t size() const { return pages_.size(); }
  const std::list<std::uint64_t>& pages() const { return pages_; }

 private:
  unsigned entries_;
  std::list<std::uint64_t> pages_;
};

/// A random cache geometry: 1..16 ways, a power-of-two or an irregular
/// set count (the shift/mask and the reciprocal-multiply indexing).
struct Geometry {
  std::uint64_t line = 0;
  unsigned ways = 0;
  std::uint64_t sets = 0;
};

Geometry random_geometry(proptest::Gen& gen) {
  Geometry g;
  g.line = std::uint64_t{1} << gen.int_range(5, 8);
  g.ways = static_cast<unsigned>(gen.int_range(1, 16));
  g.sets = gen.chance(0.5) ? std::uint64_t{1} << gen.int_range(0, 7)
                           : static_cast<std::uint64_t>(gen.int_range(1, 200));
  return g;
}

std::string describe(const Geometry& g) {
  return "line=" + std::to_string(g.line) + " ways=" + std::to_string(g.ways) +
         " sets=" + std::to_string(g.sets);
}

void expect_same_eviction(const std::optional<sim::SetAssocCache::Eviction>& got,
                          const std::optional<RefLine>& want,
                          const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->line, want->line) << where;
  EXPECT_EQ(got->dirty, want->dirty) << where;
}

// ---------------------------------------------------------------------------

TEST(CacheOracle, EveryOperationMatchesTheListModel) {
  P8_PROP(gen, 300, 0x0dac1e5) {
    const Geometry g = random_geometry(gen);
    sim::SetAssocCache cache(g.sets * g.ways * g.line, g.ways, g.line);
    RefCache ref(g.sets, g.ways, g.line);
    // Up to three tags per way of every set: sets fill, overflow and
    // keep re-touching lines that are still resident.
    const std::uint64_t lines =
        g.sets * g.ways * static_cast<std::uint64_t>(gen.int_range(1, 3));
    const auto random_addr = [&] {
      return gen.range(0, lines - 1) * g.line + gen.range(0, g.line - 1);
    };
    const std::string geom = describe(g);

    for (int step = 0; step < 1500; ++step) {
      const std::uint64_t addr = random_addr();
      const std::string where = geom + " step=" + std::to_string(step);
      switch (gen.int_range(0, 13)) {
        case 0:
          ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << where;
          break;
        case 1:
          ASSERT_EQ(cache.touch(addr), ref.touch(addr)) << where;
          break;
        case 2:
        case 3: {
          // touch_slot, then install_line_at while the recorded set is
          // untouched — optionally after operations on other sets.
          const auto victim = ref.victim(addr);
          sim::SetAssocCache::Slot slot;
          const bool hit = cache.touch_slot(addr, slot);
          ASSERT_EQ(hit, ref.touch(addr)) << where;
          if (hit) break;
          ASSERT_EQ(cache.slot_victim_line(slot),
                    victim ? victim->line : sim::SetAssocCache::kNoVictim)
              << where;
          for (int k = gen.int_range(0, 2); k > 0; --k) {
            const std::uint64_t other = random_addr();
            if (cache.set_index(other) == slot.set) continue;
            const bool dirty = gen.chance(0.5);
            expect_same_eviction(cache.install_line(other, dirty),
                                 ref.install(other, dirty), where);
          }
          const bool dirty = gen.chance(0.3);
          expect_same_eviction(cache.install_line_at(slot, addr, dirty),
                               ref.install(addr, dirty), where);
          break;
        }
        case 4: {
          const bool hit = ref.touch(addr);
          if (!hit) ref.install(addr, false);
          ASSERT_EQ(cache.touch_install(addr), hit) << where;
          break;
        }
        case 5:
        case 6: {
          const bool dirty = gen.chance(0.4);
          expect_same_eviction(cache.install_line(addr, dirty),
                               ref.install(addr, dirty), where);
          break;
        }
        case 7: {
          // access(): touch, else a clean install reporting the line.
          const bool hit = ref.touch(addr);
          const auto ev = hit ? std::nullopt : ref.install(addr, false);
          const auto got = cache.access(addr);
          ASSERT_EQ(got.hit, hit) << where;
          ASSERT_EQ(got.evicted.has_value(), ev.has_value()) << where;
          if (ev) {
            EXPECT_EQ(*got.evicted, ev->line) << where;
          }
          break;
        }
        case 8: {
          const auto ev = ref.install(addr, false);
          const auto got = cache.install(addr);
          ASSERT_EQ(got.has_value(), ev.has_value()) << where;
          if (ev) {
            EXPECT_EQ(*got, ev->line) << where;
          }
          break;
        }
        case 9:
          ASSERT_EQ(cache.take(addr), ref.take(addr)) << where;
          break;
        case 10:
          ASSERT_EQ(cache.invalidate(addr), ref.take(addr).has_value())
              << where;
          break;
        case 11:
          ASSERT_EQ(cache.mark_dirty(addr), ref.mark_dirty(addr)) << where;
          break;
        case 12:
          ASSERT_EQ(cache.is_dirty(addr), ref.is_dirty(addr)) << where;
          break;
        case 13:
          if (gen.chance(0.05)) {
            cache.clear();
            ref.clear();
          }
          break;
      }
      if (::testing::Test::HasFailure()) break;
      if ((step & 63) == 63) {
        ASSERT_EQ(cache.resident_lines(), ref.resident()) << where;
      }
    }
    EXPECT_EQ(cache.resident_lines(), ref.resident()) << geom;
  }
}

TEST(CacheOracle, CyclicSweepsEvictInExactLruOrder) {
  // Deterministic pressure on the replacement order itself: every set
  // sees a cyclic sweep one line wider than its ways (true LRU misses
  // every time) interleaved with re-touches of a random resident line.
  P8_PROP(gen, 100, 0x5eed1a7) {
    const Geometry g = random_geometry(gen);
    sim::SetAssocCache cache(g.sets * g.ways * g.line, g.ways, g.line);
    RefCache ref(g.sets, g.ways, g.line);
    const std::uint64_t lines = g.sets * (g.ways + 1);
    for (std::uint64_t i = 0; i < 4 * lines; ++i) {
      const std::uint64_t addr = (i % lines) * g.line;
      const std::string where = describe(g) + " i=" + std::to_string(i);
      expect_same_eviction(cache.install_line(addr, (i & 1) != 0),
                           ref.install(addr, (i & 1) != 0), where);
      const std::uint64_t again = gen.range(0, lines - 1) * g.line;
      ASSERT_EQ(cache.touch(again), ref.touch(again)) << where;
      if (::testing::Test::HasFailure()) break;
    }
  }
}

// ---------------------------------------------------------------------------

TEST(EratOracle, EveryLookupAndEvictionMatchesTheListModel) {
  // The ERAT structure on its own, 1..64 entries: every hit/miss, the
  // page every miss evicts, the resident count, and clear().
  P8_PROP(gen, 300, 0xe7a7e7a) {
    const auto entries = static_cast<unsigned>(gen.int_range(1, 64));
    sim::Erat erat(entries);
    RefLru ref(entries);
    ASSERT_EQ(erat.entries(), entries);
    const std::uint64_t pages = gen.range(1, 2 * entries + 4);
    // Sparse page numbers, so hash-index collisions and backward-shift
    // deletions are exercised, not just a dense 0..N range.
    const std::uint64_t stride = gen.pick<std::uint64_t>({1, 7, 4096, 1u << 20});
    for (int step = 0; step < 2000; ++step) {
      if (gen.chance(0.003)) {
        erat.clear();
        ref.clear();
      }
      const std::uint64_t page = gen.range(0, pages - 1) * stride;
      std::optional<std::uint64_t> evicted;
      const bool hit = ref.touch_install(page, evicted);
      ASSERT_EQ(erat.touch_install(page), hit)
          << "entries=" << entries << " step=" << step;
      ASSERT_EQ(erat.size(), ref.size()) << "step=" << step;
      ASSERT_TRUE(erat.contains(page));
      if (evicted) {
        ASSERT_FALSE(erat.contains(*evicted)) << "step=" << step;
      }
    }
    for (const std::uint64_t p : ref.pages()) EXPECT_TRUE(erat.contains(p));
  }
}

TEST(TlbOracle, OutcomesMatchListModelErat) {
  // The whole translation path against an ERAT list and a TLB list
  // model: every outcome of every translate() must agree, including
  // across the last-translation register and clear().
  P8_PROP(gen, 200, 0x7eb0a11) {
    sim::TlbConfig cfg;
    cfg.page_bytes = std::uint64_t{1} << gen.int_range(12, 16);
    cfg.erat_entries = static_cast<unsigned>(gen.int_range(1, 64));
    cfg.tlb_ways = static_cast<unsigned>(gen.pick({1, 2, 4, 8, 16}));
    cfg.tlb_entries = cfg.tlb_ways * (std::uint32_t{1} << gen.int_range(0, 5));
    sim::Tlb tlb(cfg);
    RefLru erat(cfg.erat_entries);
    RefCache l2(cfg.tlb_entries / cfg.tlb_ways, cfg.tlb_ways, cfg.page_bytes);
    const std::uint64_t pages = gen.range(1, 3 * cfg.erat_entries + 8);
    std::uint64_t addr = 0;
    for (int step = 0; step < 2000; ++step) {
      // Mostly random pages, with runs on the same page so the
      // last-translation register is exercised.
      if (!gen.chance(0.3))
        addr = gen.range(0, pages - 1) * cfg.page_bytes +
               gen.range(0, cfg.page_bytes - 1);
      if (gen.chance(0.002)) {
        tlb.clear();
        erat.clear();
        l2.clear();
      }
      std::optional<std::uint64_t> evicted;
      sim::TlbOutcome want = sim::TlbOutcome::kEratHit;
      if (!erat.touch_install(addr / cfg.page_bytes, evicted)) {
        want = sim::TlbOutcome::kTlbHit;
        if (!l2.touch(addr)) {
          want = sim::TlbOutcome::kWalk;
          l2.install(addr, false);
        }
      }
      ASSERT_EQ(tlb.translate(addr), want)
          << "erat=" << cfg.erat_entries << " tlb=" << cfg.tlb_entries << "/"
          << cfg.tlb_ways << " step=" << step;
    }
  }
}

}  // namespace
}  // namespace p8
