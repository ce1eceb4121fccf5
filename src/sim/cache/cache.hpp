// Set-associative cache model with exact true-LRU replacement.
//
// This is the building block for every level of the POWER8 hierarchy
// (L1D, L2, local L3, the NUCA remote-L3 pool, and the Centaur L4) and
// for the second-level TLB.  It tracks tags only — the simulator cares
// about hit/miss behaviour and evictions (for victim forwarding), not
// data contents.  The fully associative ERAT has its own structure
// (`Erat`, tlb.hpp).
//
// Layout is one flat array of 64-bit words, one row per set: the set's
// recency word followed by one packed `(tag << 2) | state` word per
// way.  The recency word lists the set's way numbers from MRU to LRU,
// four bits each — hence at most 16 ways — so a hit or an install moves
// its way to the front with a few shifts, and the LRU victim is the
// word's last way number.  A set probe reads one contiguous run of
// ways + 1 words, and every way costs 8 host bytes.  Set/tag
// extraction uses shift/mask when the set count is a power of two —
// the common case for every POWER8 level — falling back to a
// reciprocal multiply only for irregular geometries.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/hugealloc.hpp"

namespace p8::sim {

class SetAssocCache {
 public:
  /// The recency word holds 16 four-bit way numbers.
  static constexpr unsigned kMaxWays = 16;

  /// `capacity_bytes` must be a multiple of `ways * line_bytes`;
  /// `ways` must lie in 1..kMaxWays; `line_bytes` must be a power of
  /// two.
  SetAssocCache(std::uint64_t capacity_bytes, unsigned ways,
                std::uint64_t line_bytes);

  std::uint64_t capacity_bytes() const { return capacity_; }
  unsigned ways() const { return ways_; }
  std::uint64_t line_bytes() const { return line_bytes_; }
  std::uint64_t sets() const { return sets_; }

  /// Looks up the line containing `addr` WITHOUT modifying state.
  bool probe(std::uint64_t addr) const { return find_word(addr) != nullptr; }

  /// Looks up and, on hit, promotes to MRU.  Does not allocate.
  bool touch(std::uint64_t addr) {
    std::uint64_t set, tag;
    split(addr, set, tag);
    std::uint64_t* const r = row(set);
    const unsigned w = find_in(r, meta_of(tag, kValid));
    if (w == kNoWay) return false;
    promote(r, w);
    return true;
  }

  /// Sentinel for slot_victim_line: no line would be evicted.
  static constexpr std::uint64_t kNoVictim = ~std::uint64_t{0};

  /// Where a miss's subsequent install would land, recorded by
  /// touch_slot() so install_line_at() can reuse the way scan instead
  /// of repeating it.  Only meaningful while the recorded set is
  /// untouched (see install_line_at).
  struct Slot {
    std::uint64_t set = 0;     ///< set the scan covered
    unsigned way = 0;          ///< the victim way within that set
    bool invalid_way = false;  ///< victim is an invalid (empty) way
    bool recorded = false;     ///< set by a touch_slot() miss
  };

  /// touch() that, on a miss, records in `slot` the way a subsequent
  /// install_line(addr) would claim from this set as it stands (first
  /// invalid way, else the LRU way).  State changes are exactly
  /// touch()'s.
  bool touch_slot(std::uint64_t addr, Slot& slot);

  /// Line currently held by the slot's victim way, or kNoVictim when
  /// the victim is an invalid way.  Used to prefetch the downstream
  /// set the eviction will cast into, ahead of the install.
  std::uint64_t slot_victim_line(const Slot& slot) const {
    return slot.invalid_way
               ? kNoVictim
               : line_addr(slot.set, tag_bits(row(slot.set)[1 + slot.way]));
  }

  /// Set index `addr` maps to — for callers deciding whether an
  /// intervening install collided with a recorded Slot.
  std::uint64_t set_index(std::uint64_t addr) const { return set_of(addr); }

  /// Fused touch-else-install: one way scan that either promotes the
  /// resident line to MRU (returns true) or installs it clean over the
  /// first invalid way, else the LRU way (returns false).  State ends
  /// up exactly as `touch(addr)` followed — on the miss — by
  /// `install(addr)`, but the set is scanned once instead of twice.
  /// The eviction is discarded, so this fits the TLB, where cast-outs
  /// have no downstream.
  bool touch_install(std::uint64_t addr);

  /// Fused probe + is_dirty + invalidate: removes the line if present
  /// and returns its dirty state, scanning the set once.  nullopt when
  /// the line was not resident.  The recency order is untouched,
  /// exactly as the three separate calls leave it.
  std::optional<bool> take(std::uint64_t addr);

  /// Demand access: on hit promotes to MRU and returns {true, nullopt};
  /// on miss allocates the line and returns {false, evicted_line_addr}
  /// (nullopt when an invalid way was used).
  struct AccessResult {
    bool hit = false;
    std::optional<std::uint64_t> evicted;
  };
  AccessResult access(std::uint64_t addr);

  /// Installs a line (e.g. a victim cast-out from an upper level)
  /// without counting as a demand access.  Returns the evicted line.
  std::optional<std::uint64_t> install(std::uint64_t addr);

  /// A line pushed out by an install, with its dirty state — the
  /// hierarchy uses this to route write-backs.
  struct Eviction {
    std::uint64_t line = 0;
    bool dirty = false;
  };

  /// Like install(), with dirty tracking: the installed line adopts
  /// `dirty` (OR-ed with any existing dirty state on a refresh).
  std::optional<Eviction> install_line(std::uint64_t addr, bool dirty);

  /// install_line(addr, dirty) that reuses `slot` instead of scanning.
  /// ONLY valid when no mutation of this cache has touched slot.set
  /// since the touch_slot() miss that recorded it — then the rescan
  /// would find the identical candidates (addr still absent, same
  /// first invalid way or LRU way) and this produces bit-identical
  /// state and eviction.  Callers must fall back to install_line()
  /// whenever an intervening install may have landed in the same set
  /// (checked via set_index()).
  std::optional<Eviction> install_line_at(const Slot& slot, std::uint64_t addr,
                                          bool dirty);

  /// Marks the line dirty if present; returns whether it was found.
  bool mark_dirty(std::uint64_t addr);

  /// True if present and dirty.
  bool is_dirty(std::uint64_t addr) const;

  /// Removes the line if present; returns whether it was present.
  bool invalidate(std::uint64_t addr);

  /// Drops all contents: every row returns to the all-zero state of a
  /// fresh cache, so post-clear replacement order cannot be skewed by
  /// pre-clear state.
  void clear();

  /// Number of valid lines currently resident.
  std::uint64_t resident_lines() const;

  /// Hints the host CPU to start pulling in `addr`'s set row.  The
  /// large levels (victim pool, L4) dwarf the host LLC, so an un-hinted
  /// way scan stalls on memory loads; issuing the hint while earlier
  /// levels are still being searched overlaps those misses.  Purely a
  /// performance hint — no simulator state is read or written.
  void prefetch_set(std::uint64_t addr) const {
    const std::uint64_t* const r = row(set_of(addr));
    // Every host line the row spans (64-byte lines; rows are not
    // line-aligned, so a 17-word row can touch three).
    const auto last = reinterpret_cast<std::uintptr_t>(r + stride_ - 1);
    for (auto p = reinterpret_cast<std::uintptr_t>(r) & ~std::uintptr_t{63};
         p <= last; p += 64)
      __builtin_prefetch(reinterpret_cast<const void*>(p));
  }

 private:
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;
  static constexpr unsigned kNoWay = ~0u;

  /// A way's word packs the tag and the state bits ((tag << 2) |
  /// state), so a way scan issues one load per way and the hit test is
  /// one masked compare.  Tags are line addresses shifted down by the
  /// line and set bits, so the two spare low bits always exist.  An
  /// invalid way is the zero word.
  static constexpr std::uint64_t meta_of(std::uint64_t tag,
                                         std::uint64_t state) {
    return (tag << 2) | state;
  }
  static constexpr std::uint64_t tag_bits(std::uint64_t meta) {
    return meta >> 2;
  }

  /// The recency word holds the order nibble-per-position (position 0
  /// = MRU), stored XOR this identity order so that a zeroed row is an
  /// empty set in identity order.  Positions at or beyond `ways_` keep
  /// numbers >= ways_, which no way search can match.
  static constexpr std::uint64_t kIdentity = 0xFEDCBA9876543210ull;
  static constexpr std::uint64_t kNibbleLows = 0x1111111111111111ull;
  static constexpr std::uint64_t kNibbleHighs = 0x8888888888888888ull;

  /// The least recently used way of a row's recency word.
  unsigned lru_way(std::uint64_t stored) const {
    return static_cast<unsigned>(((stored ^ kIdentity) >> lru_shift_) & 0xF);
  }

  /// Moves `way` to the MRU position of row `r`'s recency word: a SWAR
  /// search for the nibble holding `way`, then the nibbles before it
  /// shift up one position.  The lowest nibble the has-zero test flags
  /// is exact (a borrow only runs upward), and `way` is listed exactly
  /// once below position ways_.
  static void promote(std::uint64_t* r, unsigned way) {
    const std::uint64_t order = r[0] ^ kIdentity;
    const std::uint64_t x = order ^ (way * kNibbleLows);
    const std::uint64_t flags = (x - kNibbleLows) & ~x & kNibbleHighs;
    P8_INVARIANT(flags != 0, "the recency word must list every way");
    const std::uint64_t top = flags & (~flags + 1);  // bit 4p + 3
    const std::uint64_t before = (top >> 3) - 1;     // positions 0..p-1
    const std::uint64_t through = (top << 1) - 1;    // positions 0..p
    r[0] = ((order & ~through) | ((order & before) << 4) | way) ^ kIdentity;
  }

  /// True when the first ways_ positions of a recency word list every
  /// way once.  Only called from contract checks.
  bool order_is_permutation(std::uint64_t stored) const;

  /// The row of `set`: its recency word, then one word per way.
  std::uint64_t* row(std::uint64_t set) { return rows_.data() + set * stride_; }
  const std::uint64_t* row(std::uint64_t set) const {
    return rows_.data() + set * stride_;
  }

  /// Way of row `r` holding the valid line `want` (its dirty bit
  /// masked out), or kNoWay.  Inline: this scan runs several times per
  /// simulated load.
  unsigned find_in(const std::uint64_t* r, std::uint64_t want) const {
    for (unsigned w = 0; w < ways_; ++w)
      if ((r[1 + w] & ~kDirty) == want) return w;
    return kNoWay;
  }

  /// The word of the valid way holding `addr`'s line, or nullptr — the
  /// lookup behind probe/mark_dirty/is_dirty/invalidate/take.
  const std::uint64_t* find_word(std::uint64_t addr) const {
    std::uint64_t set, tag;
    split(addr, set, tag);
    const std::uint64_t* const r = row(set);
    const unsigned w = find_in(r, meta_of(tag, kValid));
    return w == kNoWay ? nullptr : r + 1 + w;
  }
  std::uint64_t* find_word(std::uint64_t addr) {
    return const_cast<std::uint64_t*>(std::as_const(*this).find_word(addr));
  }

  /// The one way scan behind every install: returns the hit way, or
  /// kNoWay with `victim` set to the way an install claims — the first
  /// invalid way, else the LRU way — and `victim_invalid` telling
  /// which kind it is.
  unsigned scan_set(const std::uint64_t* r, std::uint64_t want,
                    unsigned& victim, bool& victim_invalid) const;

  /// Claims way `w` of row `r` for `meta` at MRU; returns what the way
  /// held (nullopt when it was invalid).
  std::optional<Eviction> claim(std::uint64_t set, std::uint64_t* r,
                                unsigned w, std::uint64_t meta);

  /// floor(line / sets_) for irregular set counts without a hardware
  /// divide: multiply by the precomputed ceil(2^64 / sets_) and keep
  /// the high word (Granlund–Montgomery).  Exact for line values up to
  /// div_safe_; beyond that (never reached by realistic addresses) it
  /// falls back to the real division.
  std::uint64_t quot(std::uint64_t line) const {
    if (line > div_safe_) return line / sets_;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(line) * inv_sets_) >> 64);
  }

  /// Set index and tag in one step, sharing the quotient when the set
  /// count is not a power of two (one multiply instead of two
  /// serialized divides on the way-scan critical path).
  void split(std::uint64_t addr, std::uint64_t& set, std::uint64_t& tag) const {
    const std::uint64_t line = addr >> line_shift_;
    if (sets_pow2_) {
      set = line & set_mask_;
      tag = line >> set_shift_;
    } else {
      tag = quot(line);
      set = line - tag * sets_;
    }
  }

  std::uint64_t set_of(std::uint64_t addr) const {
    const std::uint64_t line = addr >> line_shift_;
    return sets_pow2_ ? (line & set_mask_) : (line - quot(line) * sets_);
  }
  std::uint64_t line_addr(std::uint64_t set, std::uint64_t tag) const {
    const std::uint64_t line =
        sets_pow2_ ? ((tag << set_shift_) | set) : (tag * sets_ + set);
    return line << line_shift_;
  }

  std::uint64_t capacity_;
  unsigned ways_;
  std::uint64_t line_bytes_;
  std::uint64_t line_shift_;
  std::uint64_t sets_;
  bool sets_pow2_;
  std::uint64_t set_mask_ = 0;   // sets_ - 1 when sets_ is a power of two
  unsigned set_shift_ = 0;       // log2(sets_) when sets_ is a power of two
  std::uint64_t inv_sets_ = 0;   // ceil(2^64 / sets_) when not a power of two
  std::uint64_t div_safe_ = 0;   // largest line quot() handles exactly
  unsigned stride_;              // words per row: ways_ + 1
  unsigned lru_shift_;           // 4 * (ways_ - 1): the LRU position
  /// sets_ rows of stride_ words, on huge-page-backed memory (see
  /// hugealloc.hpp).  All zero = empty.
  std::vector<std::uint64_t, common::HugePageAllocator<std::uint64_t>> rows_;
};

}  // namespace p8::sim
