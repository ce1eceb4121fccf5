#include "sim/cache/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace p8::sim {

SetAssocCache::SetAssocCache(std::uint64_t capacity_bytes, unsigned ways,
                             std::uint64_t line_bytes)
    : capacity_(capacity_bytes), ways_(ways), line_bytes_(line_bytes) {
  P8_REQUIRE(ways_ >= 1 && ways_ <= kMaxWays,
             "a cache has 1..16 ways (the recency word holds 16 way numbers)");
  P8_REQUIRE(line_bytes_ > 0 && std::has_single_bit(line_bytes_),
             "line size must be a power of two");
  P8_REQUIRE(capacity_ % (static_cast<std::uint64_t>(ways_) * line_bytes_) == 0,
             "capacity must be a whole number of sets");
  line_shift_ = static_cast<std::uint64_t>(std::countr_zero(line_bytes_));
  sets_ = capacity_ / (static_cast<std::uint64_t>(ways_) * line_bytes_);
  P8_REQUIRE(sets_ >= 1, "capacity too small for the given geometry");
  sets_pow2_ = std::has_single_bit(sets_);
  if (sets_pow2_) {
    set_mask_ = sets_ - 1;
    set_shift_ = static_cast<unsigned>(std::countr_zero(sets_));
  } else {
    // ceil(2^64 / sets_); exact because a non-power-of-two never
    // divides 2^64.  quot() is exact for line <= ~2^63 / sets_, far
    // beyond any address the simulator produces; larger values take
    // the hardware-divide fallback.
    inv_sets_ = ~std::uint64_t{0} / sets_ + 1;
    div_safe_ = (~std::uint64_t{0} / sets_) >> 1;
  }
  stride_ = ways_ + 1;
  lru_shift_ = 4 * (ways_ - 1);
  rows_.resize(sets_ * stride_);
  P8_ENSURE(sets_ * ways_ * line_bytes_ == capacity_,
            "derived geometry must tile the capacity exactly");
  P8_ENSURE(rows_.size() == sets_ * stride_,
            "the row array must hold a recency word and every way of every "
            "set");
  P8_ENSURE(resident_lines() == 0, "a fresh cache must be empty");
  P8_ENSURE(order_is_permutation(rows_[0]),
            "a zeroed recency word must decode to a full way order");
}

bool SetAssocCache::order_is_permutation(std::uint64_t stored) const {
  const std::uint64_t order = stored ^ kIdentity;
  std::uint32_t seen = 0;
  for (unsigned p = 0; p < ways_; ++p)
    seen |= std::uint32_t{1} << ((order >> (4 * p)) & 0xF);
  return seen == (std::uint32_t{1} << ways_) - 1;
}

unsigned SetAssocCache::scan_set(const std::uint64_t* r, std::uint64_t want,
                                 unsigned& victim,
                                 bool& victim_invalid) const {
  // Collect the invalid ways as a bit mask instead of branching on the
  // first one: the lowest set bit is the first invalid way.
  std::uint32_t invalid = 0;
  for (unsigned w = 0; w < ways_; ++w) {
    const std::uint64_t m = r[1 + w];
    if ((m & ~kDirty) == want) return w;
    invalid |= static_cast<std::uint32_t>(~m & kValid) << w;
  }
  victim_invalid = invalid != 0;
  victim = victim_invalid ? static_cast<unsigned>(std::countr_zero(invalid))
                          : lru_way(r[0]);
  return kNoWay;
}

std::optional<SetAssocCache::Eviction> SetAssocCache::claim(
    std::uint64_t set, std::uint64_t* r, unsigned w, std::uint64_t meta) {
  const std::uint64_t old = r[1 + w];
  r[1 + w] = meta;
  promote(r, w);
  P8_ENSURE(order_is_permutation(r[0]),
            "the recency word must stay a permutation of the set's ways");
  if (!(old & kValid)) return std::nullopt;
  return Eviction{line_addr(set, tag_bits(old)), (old & kDirty) != 0};
}

bool SetAssocCache::touch_install(std::uint64_t addr) {
  std::uint64_t set, tag;
  split(addr, set, tag);
  std::uint64_t* const r = row(set);
  const std::uint64_t want = meta_of(tag, kValid);
  unsigned victim = 0;
  bool victim_invalid = false;
  const unsigned w = scan_set(r, want, victim, victim_invalid);
  if (w != kNoWay) {
    promote(r, w);
    return true;
  }
  claim(set, r, victim, want);
  P8_ENSURE(probe(addr), "touch_install must leave the line resident");
  return false;
}

bool SetAssocCache::touch_slot(std::uint64_t addr, Slot& slot) {
  std::uint64_t set, tag;
  split(addr, set, tag);
  std::uint64_t* const r = row(set);
  unsigned victim = 0;
  bool victim_invalid = false;
  const unsigned w = scan_set(r, meta_of(tag, kValid), victim, victim_invalid);
  if (w != kNoWay) {
    promote(r, w);
    return true;
  }
  slot.set = set;
  slot.way = victim;
  slot.invalid_way = victim_invalid;
  slot.recorded = true;
  P8_ENSURE(slot.way < ways_, "recorded victim way must lie inside the set");
  return false;
}

std::optional<SetAssocCache::Eviction> SetAssocCache::install_line_at(
    const Slot& slot, std::uint64_t addr, bool dirty) {
  std::uint64_t set, tag;
  split(addr, set, tag);
  std::uint64_t* const r = row(set);
  P8_INVARIANT(slot.recorded,
               "install_line_at needs a slot recorded by a touch_slot miss");
  P8_INVARIANT(slot.set == set,
               "slot was recorded for a different set than addr maps to");
  P8_INVARIANT(!probe(addr),
               "line resident at install_line_at: the recorded scan is stale");
  P8_INVARIANT(slot.invalid_way == !(r[1 + slot.way] & kValid),
               "slot victim validity changed since it was recorded");
  P8_INVARIANT(slot.invalid_way || slot.way == lru_way(r[0]),
               "slot victim is no longer the set's LRU way");
  const auto evicted =
      claim(set, r, slot.way, meta_of(tag, kValid | (dirty ? kDirty : 0)));
  P8_ENSURE(probe(addr), "install_line_at must leave the line resident");
  return evicted;
}

std::optional<bool> SetAssocCache::take(std::uint64_t addr) {
  std::uint64_t* const word = find_word(addr);
  if (word == nullptr) return std::nullopt;
  const bool dirty = (*word & kDirty) != 0;
  *word = 0;
  P8_ENSURE(!probe(addr), "take must remove the line it returned");
  return dirty;
}

SetAssocCache::AccessResult SetAssocCache::access(std::uint64_t addr) {
  if (touch(addr)) return {true, std::nullopt};
  return {false, install(addr)};
}

std::optional<std::uint64_t> SetAssocCache::install(std::uint64_t addr) {
  const auto ev = install_line(addr, /*dirty=*/false);
  if (!ev) return std::nullopt;
  return ev->line;
}

std::optional<SetAssocCache::Eviction> SetAssocCache::install_line(
    std::uint64_t addr, bool dirty) {
  std::uint64_t set, tag;
  split(addr, set, tag);
  std::uint64_t* const r = row(set);
  const std::uint64_t want = meta_of(tag, kValid);
  unsigned victim = 0;
  bool victim_invalid = false;
  // Reuse an existing entry (refresh), then an invalid way, then LRU.
  const unsigned w = scan_set(r, want, victim, victim_invalid);
  if (w != kNoWay) {
    promote(r, w);
    if (dirty) r[1 + w] |= kDirty;
    return std::nullopt;
  }
  const auto evicted = claim(set, r, victim, want | (dirty ? kDirty : 0));
  P8_ENSURE(probe(addr), "install_line must leave the line resident");
  P8_ENSURE(!evicted || evicted->line != (addr >> line_shift_ << line_shift_),
            "install_line must never report the installed line as evicted");
  return evicted;
}

bool SetAssocCache::mark_dirty(std::uint64_t addr) {
  std::uint64_t* const word = find_word(addr);
  if (word == nullptr) return false;
  *word |= kDirty;
  return true;
}

bool SetAssocCache::is_dirty(std::uint64_t addr) const {
  const std::uint64_t* const word = find_word(addr);
  return word != nullptr && (*word & kDirty) != 0;
}

bool SetAssocCache::invalidate(std::uint64_t addr) {
  std::uint64_t* const word = find_word(addr);
  if (word == nullptr) return false;
  *word = 0;
  return true;
}

void SetAssocCache::clear() {
  std::fill(rows_.begin(), rows_.end(), 0);
  P8_ENSURE(resident_lines() == 0, "clear must leave no resident lines");
}

std::uint64_t SetAssocCache::resident_lines() const {
  std::uint64_t n = 0;
  for (std::uint64_t set = 0; set < sets_; ++set) {
    const std::uint64_t* const r = row(set);
    for (unsigned w = 0; w < ways_; ++w) n += r[1 + w] & kValid;
  }
  return n;
}

}  // namespace p8::sim
