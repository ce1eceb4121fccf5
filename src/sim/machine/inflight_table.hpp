// Flat open-addressed map from a line address (or page number) to a
// value: InflightTable, the line -> completion-time MSHR bookkeeping of
// the latency probe, and the ERAT's page -> entry index (tlb.hpp).
//
// The probe consults its table on EVERY simulated access, so it is
// the single hottest lookup in the simulator.  An std::unordered_map
// pays a pointer chase per bucket plus node allocation per prefetch;
// this table keeps keys and values in two dense arrays with linear
// probing and backward-shift deletion, so the common miss (table holds
// a few dozen lines at most) resolves in one or two probes over one
// cache line of keys.
//
// Keys are cache-line addresses — always line-aligned — or page
// numbers, far below 2^64, so the all-ones value can never be a real
// key and serves as the empty sentinel.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contract.hpp"

namespace p8::sim {

template <typename Value>
class FlatLineMap {
 public:
  /// Starts with room for `capacity` slots (rounded up to a power of
  /// two); the table doubles whenever it would pass 7/8 full.
  explicit FlatLineMap(std::size_t capacity = kInitialCapacity) {
    rehash(std::bit_ceil(capacity));
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool contains(std::uint64_t line) const {
    return slot_of(line) != kNotFound;
  }

  /// Pointer to the value for `line`, or nullptr.
  const Value* find(std::uint64_t line) const {
    const std::size_t s = slot_of(line);
    return s == kNotFound ? nullptr : &value_[s];
  }

  /// Inserts or overwrites.
  void insert(std::uint64_t line, Value completion) {
    P8_INVARIANT(line != kEmpty,
                 "the all-ones line address is the empty sentinel and can "
                 "never be a real key (keys are line-aligned)");
    if ((size_ + 1) * 8 > key_.size() * 7) rehash(key_.size() * 2);
    P8_INVARIANT(size_ < key_.size(),
                 "the table must keep at least one empty slot or probe "
                 "chains would never terminate");
    std::size_t s = hash(line);
    while (key_[s] != kEmpty) {
      if (key_[s] == line) {
        value_[s] = completion;
        return;
      }
      s = (s + 1) & mask_;
    }
    key_[s] = line;
    value_[s] = completion;
    ++size_;
  }

  /// Removes `line` if present (backward-shift deletion keeps probe
  /// chains contiguous without tombstones).
  void erase(std::uint64_t line) {
    const std::size_t hole = slot_of(line);
    if (hole == kNotFound) return;
    erase_hole(hole);
    P8_ENSURE(slot_of(line) == kNotFound,
              "erase must leave no reachable slot for the erased line");
  }

  /// Removes the entry whose value pointer `found` was just returned
  /// by find() — the caller already paid for the lookup, so the slot is
  /// recovered from the pointer instead of re-probing.  Valid only
  /// while no insert/erase/clear intervened.
  void erase_found(const Value* found) {
    const auto hole = static_cast<std::size_t>(found - value_.data());
    P8_INVARIANT(hole < key_.size() && key_[hole] != kEmpty,
                 "erase_found requires a live pointer from find()");
    erase_hole(hole);
  }
  void clear() {
    std::fill(key_.begin(), key_.end(), kEmpty);
    size_ = 0;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kInitialCapacity = 64;

  std::size_t hash(std::uint64_t line) const {
    return static_cast<std::size_t>(line * 0x9e3779b97f4a7c15ULL >> shift_);
  }

  void erase_hole(std::size_t hole) {
    std::size_t probe = hole;
    for (;;) {
      probe = (probe + 1) & mask_;
      if (key_[probe] == kEmpty) break;
      const std::size_t home = hash(key_[probe]);
      // The entry at `probe` may move into `hole` only if its home
      // slot does not lie strictly between hole and probe.
      const bool movable = hole <= probe ? (home <= hole || home > probe)
                                         : (home <= hole && home > probe);
      if (movable) {
        key_[hole] = key_[probe];
        value_[hole] = value_[probe];
        hole = probe;
      }
    }
    key_[hole] = kEmpty;
    --size_;
  }

  std::size_t slot_of(std::uint64_t line) const {
    std::size_t s = hash(line);
    while (key_[s] != kEmpty) {
      if (key_[s] == line) return s;
      s = (s + 1) & mask_;
    }
    return kNotFound;
  }

  void rehash(std::size_t capacity) {
    P8_INVARIANT(std::has_single_bit(capacity),
                 "capacity must stay a power of two: probing wraps with a "
                 "mask, not a modulo");
    std::vector<std::uint64_t> old_key = std::move(key_);
    std::vector<Value> old_value = std::move(value_);
    key_.assign(capacity, kEmpty);
    value_.assign(capacity, Value{});
    mask_ = capacity - 1;
    shift_ = 64;
    while ((std::size_t{1} << (64 - shift_)) < capacity) --shift_;
    size_ = 0;
    for (std::size_t i = 0; i < old_key.size(); ++i)
      if (old_key[i] != kEmpty) insert(old_key[i], old_value[i]);
  }

  std::vector<std::uint64_t> key_;
  std::vector<Value> value_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

using InflightTable = FlatLineMap<double>;

}  // namespace p8::sim
