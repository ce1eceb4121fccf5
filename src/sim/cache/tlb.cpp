#include "sim/cache/tlb.hpp"

#include <bit>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace p8::sim {

Erat::Erat(unsigned entries)
    // At most half full, so a miss's lookup, erase and insert each
    // probe a bucket or two (near the default 7/8 ceiling an
    // unsuccessful linear probe averages several buckets).
    : nodes_(entries), index_(2 * std::size_t{entries}) {
  P8_REQUIRE(entries >= 1, "the ERAT needs at least one entry");
}

void Erat::unlink(std::uint32_t n) {
  Node& node = nodes_[n];
  (node.prev == kNone ? head_ : nodes_[node.prev].next) = node.next;
  (node.next == kNone ? tail_ : nodes_[node.next].prev) = node.prev;
}

void Erat::push_front(std::uint32_t n) {
  nodes_[n].prev = kNone;
  nodes_[n].next = head_;
  (head_ == kNone ? tail_ : nodes_[head_].prev) = n;
  head_ = n;
}

bool Erat::touch_install(std::uint64_t page) {
  std::uint32_t n = kNone;
  if (const std::uint32_t* const hit = index_.find(page)) {
    n = *hit;
    if (n != head_) {
      unlink(n);
      push_front(n);
    }
    return true;
  }
  if (used_ < nodes_.size()) {
    n = used_++;
  } else {
    n = tail_;
    unlink(n);
    index_.erase(nodes_[n].page);
  }
  nodes_[n].page = page;
  index_.insert(page, n);
  push_front(n);
  P8_ENSURE(head_ == n && index_.size() == used_,
            "an installed page must be resident at MRU");
  return false;
}

void Erat::clear() {
  index_.clear();
  head_ = tail_ = kNone;
  used_ = 0;
}

namespace {

// The second-level TLB is modelled as a cache over page-granular
// "lines": capacity = entries * page_bytes.
SetAssocCache make_tlb(const TlbConfig& c) {
  return SetAssocCache(static_cast<std::uint64_t>(c.tlb_entries) * c.page_bytes,
                       c.tlb_ways, c.page_bytes);
}

}  // namespace

Tlb::Tlb(const TlbConfig& config)
    : config_(config), erat_(config.erat_entries), tlb_(make_tlb(config)) {
  P8_REQUIRE(config.tlb_entries >= 1,
             "translation structures need at least one entry");
  P8_REQUIRE(config.tlb_entries % config.tlb_ways == 0,
             "TLB entries must be a whole number of sets");
  // page_bytes is a power of two (the TLB constructor enforced it).
  page_shift_ = static_cast<unsigned>(std::countr_zero(config.page_bytes));
  P8_ENSURE(erat_.entries() == config.erat_entries,
            "the ERAT must hold every configured entry");
  P8_ENSURE(tlb_.sets() * tlb_.ways() == config.tlb_entries,
            "TLB geometry must account for every configured entry");
}

TlbOutcome Tlb::translate(std::uint64_t addr) {
  const std::uint64_t page = addr >> page_shift_;
  // Last-translation register: the previous access resolved this very
  // page, so it is ERAT-resident and already the ERAT's MRU entry —
  // the touch would only re-promote it, which cannot change any future
  // victim choice.  Skip the ERAT lookup outright.
  if (page == last_page_) {
    events_.erat_hit.add();
    return TlbOutcome::kEratHit;
  }
  last_page_ = page;
  // Hit promotes to MRU; a miss installs over the LRU entry in the
  // same call (ERAT cast-outs have no downstream).
  if (erat_.touch_install(page)) {
    events_.erat_hit.add();
    return TlbOutcome::kEratHit;
  }
  events_.erat_miss.add();
  // One scan: a TLB hit promotes, a walk installs the page.
  if (tlb_.touch_install(addr)) {
    events_.tlb_hit.add();
    return TlbOutcome::kTlbHit;
  }
  events_.walk.add();
  P8_ENSURE(erat_.contains(page) && tlb_.probe(addr),
            "a walk must leave the page resident in both ERAT and TLB");
  return TlbOutcome::kWalk;
}

void Tlb::attach_counters(CounterRegistry* registry,
                          const std::string& prefix) {
  const std::string p = prefix + ".";
  events_.erat_hit = make_counter(registry, p, "erat.hit");
  events_.erat_miss = make_counter(registry, p, "erat.miss");
  events_.tlb_hit = make_counter(registry, p, "tlb.hit");
  events_.walk = make_counter(registry, p, "walk");
}

double Tlb::penalty_ns(TlbOutcome outcome) const {
  switch (outcome) {
    case TlbOutcome::kEratHit:
      return 0.0;
    case TlbOutcome::kTlbHit:
      return config_.erat_miss_ns;
    case TlbOutcome::kWalk:
      return config_.walk_ns;
  }
  return 0.0;
}

void Tlb::clear() {
  erat_.clear();
  tlb_.clear();
  last_page_ = ~std::uint64_t{0};
  P8_ENSURE(erat_.size() == 0 && tlb_.resident_lines() == 0,
            "clear must empty both translation structures");
}

}  // namespace p8::sim
