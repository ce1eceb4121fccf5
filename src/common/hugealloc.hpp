// Huge-page-backed allocator for large, randomly-indexed arrays.
//
// The simulator's big metadata arrays (the victim-pool and L4 tag rows
// are megabytes to tens of megabytes) are probed at cache-set granularity
// in data-dependent order.  On 4 KiB host pages that sprays thousands
// of pages and turns every probe into a likely host-dTLB miss — which
// also silently drops the __builtin_prefetch hints the hot path issues
// (x86 drops prefetches that would need a page walk).  Advising the
// kernel to back these arrays with 2 MiB transparent huge pages
// collapses them onto a handful of TLB entries.
//
// Purely a host-performance hint: allocation contents and simulator
// behaviour are unchanged, and on non-Linux hosts (or THP disabled)
// this degrades to a plain aligned allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace p8::common {

template <class T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <class U>
  HugePageAllocator(const HugePageAllocator<U>&) {}

  static constexpr std::size_t kHugeBytes = 2ull << 20;

  T* allocate(std::size_t n) {
    // n * sizeof(T) overflowing SIZE_MAX would wrap to a tiny
    // allocation that the caller then indexes far past.
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugeBytes && bytes <= SIZE_MAX - (kHugeBytes - 1)) {
      // Round to a whole number of huge pages: madvise-mode THP only
      // collapses fully-covered, aligned 2 MiB extents.
      const std::size_t rounded = (bytes + kHugeBytes - 1) & ~(kHugeBytes - 1);
      if (void* p = std::aligned_alloc(kHugeBytes, rounded)) {
#if defined(__linux__)
        madvise(p, rounded, MADV_HUGEPAGE);
#endif
        return static_cast<T*>(p);
      }
    }
    void* p = std::malloc(bytes ? bytes : 1);
    if (!p) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  // Both branches above are freeable with free(); the size-based split
  // in allocate() needs no bookkeeping here.
  void deallocate(T* p, std::size_t) { std::free(p); }

  template <class U>
  bool operator==(const HugePageAllocator<U>&) const {
    return true;
  }
};

}  // namespace p8::common
