// Transparent-huge-page advice for large, randomly-indexed per-node arrays.
//
// The engines' hot arrays (scheduler contexts, flat-engine lanes) are ~100 B
// per node and indexed in wake order, not address order — at bench sizes
// (n = 2^20 and up) nearly every access misses the dTLB under 4 KiB pages.
// Backing the array with 2 MiB pages cuts the page count ~500x, so the walk
// all but disappears. Purely a cost knob: behaviour is identical whether the
// advice is honored, ignored (THP disabled), or unavailable (non-Linux).
//
// Order matters: madvise(MADV_HUGEPAGE) only changes how *future* faults are
// served; already-touched pages wait for khugepaged's slow background
// collapse. Callers must advise between reserve() (allocates, untouched) and
// resize() (first touch) — ReserveHuge does exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace emis {

/// Advises the kernel to serve faults in [base, base + bytes) with huge
/// pages. Only the 2 MiB-aligned interior is advised; small arrays are left
/// alone. Advisory — never fails observably.
inline void AdviseHugePages(void* base, std::size_t bytes) noexcept {
#if defined(__linux__)
  constexpr std::uintptr_t kHuge = std::uintptr_t{1} << 21;
  if (bytes < 2 * kHuge) return;  // no aligned interior worth the call
  const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(base);
  const std::uintptr_t first = (addr + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t last = (addr + bytes) & ~(kHuge - 1);
  if (last > first) {
    (void)madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#else
  (void)base;
  (void)bytes;
#endif
}

/// std::allocator whose value-less construct() default-initializes, so
/// resize() on a vector of a trivial T leaves the new elements unwritten.
/// For arrays a parallel pass fills completely: that pass is then the first
/// touch, and its page faults land on the writers instead of a serial
/// zero-fill.
template <typename T>
struct NoInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = NoInitAllocator<U>;
  };
  NoInitAllocator() noexcept = default;
  template <typename U>
  NoInitAllocator(const NoInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// reserve() + advise + resize(), in that order, so the first touch (the
/// value-initializing resize, or with NoInitAllocator the caller's fill)
/// faults huge pages directly instead of queueing for collapse.
template <typename T, typename Alloc>
void ReserveHuge(std::vector<T, Alloc>& vec, std::size_t count) {
  vec.reserve(count);
  AdviseHugePages(vec.data(), count * sizeof(T));
  vec.resize(count);
}

}  // namespace emis
