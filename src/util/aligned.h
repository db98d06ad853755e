#ifndef MDE_UTIL_ALIGNED_H_
#define MDE_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mde {

/// Minimal allocator that over-aligns every allocation to `Align` bytes.
/// Column blocks and bundle attribute blocks use 64 (one cache line), so
/// SIMD loads never split a line and the AVX2 kernels may use aligned
/// moves on block starts. Zero-size allocations still return a unique,
/// aligned pointer (operator new guarantees this).
///
/// Elements are DEFAULT-initialised, not value-initialised: `resize(n)` and
/// the `(n)` constructor leave trivially-constructible elements (every
/// arithmetic block type here) uninitialised, so an 80 MB bundle block is
/// first touched by the pool workers that fill it rather than zeroed on the
/// calling thread. Pass a value — `assign(n, 0)`, `resize(n, 0)`, `push_back(0)` —
/// wherever zeros are needed.
template <typename T, size_t Align = 64>
class AlignedAllocator {
 public:
  static_assert(Align >= alignof(T), "Align must not weaken T's alignment");
  static_assert((Align & (Align - 1)) == 0, "Align must be a power of two");

  using value_type = T;
  using size_type = size_t;
  using difference_type = ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  /// Default-initialising construct: what makes `resize(n)` skip the fill.
  template <typename U>
  void construct(U* p) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// std::vector whose data() is 64-byte aligned. Drop-in replacement for the
/// hot block vectors; iterators/element access are unchanged, but
/// `resize(n)` does not zero (see AlignedAllocator): every bare resize
/// must be followed by a pass that writes each new element.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

/// True when `p` is aligned to `align` bytes. For debug asserts at kernel
/// entry points.
inline bool IsAligned(const void* p, size_t align) {
  return (reinterpret_cast<uintptr_t>(p) & (align - 1)) == 0;
}

}  // namespace mde

#endif  // MDE_UTIL_ALIGNED_H_
