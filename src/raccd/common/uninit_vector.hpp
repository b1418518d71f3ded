// A std::vector that allocates without writing: storage for per-way
// payloads (cache, directory and TLB entries) that every caller writes at
// fill before it reads them, so a new structure pays only for its tags.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace raccd {

/// std::allocator whose value-less construct() default-initializes: resizing
/// a vector of a trivial type leaves the new elements unwritten.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  /// Copies bytes: copying a container copies its never-written elements
  /// too, and a byte copy reads no indeterminate value.
  template <typename U>
  void construct(U* p, const U& src) noexcept {
    static_assert(std::is_trivially_copyable_v<U>);
    std::memcpy(static_cast<void*>(p), static_cast<const void*>(&src), sizeof(U));
  }
};

template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

/// Byte that debug builds write over fresh payloads: a read before the first
/// write then sees neither zero nor a plausible value.
inline constexpr unsigned char kPayloadPoison = 0xA5;

/// Resize `v` to `n` unwritten elements. Where RACCD_DEBUG_ASSERT is live
/// (no NDEBUG) they are filled with kPayloadPoison instead, so a payload
/// read before its fill changes results rather than reading zeroed heap.
template <typename T>
void resize_unwritten(UninitVector<T>& v, std::size_t n) {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                    std::is_trivially_copyable_v<T>,
                "payloads must be trivial so that allocation writes nothing");
  v.resize(n);
#ifndef NDEBUG
  std::memset(static_cast<void*>(v.data()), kPayloadPoison, n * sizeof(T));
#endif
}

}  // namespace raccd
