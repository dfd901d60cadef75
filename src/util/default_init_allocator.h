#ifndef OIPA_UTIL_DEFAULT_INIT_ALLOCATOR_H_
#define OIPA_UTIL_DEFAULT_INIT_ALLOCATOR_H_

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace oipa {

/// std::allocator whose argument-less construct() default-initialises
/// instead of value-initialising: resize() on a vector of trivial
/// elements sizes the storage without writing to it. The caller must
/// write every new slot before reading it; in exchange the first touch
/// of fresh pages happens in whichever (parallel) pass fills them, not
/// in a single-threaded zero-fill beforehand.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  using std::allocator<T>::allocator;

  // Containers rebind to their element type; without this member a
  // library whose std::allocator still declares rebind would hand them
  // a plain std::allocator.
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  template <typename U>
  void construct(U* p) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector whose resize() leaves new trivial elements uninitialised.
template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace oipa

#endif  // OIPA_UTIL_DEFAULT_INIT_ALLOCATOR_H_
