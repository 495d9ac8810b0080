// Move-only callable wrapper with small-buffer storage.
//
// std::function heap-allocates any capture larger than the
// implementation's tiny inline buffer (and libstdc++'s only fits a
// pointer or two), which made every Simulator::schedule_after a malloc.
// InlineFunction stores callables up to `Capacity` bytes inline and only
// falls back to the heap beyond that. stores_inline<F> says at compile
// time which path a callable takes, so a hot path can static_assert that
// it never allocates.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace cbps::common {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace<std::decay_t<F>>(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  /// Whether a callable of type `F` is stored in the inline buffer (no
  /// heap allocation) rather than behind an owning pointer.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  R operator()(Args... args) {
    return vt_->invoke(&buf_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    // dst == nullptr: destroy src. Otherwise move-construct into dst's
    // buffer and destroy src.
    void (*relocate)(void* src, void* dst);
  };

  template <typename F, typename... CtorArgs>
  void emplace(CtorArgs&&... ctor_args) {
    if constexpr (stores_inline<F>) {
      ::new (static_cast<void*>(&buf_)) F(std::forward<CtorArgs>(ctor_args)...);
      static const VTable vt = {
          [](void* buf, Args&&... args) -> R {
            return (*std::launder(reinterpret_cast<F*>(buf)))(
                std::forward<Args>(args)...);
          },
          [](void* src, void* dst) {
            F* f = std::launder(reinterpret_cast<F*>(src));
            if (dst != nullptr) ::new (dst) F(std::move(*f));
            f->~F();
          }};
      vt_ = &vt;
    } else {
      // Heap fallback: the buffer holds a single owning pointer.
      ::new (static_cast<void*>(&buf_))
          F*(new F(std::forward<CtorArgs>(ctor_args)...));
      static const VTable vt = {
          [](void* buf, Args&&... args) -> R {
            return (**std::launder(reinterpret_cast<F**>(buf)))(
                std::forward<Args>(args)...);
          },
          [](void* src, void* dst) {
            F** p = std::launder(reinterpret_cast<F**>(src));
            if (dst != nullptr) {
              ::new (dst) F*(*p);
            } else {
              delete *p;
            }
          }};
      vt_ = &vt;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    if (other.vt_ == nullptr) return;
    other.vt_->relocate(&other.buf_, &buf_);
    vt_ = other.vt_;
    other.vt_ = nullptr;
  }

  void reset() {
    if (vt_ != nullptr) {
      vt_->relocate(&buf_, nullptr);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity < sizeof(void*)
                                                   ? sizeof(void*)
                                                   : Capacity];
};

}  // namespace cbps::common
