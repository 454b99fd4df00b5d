#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/shard_annotations.h"

namespace cloudlb {

/// Move-only callable wrapper with small-buffer optimization.
///
/// Callables whose state fits `InlineBytes` (and is nothrow
/// move-constructible, so moves can be noexcept) live inside the wrapper:
/// constructing, moving and invoking them never touches the heap. Larger
/// callables fall back to one heap allocation, like std::function.
///
/// Differences from std::function that the event engine relies on:
///   - move-only, so captures may hold move-only state (a Message's
///     payload vector moves straight through without a copy);
///   - the inline budget is a template knob, not an implementation
///     secret, so "this capture is allocation-free" is a checkable
///     contract (see is_inline());
///   - moves are unconditionally noexcept, so containers of wrappers
///     relocate instead of copying.
template <typename Signature, std::size_t InlineBytes = 48>
class SmallFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class SmallFunction<R(Args...), InlineBytes> {
 public:
  SmallFunction() noexcept = default;
  SmallFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, SmallFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buffer_)) D(std::forward<F>(f));
      ops_ = &InlineModel<D>::ops;
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(buffer_, &heap, sizeof(heap));
      ops_ = &HeapModel<D>::ops;
    }
  }

  // The move ops, reset and operator() are warm-path: for inline
  // callables (the engine's contract for every runtime callback) they
  // never touch the heap. Only the converting constructor's over-budget
  // fallback allocates, and the whole-program warm check flags any
  // over-SBO construction it can see on an annotated path.
  CLB_WARM_PATH SmallFunction(SmallFunction&& other) noexcept
      : ops_{other.ops_} {
    if (ops_ != nullptr) {
      relocate_from(other);
      other.ops_ = nullptr;
    }
  }

  CLB_WARM_PATH SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  /// Destroys the held callable, if any.
  CLB_WARM_PATH void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const SmallFunction& f, std::nullptr_t) noexcept {
    return !static_cast<bool>(f);
  }

  CLB_WARM_PATH R operator()(Args... args) {
    return ops_->invoke(buffer_, std::forward<Args>(args)...);
  }

  /// Whether the callable (if any) is stored inline, i.e. this wrapper
  /// owns no heap memory. The engine's allocation-free contract is
  /// `is_inline()` for every runtime callback (see docs/event-engine.md).
  bool is_inline() const noexcept {
    return ops_ == nullptr || ops_->inline_storage;
  }

  /// Compile-time query: would callable type `F` be stored inline?
  template <typename F>
  static constexpr bool fits_inline() noexcept {
    return kFitsInline<std::decay_t<F>>;
  }

 private:
  /// `relocate` and `destroy` are null for a trivially copyable inline
  /// callable (a capture of pointers and scalars, like the core's
  /// completion closure): its bytes move with one fixed-size memcpy and
  /// nothing needs destroying, so a move makes no indirect call.
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    void (*relocate)(void* from, void* to) noexcept;  ///< move to, destroy from
    void (*destroy)(void* self) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= InlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr bool kTrivialInline =
      kFitsInline<D> && std::is_trivially_copyable_v<D>;

  /// Takes over `other`'s callable; ops_ already equals other.ops_.
  CLB_WARM_PATH void relocate_from(SmallFunction& other) noexcept {
    if (ops_->relocate == nullptr) {
      std::memcpy(buffer_, other.buffer_, InlineBytes);
    } else {
      ops_->relocate(other.buffer_, buffer_);
    }
  }

  template <typename D>
  struct InlineModel {
    static D* self(void* s) noexcept {
      return std::launder(reinterpret_cast<D*>(s));
    }
    static R invoke(void* s, Args&&... args) {
      return (*self(s))(std::forward<Args>(args)...);
    }
    static void relocate(void* from, void* to) noexcept {
      D* f = self(from);
      ::new (to) D(std::move(*f));
      f->~D();
    }
    static void destroy(void* s) noexcept { self(s)->~D(); }
    static constexpr Ops ops = kTrivialInline<D>
                                   ? Ops{&invoke, nullptr, nullptr, true}
                                   : Ops{&invoke, &relocate, &destroy, true};
  };

  template <typename D>
  struct HeapModel {
    static D* self(void* s) noexcept {
      D* p;
      std::memcpy(&p, s, sizeof(p));
      return p;
    }
    static R invoke(void* s, Args&&... args) {
      return (*self(s))(std::forward<Args>(args)...);
    }
    static void relocate(void* from, void* to) noexcept {
      std::memcpy(to, from, sizeof(D*));
    }
    static void destroy(void* s) noexcept { delete self(s); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, false};
  };

  static_assert(InlineBytes >= sizeof(void*),
                "inline buffer must at least hold the heap fallback pointer");

  alignas(std::max_align_t) std::byte buffer_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace cloudlb
