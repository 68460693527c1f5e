// Small-buffer-optimized, move-only callback. The simulator schedules tens of
// millions of events per run and nearly every one of them captures a couple of
// pointers plus at most a Hash32 — `std::function` heap-allocates for anything
// beyond ~16 bytes, which made the allocator the hottest symbol in the gossip
// profile. `Callback` stores any nothrow-move-constructible callable of up to
// kInlineSize bytes inline (64 bytes covers every capture in the relay
// pipeline: NewBlock [2 ptr + shared_ptr], announcements [2 ptr + Hash32 +
// u64], tx batches [2 ptr + 2 shared_ptr]) and only falls back to the heap for
// oversized or throwing-move captures.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ethsim::sim {

class Callback {
 public:
  // Inline storage: large enough for every hot-path capture (see header
  // comment). Raising this trades Callback footprint in the slot arena for
  // fewer heap fallbacks; 64 puts sizeof(Callback) at 80 (72 rounded up to
  // the 16-byte alignment).
  static constexpr std::size_t kInlineSize = 64;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  Callback() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    Emplace<D>(std::forward<F>(f));
  }

  Callback(Callback&& other) noexcept { MoveFrom(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      MoveFrom(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // True when the held callable lives in the inline buffer (exposed for the
  // unit tests that pin the SBO contract).
  bool stored_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_stored;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Moves the callable from src storage into dst storage and ends src's
    // lifetime. Callers clear src's ops_ afterwards, so destroy never runs on
    // a moved-from payload.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_stored;
  };

  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineSize && alignof(F) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  struct InlineOps {
    static F* Get(void* p) noexcept { return std::launder(reinterpret_cast<F*>(p)); }
    static void Invoke(void* p) { (*Get(p))(); }
    static void Relocate(void* dst, void* src) noexcept {
      F* from = Get(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void Destroy(void* p) noexcept { Get(p)->~F(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy, true};
  };

  template <typename F>
  struct HeapOps {
    static F* Get(void* p) noexcept {
      return *std::launder(reinterpret_cast<F**>(p));
    }
    static void Invoke(void* p) { (*Get(p))(); }
    static void Relocate(void* dst, void* src) noexcept {
      ::new (dst) F*(Get(src));  // steal the pointer
    }
    static void Destroy(void* p) noexcept { delete Get(p); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy, false};
  };

  template <typename D, typename Arg>
  void Emplace(Arg&& arg) {
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<Arg>(arg));
      ops_ = &InlineOps<D>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<Arg>(arg)));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  void MoveFrom(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace ethsim::sim
