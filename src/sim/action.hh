/**
 * @file
 * InlineAction: a type-erased, move-only callable with fixed inline
 * storage and no heap fallback.
 *
 * The event hot path schedules millions of closures per replay; a
 * std::function there costs one heap allocation per event (libstdc++
 * only inlines captures up to 16 bytes). InlineAction stores the
 * callable in a 48-byte in-object buffer and *statically rejects*
 * anything larger, so scheduling an event never allocates. Every
 * capture used by the device, FTL, and replayer is checked at compile
 * time through emplace()'s static_asserts; use InlineAction::fits<F>()
 * to probe a callable's eligibility in tests or call sites.
 *
 * Layout: the buffer plus a single pointer to a static ops vtable
 * (invoke/relocate/destroy), 56 bytes total. One pointer instead of
 * three keeps the event queue's heap entries (time, sequence number,
 * action) small, and heap sifts move whole entries. Capture alignment
 * is capped at 8 for the same reason: no event capture holds
 * over-aligned state (pointers, ints, IoRequest).
 *
 * Size budget rationale: the largest production capture is the
 * replayer's retry closure, [this, IoRequest] = 8 + 40 = 48 bytes
 * (see DESIGN.md §11). Growing the budget grows every heap entry, so
 * prefer shrinking captures over raising kInlineBytes.
 */

#ifndef EMMCSIM_SIM_ACTION_HH
#define EMMCSIM_SIM_ACTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace emmcsim::sim {

/** Heap-free type-erased callable for the event path. */
class InlineAction
{
  public:
    /** Inline capture budget in bytes (see file comment). */
    static constexpr std::size_t kInlineBytes = 48;

    /** Capture alignment cap (see file comment). */
    static constexpr std::size_t kAlign = 8;

    /** @return true when callable @p F can be stored inline. */
    template <typename F>
    static constexpr bool
    fits()
    {
        using Fn = std::decay_t<F>;
        return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kAlign &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    InlineAction() noexcept = default;
    InlineAction(std::nullptr_t) noexcept {}

    /**
     * Wrap any callable whose state fits the inline budget. A capture
     * that is too large, over-aligned, or throwing-move fails to
     * compile here — shrink the capture (e.g. move bulky state behind
     * a pointer the callee owns) rather than raising kInlineBytes.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineAction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InlineAction(F &&fn) // NOLINT(bugprone-forwarding-reference-overload)
    {
        emplace(std::forward<F>(fn));
    }

    /**
     * Construct a callable directly in the inline buffer, destroying
     * any current occupant first. This is the event queue's schedule
     * path: the capture is built in place inside the heap entry, so a
     * schedule performs no InlineAction temporary.
     */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(!std::is_same_v<Fn, InlineAction>,
                      "emplace() takes a raw callable, not an "
                      "InlineAction; use move-assignment instead");
        static_assert(sizeof(Fn) <= kInlineBytes,
                      "event capture exceeds InlineAction's inline "
                      "budget; shrink the capture (DESIGN.md §11)");
        static_assert(alignof(Fn) <= kAlign,
                      "event capture over-aligned for InlineAction");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event captures must be nothrow-movable");
        reset();
        ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(fn));
        ops_ = &opsFor<Fn>;
    }

    InlineAction(InlineAction &&other) noexcept { moveFrom(other); }

    InlineAction &
    operator=(InlineAction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineAction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineAction(const InlineAction &) = delete;
    InlineAction &operator=(const InlineAction &) = delete;

    ~InlineAction() { reset(); }

    /** Run the wrapped callable; undefined when empty. */
    void operator()() { ops_->invoke(storage_); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    friend bool
    operator==(const InlineAction &a, std::nullptr_t) noexcept
    {
        return a.ops_ == nullptr;
    }
    friend bool
    operator!=(const InlineAction &a, std::nullptr_t) noexcept
    {
        return a.ops_ != nullptr;
    }

  private:
    /** Static per-callable-type vtable (one pointer per action). */
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, void *src) {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    void
    moveFrom(InlineAction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    alignas(kAlign) unsigned char storage_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace emmcsim::sim

#endif // EMMCSIM_SIM_ACTION_HH
