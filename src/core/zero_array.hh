/**
 * @file
 * ZeroArray: a fixed-size array of trivially-copyable elements backed
 * by an anonymous private mapping.
 *
 * The device's big tables (the L2P map, the per-page lpn/valid/seq
 * tables of every flash pool) are sized by capacity, but a run touches
 * only the part its trace writes. A fresh mapping reads as zero pages
 * that the kernel faults in on first write, so constructing an array
 * costs one mmap and resident memory grows with the elements a run
 * actually stores. Owners pick encodings in which the all-zero bit
 * pattern means "empty" (unmapped, unwritten, unstamped); see
 * DESIGN.md §17.
 *
 * Two rules keep the pages untouched: clear() hands every page back
 * instead of writing zeros, and zero() stores only over elements that
 * are not already zero. Reading an untouched element maps the shared
 * zero page and adds nothing to the resident set.
 *
 * One mapping is one allocation to AddressSanitizer, which cannot
 * place redzones inside it, so operator[] checks bounds with
 * EMMCSIM_DCHECK (active in Debug and sanitizer builds).
 */

#ifndef EMMCSIM_CORE_ZERO_ARRAY_HH
#define EMMCSIM_CORE_ZERO_ARRAY_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace emmcsim::core {

template <typename T>
class ZeroArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ZeroArray elements are raw bytes in a mapping");

  public:
    ZeroArray() noexcept = default;

    /**
     * @p n zero elements. Throws std::bad_alloc when the mapping
     * cannot be made.
     */
    explicit ZeroArray(std::size_t n) : data_(map(n)), size_(n) {}

    ~ZeroArray() { unmap(data_, size_); }

    ZeroArray(const ZeroArray &) = delete;
    ZeroArray &operator=(const ZeroArray &) = delete;

    ZeroArray(ZeroArray &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }

    ZeroArray &
    operator=(ZeroArray &&o) noexcept
    {
        if (this != &o) {
            unmap(data_, size_);
            data_ = std::exchange(o.data_, nullptr);
            size_ = std::exchange(o.size_, 0);
        }
        return *this;
    }

    std::size_t size() const { return size_; }

    T &
    operator[](std::size_t i)
    {
        EMMCSIM_DCHECK(i < size_, "ZeroArray index out of range");
        return data_[i];
    }

    const T &
    operator[](std::size_t i) const
    {
        EMMCSIM_DCHECK(i < size_, "ZeroArray index out of range");
        return data_[i];
    }

    std::span<T> span() { return {data_, size_}; }
    std::span<const T> span() const { return {data_, size_}; }

    /** @return true when element @p i is all-zero bits. */
    bool
    isZero(std::size_t i) const
    {
        static constexpr unsigned char kZero[sizeof(T)] = {};
        return std::memcmp(&(*this)[i], kZero, sizeof(T)) == 0;
    }

    /**
     * Zero elements [first, first + n), storing only over elements
     * that are not zero already, so untouched pages stay untouched.
     */
    void
    zero(std::size_t first, std::size_t n)
    {
        EMMCSIM_DCHECK(first <= size_ && n <= size_ - first,
                       "ZeroArray::zero range out of bounds");
        for (std::size_t i = first; i < first + n; ++i) {
            if (!isZero(i))
                std::memset(static_cast<void *>(data_ + i), 0, sizeof(T));
        }
    }

    /** Every element back to zero; the pages return to the kernel. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        // MADV_DONTNEED on a private anonymous mapping drops the pages;
        // the next access faults in a zero page.
        const int rc = ::madvise(data_, bytes(size_), MADV_DONTNEED);
        EMMCSIM_ASSERT(rc == 0, "ZeroArray::clear: madvise failed");
    }

  private:
    static std::size_t bytes(std::size_t n) { return n * sizeof(T); }

    static T *
    map(std::size_t n)
    {
        if (n == 0)
            return nullptr;
        if (n > static_cast<std::size_t>(-1) / sizeof(T))
            throw std::bad_alloc();
        void *p = ::mmap(nullptr, bytes(n), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    static void
    unmap(T *p, std::size_t n) noexcept
    {
        if (p != nullptr)
            ::munmap(p, bytes(n));
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace emmcsim::core

#endif // EMMCSIM_CORE_ZERO_ARRAY_HH
