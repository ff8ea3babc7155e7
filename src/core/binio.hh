/**
 * @file
 * BinWriter / BinReader: the snapshot-image byte format.
 *
 * Snapshot/restore (DESIGN.md §13) serializes every piece of device
 * state — flash pools, FTL durable state, RNG streams, statistics —
 * into one flat byte string. The format is deliberately primitive:
 * fixed-width little-ended host integers written with memcpy, length-
 * prefixed containers, no pointers, no versioned records (the image
 * header carries one global version). Images are an exact-resume
 * artifact for the machine that wrote them, not an interchange format.
 *
 * The two classes share one set of field operations with the same
 * call shape: pod, podVec, fixedVec, expect, podTable, sparseU64,
 * text, each and nested. A snapshotted class lists its fields once,
 * in a template over the direction, and its save() and load() both
 * walk that list (DESIGN.md §13.5). What only a load does — clearing
 * zero-page tables, semantic checks, rebuilding indexes — sits in
 * load() around the list, never in a second list.
 *
 * The reader never throws and never trusts a length field: a truncated
 * or corrupt image flips a sticky failure flag, every later read
 * returns zeros/empties, and container reads are bounded by the bytes
 * actually remaining. Callers deserialize into a throwaway object tree
 * and check ok() once at the end.
 */

#ifndef EMMCSIM_CORE_BINIO_HH
#define EMMCSIM_CORE_BINIO_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace emmcsim::core {

/**
 * Incremental FNV-1a (64-bit) checksum. Not cryptographic — it exists
 * to catch truncation and bit rot in binary trace files, where a
 * silent short read would quietly shrink an experiment's workload.
 */
class Fnv1a
{
  public:
    void
    update(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        std::uint64_t h = hash_;
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= kPrime;
        }
        hash_ = h;
    }

    void update(std::string_view s) { update(s.data(), s.size()); }

    std::uint64_t value() const { return hash_; }

    void reset() { hash_ = kOffsetBasis; }

  private:
    static constexpr std::uint64_t kOffsetBasis =
        14695981039346656037ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;

    std::uint64_t hash_ = kOffsetBasis;
};

/** Append-only serializer producing the snapshot byte string. */
class BinWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void i64(std::int64_t v) { raw(&v, sizeof v); }

    /**
     * LEB128 varint: 7 value bits per byte, high bit = continuation.
     * Small values (delta-encoded timestamps, sizes in units) cost
     * one or two bytes instead of eight — the compression that makes
     * the columnar trace format compact.
     */
    void
    vu64(std::uint64_t v)
    {
        while (v >= 0x80) {
            u8(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        u8(static_cast<std::uint8_t>(v));
    }

    /** Zigzag-mapped signed varint (small magnitudes stay small). */
    void
    vi64(std::int64_t v)
    {
        vu64((static_cast<std::uint64_t>(v) << 1) ^
             static_cast<std::uint64_t>(v >> 63));
    }

    /** Length-prefixed byte string. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        buf_.append(s.data(), s.size());
    }

    /**
     * Open a str() written in place: reserve its u64 length and
     * return the slot for endStr(). The bytes written in between are
     * the string, so a nested image needs no second buffer.
     */
    std::size_t
    beginStr()
    {
        const std::size_t slot = buf_.size();
        u64(0);
        return slot;
    }

    /** Close the str() opened at @p slot: patch in its length. */
    void
    endStr(std::size_t slot)
    {
        const std::uint64_t n = buf_.size() - slot - sizeof n;
        std::memcpy(buf_.data() + slot, &n, sizeof n);
    }

    /** @name Field operations (same call shape as BinReader's). @{ */

    /** One trivially-copyable value, raw. */
    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        raw(&v, sizeof v);
    }

    /** A header value, which the reader requires to match. */
    template <typename T>
    void
    expect(const T &v)
    {
        pod(v);
    }

    /** Length-prefixed vector of trivially-copyable elements. */
    template <typename T>
    void
    podVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        if (!v.empty())
            raw(v.data(), v.size() * sizeof(T));
    }

    /**
     * A vector whose length the reader requires to match its own: a
     * podVec, or for std::vector<bool> flags packed 8 per byte.
     */
    template <typename T>
    void
    fixedVec(const std::vector<T> &v)
    {
        if constexpr (!std::is_same_v<T, bool>) {
            podVec(v);
        } else {
            u64(v.size());
            for (std::size_t i = 0; i < v.size(); i += 8) {
                std::uint8_t acc = 0;
                for (std::size_t k = i; k < v.size() && k < i + 8; ++k)
                    acc |= static_cast<std::uint8_t>(v[k] << (k - i));
                u8(acc);
            }
        }
    }

    /**
     * A table kept in another encoding, as the podVec of @p to(t[i])
     * for each i. @p from is the inverse, which only the reader calls.
     */
    template <typename Table, typename To = std::identity,
              typename From = std::identity>
    void
    podTable(const Table &t, To to = {}, From = {})
    {
        using T = std::remove_cvref_t<decltype(to(t[0]))>;
        static_assert(std::is_trivially_copyable_v<T>);
        const std::size_t n = t.size();
        u64(n);
        const std::size_t base = buf_.size();
        buf_.resize(base + n * sizeof(T));
        for (std::size_t i = 0; i < n; ++i) {
            const T v = to(t[i]);
            std::memcpy(buf_.data() + base + i * sizeof(T), &v, sizeof v);
        }
    }

    /**
     * u64 table stored as (index, value) pairs when mostly zero —
     * the page-seq tables are huge but mostly empty.
     */
    void
    sparseU64(std::span<const std::uint64_t> v)
    {
        std::uint64_t nonzero = 0;
        for (std::uint64_t x : v)
            nonzero += x != 0;
        u64(v.size());
        if (nonzero * 4 < v.size()) {
            u8(1); // sparse encoding
            u64(nonzero);
            for (std::uint64_t i = 0; i < v.size(); ++i) {
                if (v[i] != 0) {
                    u64(i);
                    u64(v[i]);
                }
            }
        } else {
            u8(0); // dense encoding
            if (!v.empty())
                raw(v.data(), v.size() * sizeof(std::uint64_t));
        }
    }

    /** A value stored as the str() of its stream operator<<. */
    template <typename T>
    void
    text(const T &v)
    {
        std::ostringstream os;
        os << v;
        str(os.str());
    }

    /**
     * A u64 count, then @p field(e) for each element e of @p c; each
     * element must write at least one byte.
     */
    template <typename C, typename Field>
    void
    each(const C &c, Field field)
    {
        u64(c.size());
        for (const auto &e : c)
            field(e);
    }

    /** A member object's layout, through its save(). */
    template <typename T>
    void
    nested(const T &x)
    {
        x.save(*this);
    }
    /** @} */

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    void
    raw(const void *p, std::size_t n)
    {
        buf_.append(static_cast<const char *>(p), n);
    }

    std::string buf_;
};

/** Bounds-checked deserializer over one snapshot byte string. */
class BinReader
{
  public:
    explicit BinReader(std::string_view bytes) : buf_(bytes) {}

    /** Sticky success flag; false after any truncation/corruption. */
    bool ok() const { return ok_; }

    /** Flag the image corrupt (e.g. a failed semantic validation). */
    void fail() { ok_ = false; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf_.size() - pos_; }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int64_t i64() { return get<std::int64_t>(); }

    /** LEB128 varint; a malformed (>10-byte) encoding fails the read. */
    std::uint64_t
    vu64()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 70; shift += 7) {
            const std::uint8_t byte = u8();
            if (!ok_)
                return 0;
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return v;
        }
        ok_ = false; // continuation bit never dropped: corrupt
        return 0;
    }

    /** Zigzag-mapped signed varint. */
    std::int64_t
    vi64()
    {
        const std::uint64_t z = vu64();
        return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
    }

    std::string str() { return std::string(strView()); }

    /**
     * A str() as a view into the image, which must outlive it: a
     * nested image is read in place instead of copied out.
     */
    std::string_view
    strView()
    {
        std::uint64_t n = u64();
        if (n > remaining()) {
            ok_ = false;
            return {};
        }
        const std::string_view s = buf_.substr(pos_, n);
        pos_ += n;
        return s;
    }

    /** @name Field operations (same call shape as BinWriter's). @{ */

    /** One trivially-copyable value; a bool is any non-zero byte. */
    template <typename T>
    void
    pod(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if constexpr (std::is_same_v<T, bool>)
            v = u8() != 0;
        else
            raw(&v, sizeof v);
    }

    /** A header value; fails unless it equals @p v. */
    template <typename T>
    void
    expect(const T &v)
    {
        if (!(get<T>() == v))
            ok_ = false;
    }

    /** A podVec of any length; @p v takes the stored one. */
    template <typename T>
    void
    podVec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = u64();
        if (n > remaining() / sizeof(T)) {
            ok_ = false;
            v.clear();
            return;
        }
        v.resize(n);
        if (n > 0)
            raw(v.data(), n * sizeof(T));
    }

    /** A fixedVec; fails unless the stored length is v.size(). */
    template <typename T>
    void
    fixedVec(std::vector<T> &v)
    {
        if (u64() != v.size()) {
            ok_ = false;
        } else if constexpr (!std::is_same_v<T, bool>) {
            if (!v.empty())
                raw(v.data(), v.size() * sizeof(T));
        } else if ((v.size() + 7) / 8 > remaining()) {
            ok_ = false;
        } else {
            std::uint8_t acc = 0;
            for (std::size_t i = 0; i < v.size(); ++i) {
                if (i % 8 == 0)
                    acc = u8();
                v[i] = (acc >> (i % 8)) & 1u;
            }
        }
    }

    /**
     * A podTable of exactly t.size() elements: element i becomes
     * @p from(value). @p t must be all zero and only non-zero results
     * are stored, so the untouched part of a zero-page table stays
     * untouched. A wrong length or a short image stores nothing.
     */
    template <typename Table, typename To = std::identity,
              typename From = std::identity>
    void
    podTable(Table &t, To = {}, From from = {})
    {
        using E = std::remove_cvref_t<decltype(t[0])>;
        using T = std::remove_cvref_t<std::invoke_result_t<To &, const E &>>;
        static constexpr unsigned char kZero[sizeof(E)] = {};
        if (u64() != t.size()) {
            ok_ = false;
            return;
        }
        podBody<T>(t.size(), [&](std::size_t i, const T &v) {
            const E e = from(v);
            if (std::memcmp(&e, kZero, sizeof e) != 0)
                t[i] = e;
        });
    }

    /**
     * A sparseU64 of exactly v.size() values into @p v, which must
     * be all zero: only the non-zero values are stored, so the
     * untouched part of a zero-page table stays untouched.
     */
    void
    sparseU64(std::span<std::uint64_t> v)
    {
        const std::uint64_t n = u64();
        const std::uint8_t mode = u8();
        if (n != v.size()) {
            ok_ = false;
            return;
        }
        const auto put = [&v](std::size_t i, std::uint64_t x) {
            if (x != 0)
                v[i] = x;
        };
        if (mode != 1) {
            podBody<std::uint64_t>(v.size(), put);
            return;
        }
        const std::uint64_t nonzero = u64();
        if (nonzero > remaining() / 16) {
            ok_ = false;
            return;
        }
        for (std::uint64_t k = 0; k < nonzero && ok_; ++k) {
            const std::uint64_t i = u64();
            const std::uint64_t x = u64();
            if (i >= v.size()) {
                ok_ = false;
                return;
            }
            put(i, x);
        }
    }

    /** A text value; fails unless its operator>> accepts it. */
    template <typename T>
    void
    text(T &v)
    {
        std::istringstream is(str());
        is >> v;
        if (is.fail())
            ok_ = false;
    }

    /** An each(): @p c is cleared and takes one element per entry. */
    template <typename C, typename Field>
    void
    each(C &c, Field field)
    {
        const std::uint64_t n = u64();
        c.clear();
        // Every element takes at least one byte.
        if (n > remaining()) {
            ok_ = false;
            return;
        }
        for (std::uint64_t i = 0; i < n && ok_; ++i)
            field(c.emplace_back());
    }

    /** A member object's layout, through its load(). */
    template <typename T>
    void
    nested(T &x)
    {
        x.load(*this);
    }
    /** @} */

  private:
    template <typename T>
    T
    get()
    {
        T v{};
        raw(&v, sizeof v);
        return v;
    }

    /** @p n raw elements of type T, each handed to @p put(i, value). */
    template <typename T, typename Put>
    void
    podBody(std::size_t n, Put put)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (n > remaining() / sizeof(T)) {
            ok_ = false;
            return;
        }
        const char *in = buf_.data() + pos_;
        for (std::size_t i = 0; i < n; ++i) {
            T v;
            std::memcpy(&v, in + i * sizeof(T), sizeof(T));
            put(i, v);
        }
        pos_ += n * sizeof(T);
    }

    void
    raw(void *p, std::size_t n)
    {
        if (n > remaining()) {
            ok_ = false;
            std::memset(p, 0, n);
            return;
        }
        std::memcpy(p, buf_.data() + pos_, n);
        pos_ += n;
    }

    std::string_view buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace emmcsim::core

#endif // EMMCSIM_CORE_BINIO_HH
