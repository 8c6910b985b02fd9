/**
 * @file
 * Bitmask over monotone ring positions: the find-first structure for
 * the core's window scans (the ready window, unknown stores,
 * address-ready stores, blocked loads).
 *
 * Positions are monotone 64-bit values masked into a power-of-two bit
 * ring: as long as the live window [base, base + occupancy) never spans
 * more than the capacity, every live position owns a distinct bit.
 */

#ifndef STSIM_COMMON_SCAN_MASK_HH
#define STSIM_COMMON_SCAN_MASK_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace stsim
{

class ScanMask
{
  public:
    /** Returned by firstSet when no bit is set in the range. */
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};

    /** (Re)initialize with the smallest power-of-two bit capacity
     *  >= max(@p capacity, 64), every bit clear. */
    void
    init(std::uint64_t capacity)
    {
        std::uint64_t bits = 64;
        while (bits < capacity)
            bits <<= 1;
        words_.assign(bits / 64, 0);
        mask_ = bits - 1;
    }

    /** Clear every bit (capacity unchanged). */
    void reset() { std::fill(words_.begin(), words_.end(), 0); }

    bool
    none() const
    {
        return std::all_of(words_.begin(), words_.end(),
                           [](std::uint64_t w) { return w == 0; });
    }

    /** Number of set bits. */
    std::uint64_t
    count() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t w : words_)
            n += static_cast<std::uint64_t>(std::popcount(w));
        return n;
    }

    void
    set(std::uint64_t pos)
    {
        const std::uint64_t idx = pos & mask_;
        words_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }

    void
    clear(std::uint64_t pos)
    {
        const std::uint64_t idx = pos & mask_;
        words_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    bool
    test(std::uint64_t pos) const
    {
        const std::uint64_t idx = pos & mask_;
        return (words_[idx >> 6] >> (idx & 63)) & 1;
    }

    /** First set position in [@p pos, @p end), or kNone. The span
     *  end - pos must not exceed the capacity. */
    std::uint64_t
    firstSet(std::uint64_t pos, std::uint64_t end) const
    {
        while (pos < end) {
            const std::uint64_t idx = pos & mask_;
            const std::uint64_t off = idx & 63;
            const std::uint64_t word = words_[idx >> 6] >> off;
            if (word) {
                const std::uint64_t found =
                    pos + static_cast<std::uint64_t>(
                              std::countr_zero(word));
                return found < end ? found : kNone;
            }
            pos += 64 - off; // next word boundary
        }
        return kNone;
    }

    /** Invoke @p fn(pos) for every set position in [@p pos, @p end),
     *  ascending. @p fn may clear the bit it was called for. */
    template <typename Fn>
    void
    forEachSet(std::uint64_t pos, std::uint64_t end, Fn &&fn) const
    {
        while ((pos = firstSet(pos, end)) != kNone)
            fn(pos++);
    }

    /** Bit capacity (power of two, >= 64). */
    std::uint64_t capacity() const { return mask_ + 1; }

    /** The ring's 64-bit words, lowest positions first (snapshots). */
    const std::vector<std::uint64_t> &words() const { return words_; }

  private:
    std::vector<std::uint64_t> words_;
    std::uint64_t mask_ = 63;
};

} // namespace stsim

#endif // STSIM_COMMON_SCAN_MASK_HH
