#include "analysis/locality.hh"

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace emmcsim::analysis {

LocalityResult
computeLocality(const trace::Trace &t)
{
    LocalityResult res;
    if (t.empty())
        return res;

    // The first record of each start LBA seen so far, by index, in one
    // open-addressed table of at least twice as many slots as records,
    // allocated once. An index is half the size of an LBA and leaves
    // every LBA value free to be a key.
    const auto &recs = t.records();
    constexpr std::uint32_t kFree = ~std::uint32_t{0};
    EMMCSIM_ASSERT(recs.size() < kFree, "trace too long for locality");
    const unsigned bits =
        static_cast<unsigned>(std::bit_width(2 * recs.size() - 1));
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::vector<std::uint32_t> first(mask + 1, kFree);
    // Whether an earlier record started where record i starts; if none
    // did, record i becomes the first.
    auto seenBefore = [&](std::uint32_t i) {
        const units::Lba start = recs[i].lbaSector;
        // Fibonacci hashing: the top bits of a golden-ratio product.
        std::uint64_t s =
            (start.value() * 0x9E3779B97F4A7C15ull) >> (64 - bits);
        for (; first[s] != kFree; s = (s + 1) & mask)
            if (recs[first[s]].lbaSector == start)
                return true;
        first[s] = i;
        return false;
    };

    units::Lba prev_end{0};
    for (std::uint32_t i = 0; i < recs.size(); ++i) {
        if (i > 0 && recs[i].lbaSector == prev_end)
            ++res.sequentialRequests;
        if (seenBefore(i))
            ++res.addressHits;
        prev_end = recs[i].endSector();
    }
    const double n = static_cast<double>(t.size());
    res.spatial = static_cast<double>(res.sequentialRequests) / n;
    res.temporal = static_cast<double>(res.addressHits) / n;
    return res;
}

} // namespace emmcsim::analysis
